//! Cross-crate integration: multi-host clusters, live migration, and
//! Docker-style distribution working together.

use dockerlike::{cloud_android_layers, Daemon, Layer, Manifest, PullStrategy, Registry};
use hostkernel::HostSpec;
use simkit::SimTime;
use virt::{migrate, Cluster, RuntimeClass};
use workloads::WorkloadKind;

#[test]
fn cluster_survives_host_drain() {
    // Pile every container onto host 0, then let the rebalancer spread
    // the load toward host 1, verifying warm state travels with them.
    let mut c = Cluster::new(2, HostSpec::paper_server());
    for _ in 0..3 {
        let (id, _) = c.host_mut(0).provision(RuntimeClass::CacOptimized).unwrap();
        c.host_mut(0)
            .load_app(id, WorkloadKind::Ocr.app_id(), 1_435_648)
            .unwrap();
    }
    let moves = c.rebalance(1.25e9, SimTime::ZERO).unwrap();
    assert!(!moves.is_empty());
    // Every migrated container kept its warm OCR code.
    for (_, to, _) in &moves {
        let t = c
            .host_mut(to.host)
            .load_app(to.instance, WorkloadKind::Ocr.app_id(), 1_435_648)
            .unwrap();
        assert_eq!(t, simkit::SimDuration::ZERO, "code survived migration");
    }
}

#[test]
fn migration_between_standalone_hosts_preserves_userspace() {
    let mut src = virt::CloudHost::new(HostSpec::paper_server());
    let mut dst = virt::CloudHost::new(HostSpec::paper_server());
    let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
    let r = migrate(&mut src, id, &mut dst, 1.25e9, SimTime::ZERO).unwrap();
    // The restored container has a live Android userspace: fork an app
    // from its zygote and transact on binder.
    let inst = dst.instance(r.new_id).unwrap();
    let zygote = inst.zygote_pid.expect("containers have a zygote");
    let hostkernel::SyscallRet::Pid(app) = dst
        .kernel
        .syscall(
            zygote,
            hostkernel::Syscall::Fork {
                child_name: "post-migration",
            },
        )
        .unwrap()
    else {
        panic!("fork returns a pid");
    };
    let served = dst
        .kernel
        .syscall(
            app,
            hostkernel::Syscall::BinderTransact {
                service: "activity",
                payload_bytes: 32,
            },
        )
        .unwrap();
    assert!(matches!(served, hostkernel::SyscallRet::ServedBy(_)));
}

#[test]
fn docker_registry_feeds_a_whole_cluster() {
    // One registry, three hosts, each pulling the image: the registry
    // stores the layers once; each host's daemon caches them once.
    let mut registry = Registry::new();
    let layers: Vec<Layer> = cloud_android_layers().into_iter().map(|(l, _)| l).collect();
    let manifest = Manifest::new("rattrap/cloud-android", "4.4-r2", &layers);
    let image = manifest.reference();
    registry.push(manifest, layers);
    let registry_bytes = registry.stored_bytes();

    let mut total_transferred = 0;
    for _ in 0..3 {
        let mut daemon = Daemon::new();
        let first = daemon
            .create(&registry, &image, PullStrategy::Eager, SimTime::ZERO)
            .unwrap();
        let second = daemon
            .create(&registry, &image, PullStrategy::Eager, SimTime::ZERO)
            .unwrap();
        total_transferred += first.pull.bytes_transferred + second.pull.bytes_transferred;
        assert_eq!(second.pull.bytes_transferred, 0, "per-host cache dedups");
    }
    // 3 hosts × 1 cold pull each — not 6 pulls.
    assert_eq!(total_transferred, 3 * registry_bytes);
}

#[test]
fn placement_and_rebalance_keep_accounting_consistent() {
    let mut c = Cluster::new(3, HostSpec::paper_server());
    for _ in 0..7 {
        c.provision_least_loaded(RuntimeClass::CacOptimized)
            .unwrap();
    }
    let before_count = c.instance_count();
    let before_mem = c.memory_reserved();
    let moves = c.rebalance(1.25e9, SimTime::ZERO).unwrap();
    assert_eq!(
        c.instance_count(),
        before_count,
        "rebalance conserves instances"
    );
    assert_eq!(c.memory_reserved(), before_mem, "…and total memory");
    // Least-loaded placement means at most one container of imbalance,
    // so rebalancing has nothing to do.
    assert!(moves.is_empty());
}
