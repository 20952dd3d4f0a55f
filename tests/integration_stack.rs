//! Cross-crate integration: the full Rattrap stack from kernel modules
//! up to served offloading requests, container moves between hosts and
//! Docker-style distribution.

use dockerlike::{cloud_android_layers, Daemon, Layer, Manifest, PullStrategy, Registry};
use hostkernel::{DeviceKind, HostSpec, Kernel, KernelError, Syscall, SyscallRet};
use rattrap::{aid_of, run_scenario, AppWarehouse, PlatformKind, ScenarioConfig};
use simkit::SimTime;
use virt::{checkpoint, restore, CloudHost, RuntimeClass};
use workloads::WorkloadKind;

#[test]
fn stock_server_becomes_offloading_host_without_reboot() {
    // A stock server cannot run Android userspace…
    let mut kernel = Kernel::new(HostSpec::paper_server());
    let ns = kernel.create_namespace();
    let app = kernel.processes.spawn(ns, "com.bench.ocr", 0);
    let err = kernel
        .syscall(app, Syscall::OpenDevice(DeviceKind::Binder))
        .unwrap_err();
    assert!(matches!(err, KernelError::NoSuchDevice { .. }));

    // …until the Android Container Driver is insmod'ed, live.
    let t = kernel.load_android_container_driver();
    assert!(t.as_millis() < 200, "no recompile, no reboot: {t}");
    assert!(kernel
        .syscall(app, Syscall::OpenDevice(DeviceKind::Binder))
        .is_ok());
}

#[test]
fn container_userspace_runs_on_shared_kernel_with_isolation() {
    let mut host = CloudHost::new(HostSpec::paper_server());
    let (a, _) = host.provision(RuntimeClass::CacOptimized).unwrap();
    let (b, _) = host.provision(RuntimeClass::CacOptimized).unwrap();

    // Full Android bring-up happened in both containers.
    for id in [a, b] {
        let inst = host.instance(id).unwrap();
        let procs = host.kernel.processes.in_namespace(inst.namespace);
        let names: Vec<&str> = procs.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"/init"));
        assert!(names.contains(&"zygote"));
        assert!(names.contains(&"system_server"));
    }

    // Binder transactions stay inside their namespace.
    let zygote_a = host.instance(a).unwrap().zygote_pid.unwrap();
    let SyscallRet::Pid(app_a) = host
        .kernel
        .syscall(
            zygote_a,
            Syscall::Fork {
                child_name: "com.bench.chessgame",
            },
        )
        .unwrap()
    else {
        panic!("fork returns pid")
    };
    let SyscallRet::ServedBy(server) = host
        .kernel
        .syscall(
            app_a,
            Syscall::BinderTransact {
                service: "activity",
                payload_bytes: 64,
            },
        )
        .unwrap()
    else {
        panic!("transact returns server pid")
    };
    let server_ns = host.kernel.processes.get(server).unwrap().namespace;
    assert_eq!(
        server_ns,
        host.instance(a).unwrap().namespace,
        "served inside namespace a"
    );

    // Teardown of a leaves b fully functional.
    host.teardown(a).unwrap();
    let zygote_b = host.instance(b).unwrap().zygote_pid.unwrap();
    assert!(host
        .kernel
        .syscall(
            zygote_b,
            Syscall::Fork {
                child_name: "still-works"
            }
        )
        .is_ok());
}

#[test]
fn shared_layer_is_physically_shared_across_the_fleet() {
    let mut host = CloudHost::new(HostSpec::paper_server());
    let shared = host.shared_layer_bytes();
    let mut ids = Vec::new();
    for _ in 0..6 {
        let (id, _) = host.provision(RuntimeClass::CacOptimized).unwrap();
        ids.push(id);
    }
    let per_container: u64 = ids
        .iter()
        .map(|&id| host.instance(id).unwrap().exclusive_disk_bytes())
        .sum();
    assert_eq!(host.total_disk_usage(), shared + per_container);
    // Six containers cost far less than six images.
    assert!(host.total_disk_usage() < shared + 6 * 8 * 1024 * 1024);
}

#[test]
fn warehouse_survives_container_churn() {
    // The code cache is platform state, not container state: cached
    // code outlives the containers that loaded it.
    let mut warehouse = AppWarehouse::new(64 << 20);
    let aid = aid_of(WorkloadKind::Linpack.app_id());
    assert!(!warehouse.lookup(&aid));
    warehouse.insert(aid, WorkloadKind::Linpack.app_id(), 137_216);

    let mut host = CloudHost::new(HostSpec::paper_server());
    let (c1, _) = host.provision(RuntimeClass::CacOptimized).unwrap();
    warehouse.note_loaded(&aid, c1);
    host.teardown(c1).unwrap();
    warehouse.invalidate_container(c1);

    // Cache still hits; only the CID column was invalidated.
    assert!(warehouse.lookup(&aid));
    assert!(warehouse.containers_with(&aid).is_empty());
}

#[test]
fn end_to_end_rattrap_beats_vm_on_response_time() {
    let seed = 0xE2E;
    let mut means = Vec::new();
    for platform in [PlatformKind::Rattrap, PlatformKind::VmBaseline] {
        let cfg = ScenarioConfig::paper_default(platform.config(), WorkloadKind::Ocr, seed);
        let rep = run_scenario(cfg);
        assert_eq!(rep.requests.len(), 100);
        means.push(rep.mean_of(|r| r.response_time().as_secs_f64()));
    }
    // Headline: "improves offloading response by as high as 63%". The
    // mean includes cold starts, where the gap is much larger.
    let improvement = 1.0 - means[0] / means[1];
    assert!(
        improvement > 0.25,
        "Rattrap {:.2}s vs VM {:.2}s ({:.0}% better)",
        means[0],
        means[1],
        improvement * 100.0
    );
}

#[test]
fn kernel_memory_fully_reclaimed_after_last_container() {
    let mut host = CloudHost::new(HostSpec::paper_server());
    let (a, _) = host.provision(RuntimeClass::CacUnoptimized).unwrap();
    let (b, _) = host.provision(RuntimeClass::CacOptimized).unwrap();
    assert!(host.kernel.kernel_memory() > 0);
    // Busy modules refuse to unload while containers reference them.
    assert!(host.kernel.unload_module("android_binder.ko").is_err());
    host.teardown(a).unwrap();
    assert!(
        host.kernel.unload_module("android_binder.ko").is_err(),
        "b still holds a ref"
    );
    host.teardown(b).unwrap();
    for m in hostkernel::ANDROID_CONTAINER_DRIVER {
        host.kernel.unload_module(m.name).unwrap();
    }
    assert_eq!(host.kernel.kernel_memory(), 0);
}

#[test]
fn migration_between_standalone_hosts_preserves_userspace() {
    // The move `fleet`'s host LP performs: checkpoint, tear the source
    // down, restore on the destination.
    let mut src = CloudHost::new(HostSpec::paper_server());
    let mut dst = CloudHost::new(HostSpec::paper_server());
    let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
    let (ckpt, _) = checkpoint(&src, id).unwrap();
    src.teardown(id).unwrap();
    let (new_id, _) = restore(&mut dst, &ckpt).unwrap();
    // The restored container has a live Android userspace: fork an app
    // from its zygote and transact on binder.
    let inst = dst.instance(new_id).unwrap();
    let zygote = inst.zygote_pid.expect("containers have a zygote");
    let SyscallRet::Pid(app) = dst
        .kernel
        .syscall(
            zygote,
            Syscall::Fork {
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
            Syscall::BinderTransact {
                service: "activity",
                payload_bytes: 32,
            },
        )
        .unwrap();
    assert!(matches!(served, SyscallRet::ServedBy(_)));
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
