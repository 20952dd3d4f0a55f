//! Property tests for the fleet control plane (ISSUE PR 4):
//!
//! 1. Migration preserves a container's loaded-app set and its private
//!    upper layer byte-for-byte.
//! 2. The router/admission path never oversubscribes any host's DRAM.
//! 3. Every request reaches a terminal lifecycle phase under arbitrary
//!    fault plans, including whole-host crashes.

use containerfs::{FileCategory, FileEntry, LayerStore};
use fleet::{run_fleet, FleetConfig};
use hostkernel::HostSpec;
use proptest::prelude::*;
use simkit::faults::FaultConfig;
use simkit::SimDuration;
use virt::{checkpoint, restore, CloudHost, RuntimeClass};
use workloads::WorkloadKind;

/// Snapshot of an upper layer: (path, size, category) triples in path
/// order — byte-for-byte comparable.
fn upper_snapshot(host: &CloudHost, id: virt::InstanceId) -> Vec<(String, u64, FileCategory)> {
    host.instance(id)
        .unwrap()
        .mount
        .as_ref()
        .map(|m| {
            m.upper()
                .iter()
                .map(|(p, e)| (p.to_string(), e.size, e.category))
                .collect()
        })
        .unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint/transfer/restore moves the container's warm state
    /// intact: same loaded apps, same private upper layer, file for
    /// file and byte for byte.
    #[test]
    fn migration_preserves_apps_and_upper_layer(
        apps in prop::collection::btree_set(0usize..4, 0..4),
        files in prop::collection::vec((0u8..24, 1u64..200_000), 0..12),
    ) {
        let mut src = CloudHost::new(HostSpec::paper_server());
        let mut dst = CloudHost::new(HostSpec::paper_server());
        let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
        for &a in &apps {
            let kind = WorkloadKind::ALL[a];
            src.load_app(id, kind.app_id(), kind.profile().app_code_bytes)
                .unwrap();
        }
        // Dirty the private upper layer with offload scratch files.
        let store = LayerStore::new();
        for &(i, size) in &files {
            let inst = src.instance_mut(id).unwrap();
            if let Some(m) = inst.mount.as_mut() {
                m.write(
                    &store,
                    &format!("/data/scratch/f{i}"),
                    FileEntry::new(size, FileCategory::SystemData),
                );
            }
        }
        let apps_before = src.instance(id).unwrap().apps_loaded.clone();
        let upper_before = upper_snapshot(&src, id);

        let (ckpt, _) = checkpoint(&src, id).unwrap();
        src.teardown(id).unwrap();
        let (new_id, _) = restore(&mut dst, &ckpt).unwrap();

        let apps_after = &dst.instance(new_id).unwrap().apps_loaded;
        prop_assert_eq!(apps_before.len(), apps.len(), "one AID per app");
        prop_assert_eq!(&apps_before, apps_after, "loaded-app set moved intact");
        prop_assert_eq!(
            upper_before,
            upper_snapshot(&dst, new_id),
            "private upper layer moved byte-for-byte"
        );
        // And the source slot is gone.
        prop_assert!(src.instance(id).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// However the router, warm pools, migrations, and crash recovery
    /// interleave, no host's reserved DRAM ever exceeds its capacity
    /// (provisioning fails closed and the request queues instead).
    #[test]
    fn fleet_never_oversubscribes_host_memory(
        seed in any::<u64>(),
        hosts in 1usize..4,
        users in 4u32..24,
        capacity in 2usize..20,
        intensity in 0.0f64..2.0,
    ) {
        let mut cfg = FleetConfig::paper_default(hosts, seed);
        cfg.traffic.users = users;
        cfg.traffic.duration = SimDuration::from_secs(900);
        cfg.admission_capacity = capacity;
        cfg.faults = FaultConfig::scaled(intensity);
        let rep = run_fleet(&cfg);
        for (i, h) in rep.hosts.iter().enumerate() {
            prop_assert!(
                h.peak_memory <= h.memory_bytes,
                "host {i}: {} reserved of {}",
                h.peak_memory,
                h.memory_bytes
            );
        }
    }

    /// Every admitted request terminates — served, degraded to the
    /// device, or abandoned — under arbitrary fault plans including
    /// whole-host crashes; nothing is lost or double-counted.
    #[test]
    fn every_request_terminates_under_faults(
        seed in any::<u64>(),
        hosts in 1usize..5,
        users in 4u32..24,
        intensity in 0.0f64..3.0,
    ) {
        let mut cfg = FleetConfig::paper_default(hosts, seed);
        cfg.traffic.users = users;
        cfg.traffic.duration = SimDuration::from_secs(900);
        cfg.faults = FaultConfig::scaled(intensity);
        let rep = run_fleet(&cfg);
        for r in &rep.records {
            prop_assert!(
                r.phase.is_terminal(),
                "request {} ended in non-terminal {:?}",
                r.id,
                r.phase
            );
            prop_assert!(r.finished >= r.arrival);
        }
        prop_assert_eq!(
            rep.summary.completed_remote + rep.summary.fallback_local + rep.summary.abandoned,
            rep.summary.submitted,
            "every submitted request is accounted for exactly once"
        );
        // Crash re-routes show up in the records they touched.
        let rerouted: u64 = rep.records.iter().map(|r| r.rerouted as u64).sum();
        prop_assert_eq!(rerouted, rep.control.crash_reroutes);
    }
}
