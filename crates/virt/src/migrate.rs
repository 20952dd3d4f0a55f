//! Container checkpoint/restore and live migration between cloud
//! hosts — the Zap-style process-group migration the paper cites as a
//! container advantage ("low-overhead process migration", §VII \[7\]).
//!
//! A Cloud Android Container is just a process group over a private
//! upper layer, so migrating one means: freeze, serialize the dirty
//! state (resident pages + private files + loaded-app metadata), move
//! it, and rebuild namespaces/cgroups/process tree on the destination.
//! Unlike a VM, none of the 1 GiB image travels — the destination
//! mounts its own Shared Resource Layer.

use crate::aid::Aid;
use crate::host::{CloudHost, HostError, InstanceId};
use crate::spec::RuntimeClass;
use containerfs::FsImage;
use obsv::{attrs, AttrValue, SpanId, Subsystem};
use simkit::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// Serialized container state (the CRIU image, in spirit).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Runtime class of the source container.
    pub class: RuntimeClass,
    /// Apps whose code was loaded in the runtime.
    pub apps: BTreeSet<Aid>,
    /// The private upper layer (instance config + offload scratch).
    pub upper: FsImage,
    /// Resident memory pages to transfer.
    pub memory_bytes: u64,
}

impl Checkpoint {
    /// Total bytes that must cross the wire.
    pub fn state_bytes(&self) -> u64 {
        self.memory_bytes + self.upper.total_bytes()
    }
}

/// Outcome of a migration.
#[derive(Debug)]
pub struct MigrationReceipt {
    /// Instance id on the destination host.
    pub new_id: InstanceId,
    /// Stop-and-copy downtime (freeze + transfer + restore).
    pub downtime: SimDuration,
    /// Bytes transferred.
    pub state_bytes: u64,
}

/// Serialization throughput of the checkpoint engine, bytes/s.
const CHECKPOINT_BANDWIDTH: f64 = 800.0e6;
/// Fixed restore cost: namespaces, cgroups, process-tree rebuild.
const RESTORE_FIXED: SimDuration = SimDuration::from_millis(350);

/// Freeze `id` on `host` and serialize its state. The container keeps
/// running until [`migrate`] tears it down; checkpoint alone is also
/// the snapshot path for fault tolerance.
pub fn checkpoint(
    host: &CloudHost,
    id: InstanceId,
) -> Result<(Checkpoint, SimDuration), HostError> {
    let at = host.recorder().now_us();
    checkpoint_traced(host, id, SpanId::NONE, at)
}

/// [`checkpoint`] with explicit span parentage and start instant —
/// [`migrate`] nests the freeze under its own root span at sim time.
fn checkpoint_traced(
    host: &CloudHost,
    id: InstanceId,
    parent: SpanId,
    at_us: u64,
) -> Result<(Checkpoint, SimDuration), HostError> {
    let inst = host.instance(id)?;
    if !inst.class.is_container() {
        return Err(HostError::Kernel(hostkernel::KernelError::NotPermitted {
            reason: "VMs migrate as whole disk images, not process checkpoints".into(),
        }));
    }
    let upper = match &inst.mount {
        Some(m) => m.upper().clone(),
        None => FsImage::new(),
    };
    let ckpt = Checkpoint {
        class: inst.class,
        apps: inst.apps_loaded.clone(),
        upper,
        memory_bytes: inst.class.spec().peak_memory_bytes,
    };
    let freeze = SimDuration::from_secs_f64(ckpt.state_bytes() as f64 / CHECKPOINT_BANDWIDTH);
    let rec = host.recorder();
    if rec.is_enabled() {
        let span = rec.span_start_at(
            Subsystem::Virt,
            "migrate.checkpoint",
            parent,
            at_us,
            attrs![
                ("instance", AttrValue::U64(id.0 as u64)),
                ("state_bytes", AttrValue::U64(ckpt.state_bytes())),
                ("apps", AttrValue::U64(ckpt.apps.len() as u64)),
            ],
        );
        rec.span_end_at(span, at_us + freeze.as_micros(), vec![]);
    }
    Ok((ckpt, freeze))
}

/// Rebuild a checkpointed container on `host`. Returns the new instance
/// and the restore latency. Restore replaces the Android boot: the
/// process tree comes back from the image instead of re-running init
/// and Zygote preload.
pub fn restore(
    host: &mut CloudHost,
    ckpt: &Checkpoint,
) -> Result<(InstanceId, SimDuration), HostError> {
    let at = host.recorder().now_us();
    restore_traced(host, ckpt, SpanId::NONE, at)
}

/// [`restore`] with explicit span parentage and start instant. The
/// parent id is only meaningful when source and destination hosts share
/// one recorder (a fleet trace); with separate recorders the span still
/// records, parented to the destination's ambient span.
fn restore_traced(
    host: &mut CloudHost,
    ckpt: &Checkpoint,
    parent: SpanId,
    at_us: u64,
) -> Result<(InstanceId, SimDuration), HostError> {
    let (id, _boot_setup) = host.provision(ckpt.class)?;
    // Process tree, namespaces and mounts exist; reinstate the
    // container's logical state.
    {
        let inst = host.instance_mut(id)?;
        inst.apps_loaded = ckpt.apps.clone();
        // The writable layer comes back verbatim from the checkpoint,
        // replacing the fresh instance's default upper.
        if let Some(m) = inst.mount.as_mut() {
            m.restore_upper(ckpt.upper.clone());
        }
    }
    let unpack = SimDuration::from_secs_f64(ckpt.state_bytes() as f64 / CHECKPOINT_BANDWIDTH);
    let total = RESTORE_FIXED + unpack;
    let rec = host.recorder();
    if rec.is_enabled() {
        let span = rec.span_start_at(
            Subsystem::Virt,
            "migrate.restore",
            parent,
            at_us,
            attrs![
                ("instance", AttrValue::U64(id.0 as u64)),
                ("state_bytes", AttrValue::U64(ckpt.state_bytes())),
            ],
        );
        rec.span_end_at(span, at_us + total.as_micros(), vec![]);
    }
    Ok((id, total))
}

/// Stop-and-copy migration of `id` from `src` to `dst` over a link of
/// `link_bps` bytes/second.
///
/// When the hosts carry a recorder, the whole move is traced: a root
/// `migrate` span with `migrate.checkpoint` → `migrate.transfer` →
/// `migrate.restore` children, each carrying `state_bytes`. The spans
/// are stamped with the recorder's current request (if any), so a
/// migration triggered on a request's behalf merges into that
/// request's causal timeline.
pub fn migrate(
    src: &mut CloudHost,
    id: InstanceId,
    dst: &mut CloudHost,
    link_bps: f64,
    now: SimTime,
) -> Result<MigrationReceipt, HostError> {
    assert!(link_bps > 0.0, "link bandwidth must be positive");
    let rec = src.recorder().clone();
    let t0 = now.as_micros();
    let root = rec.span_start_at(
        Subsystem::Virt,
        "migrate",
        SpanId::NONE,
        t0,
        attrs![
            ("instance", AttrValue::U64(id.0 as u64)),
            ("mode", AttrValue::Str("stop_and_copy")),
        ],
    );
    let (ckpt, freeze) = checkpoint_traced(src, id, root, t0)?;
    let transfer = SimDuration::from_secs_f64(ckpt.state_bytes() as f64 / link_bps);
    let transfer_starts = t0 + freeze.as_micros();
    if rec.is_enabled() {
        let span = rec.span_start_at(
            Subsystem::Virt,
            "migrate.transfer",
            root,
            transfer_starts,
            attrs![
                ("state_bytes", AttrValue::U64(ckpt.state_bytes())),
                ("link_bps", AttrValue::F64(link_bps)),
            ],
        );
        rec.span_end_at(span, transfer_starts + transfer.as_micros(), vec![]);
    }
    let (new_id, restore_time) =
        restore_traced(dst, &ckpt, root, transfer_starts + transfer.as_micros())?;
    src.teardown(id)?;
    let downtime = freeze + transfer + restore_time;
    rec.span_end_at(
        root,
        t0 + downtime.as_micros(),
        attrs![
            ("state_bytes", AttrValue::U64(ckpt.state_bytes())),
            ("new_instance", AttrValue::U64(new_id.0 as u64)),
        ],
    );
    Ok(MigrationReceipt {
        new_id,
        downtime,
        state_bytes: ckpt.state_bytes(),
    })
}

/// Fraction of resident pages re-dirtied while one pre-copy round
/// streams (a chatty Android runtime dirties its heap fairly fast).
const DIRTY_RATE: f64 = 0.18;

/// Pre-copy (iterative) migration: stream memory while the container
/// keeps running, then stop-and-copy only the pages dirtied during the
/// last round. Trades extra transferred bytes for much less downtime —
/// the live-migration mode a production Rattrap would use.
pub fn migrate_precopy(
    src: &mut CloudHost,
    id: InstanceId,
    dst: &mut CloudHost,
    link_bps: f64,
    rounds: u32,
    now: SimTime,
) -> Result<MigrationReceipt, HostError> {
    assert!(link_bps > 0.0, "link bandwidth must be positive");
    assert!(rounds >= 1, "at least one pre-copy round");
    let rec = src.recorder().clone();
    let t0 = now.as_micros();
    let root = rec.span_start_at(
        Subsystem::Virt,
        "migrate",
        SpanId::NONE,
        t0,
        attrs![
            ("instance", AttrValue::U64(id.0 as u64)),
            ("mode", AttrValue::Str("precopy")),
            ("rounds", AttrValue::U64(rounds as u64)),
        ],
    );
    let (ckpt, _freeze) = checkpoint_traced(src, id, root, t0)?;
    // Round 1 streams all pages; each later round streams what the
    // previous round left dirty. The container runs throughout.
    let mut dirty = ckpt.memory_bytes as f64;
    let mut total_bytes = ckpt.upper.total_bytes() as f64;
    for _ in 0..rounds {
        total_bytes += dirty;
        dirty *= DIRTY_RATE;
    }
    let stream = SimDuration::from_secs_f64(total_bytes / link_bps);
    if rec.is_enabled() {
        let span = rec.span_start_at(
            Subsystem::Virt,
            "migrate.transfer",
            root,
            t0,
            attrs![
                (
                    "state_bytes",
                    AttrValue::U64(total_bytes as u64 + dirty as u64),
                ),
                ("link_bps", AttrValue::F64(link_bps)),
            ],
        );
        rec.span_end_at(span, t0 + stream.as_micros(), vec![]);
    }
    // Stop-and-copy the residual dirty set + restore.
    let final_freeze = SimDuration::from_secs_f64(dirty / CHECKPOINT_BANDWIDTH);
    let final_transfer = SimDuration::from_secs_f64(dirty / link_bps);
    let (new_id, restore_fixed) = restore_traced(dst, &ckpt, root, t0 + stream.as_micros())?;
    // Restore unpack already counted full state; for pre-copy the bulk
    // arrived ahead of the switchover, so downtime only pays the fixed
    // restore plus the residual.
    let downtime = final_freeze + final_transfer + RESTORE_FIXED;
    let _ = restore_fixed;
    src.teardown(id)?;
    let state_bytes = total_bytes as u64 + dirty as u64;
    rec.span_end_at(
        root,
        t0 + stream.as_micros() + downtime.as_micros(),
        attrs![
            ("state_bytes", AttrValue::U64(state_bytes)),
            ("new_instance", AttrValue::U64(new_id.0 as u64)),
        ],
    );
    Ok(MigrationReceipt {
        new_id,
        downtime,
        state_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostkernel::HostSpec;
    use simkit::units::mib;

    fn two_hosts() -> (CloudHost, CloudHost) {
        (
            CloudHost::new(HostSpec::paper_server()),
            CloudHost::new(HostSpec::paper_server()),
        )
    }

    #[test]
    fn migration_preserves_loaded_apps() {
        let (mut src, mut dst) = two_hosts();
        let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
        src.load_app(id, "com.bench.chessgame", 2 * 1024 * 1024)
            .unwrap();
        src.load_app(id, "com.bench.linpack", 137_216).unwrap();

        let r = migrate(&mut src, id, &mut dst, 1.25e9 / 8.0 * 8.0, SimTime::ZERO).unwrap();
        assert_eq!(src.instance_count(), 0, "source torn down");
        assert_eq!(dst.instance_count(), 1);
        // The warm code state survived: loading again is free.
        let t = dst
            .load_app(r.new_id, "com.bench.chessgame", 2 * 1024 * 1024)
            .unwrap();
        assert_eq!(t, SimDuration::ZERO, "app resident after migration");
        let t2 = dst.load_app(r.new_id, "com.bench.ocr", 1_435_648).unwrap();
        assert!(t2 > SimDuration::ZERO, "new apps still cost");
    }

    #[test]
    fn migration_moves_only_private_state() {
        let (mut src, mut dst) = two_hosts();
        let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
        let r = migrate(&mut src, id, &mut dst, 125.0e6, SimTime::ZERO).unwrap();
        // Dirty state ≈ 96 MB pages + ~7 MB upper — nowhere near the
        // 1 GiB a VM image would be.
        assert!(
            r.state_bytes < 120 * 1024 * 1024,
            "state {} bytes",
            r.state_bytes
        );
        assert!(r.state_bytes > mib(90), "pages dominate");
    }

    #[test]
    fn downtime_scales_with_link_speed() {
        let (mut src1, mut dst1) = two_hosts();
        let (a, _) = src1.provision(RuntimeClass::CacOptimized).unwrap();
        let fast = migrate(&mut src1, a, &mut dst1, 1.25e9, SimTime::ZERO).unwrap();
        let (mut src2, mut dst2) = two_hosts();
        let (b, _) = src2.provision(RuntimeClass::CacOptimized).unwrap();
        let slow = migrate(&mut src2, b, &mut dst2, 12.5e6, SimTime::ZERO).unwrap();
        assert!(
            slow.downtime > fast.downtime.mul_f64(3.0),
            "{} vs {}",
            slow.downtime,
            fast.downtime
        );
    }

    #[test]
    fn vm_checkpoint_is_refused() {
        let (mut src, _) = two_hosts();
        let (vm, _) = src.provision(RuntimeClass::AndroidVm).unwrap();
        assert!(checkpoint(&src, vm).is_err());
    }

    #[test]
    fn checkpoint_alone_leaves_source_running() {
        let (mut src, _) = two_hosts();
        let (id, _) = src.provision(RuntimeClass::CacUnoptimized).unwrap();
        let (ckpt, freeze) = checkpoint(&src, id).unwrap();
        assert!(freeze > SimDuration::ZERO);
        assert_eq!(ckpt.class, RuntimeClass::CacUnoptimized);
        assert_eq!(
            src.instance_count(),
            1,
            "snapshot does not kill the container"
        );
    }

    #[test]
    fn restore_faster_than_cold_boot_plus_classload() {
        // The point of migration: a warm container beats re-provisioning
        // and re-loading code, even counting the transfer.
        let (mut src, mut dst) = two_hosts();
        let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
        src.load_app(id, "com.bench.chessgame", 2 * 1024 * 1024)
            .unwrap();
        let r = migrate(&mut src, id, &mut dst, 1.25e9, SimTime::ZERO).unwrap();
        // Fresh provisioning on dst would cost 1.75 s boot + ~0.19 s
        // classload; migration downtime over 10 Gbps must beat it.
        assert!(
            r.downtime < SimDuration::from_millis(1_750 + 190),
            "downtime {} vs fresh boot",
            r.downtime
        );
    }

    #[test]
    fn precopy_cuts_downtime_but_moves_more_bytes() {
        let link = 125.0e6; // 1 GbE
        let (mut s1, mut d1) = two_hosts();
        let (a, _) = s1.provision(RuntimeClass::CacOptimized).unwrap();
        let stop_copy = migrate(&mut s1, a, &mut d1, link, SimTime::ZERO).unwrap();
        let (mut s2, mut d2) = two_hosts();
        let (b, _) = s2.provision(RuntimeClass::CacOptimized).unwrap();
        let precopy = migrate_precopy(&mut s2, b, &mut d2, link, 3, SimTime::ZERO).unwrap();
        assert!(
            precopy.downtime < stop_copy.downtime.mul_f64(0.6),
            "precopy {} vs stop-and-copy {}",
            precopy.downtime,
            stop_copy.downtime
        );
        assert!(
            precopy.state_bytes > stop_copy.state_bytes,
            "iterative rounds re-send dirtied pages"
        );
        // The destination is fully functional either way.
        assert_eq!(d2.instance_count(), 1);
        assert_eq!(s2.instance_count(), 0);
    }

    #[test]
    fn more_precopy_rounds_less_downtime() {
        let link = 125.0e6;
        let mut downtimes = Vec::new();
        for rounds in [1u32, 2, 4] {
            let (mut s, mut d) = two_hosts();
            let (id, _) = s.provision(RuntimeClass::CacOptimized).unwrap();
            let r = migrate_precopy(&mut s, id, &mut d, link, rounds, SimTime::ZERO).unwrap();
            downtimes.push(r.downtime);
        }
        assert!(downtimes[0] > downtimes[1]);
        assert!(downtimes[1] > downtimes[2]);
    }

    #[test]
    fn migration_emits_checkpoint_transfer_restore_spans() {
        use obsv::{Recorder, RecorderConfig, TraceEvent};
        let (mut src, mut dst) = two_hosts();
        let rec = Recorder::enabled(RecorderConfig::default());
        src.attach_recorder(rec.clone());
        dst.attach_recorder(rec.clone());
        rec.set_current_request(Some(42));
        let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
        let now = SimTime::from_secs(3);
        let r = migrate(&mut src, id, &mut dst, 1.25e9, now).unwrap();
        rec.set_current_request(None);

        let snap = rec.snapshot();
        let mut root = None;
        for e in &snap.events {
            if let TraceEvent::Begin {
                id, name, at_us, ..
            } = e
            {
                if *name == "migrate" {
                    assert_eq!(*at_us, now.as_micros());
                    root = Some(*id);
                }
            }
        }
        let root = root.expect("root migrate span");
        for child in ["migrate.checkpoint", "migrate.transfer", "migrate.restore"] {
            let found = snap.events.iter().any(|e| {
                matches!(e, TraceEvent::Begin { name, parent, attrs, .. }
                if *name == child
                    && *parent == root
                    && attrs.iter().any(|(k, v)| {
                        *k == "state_bytes"
                            && matches!(v, obsv::AttrValue::U64(b) if *b == r.state_bytes)
                    }))
            });
            assert!(found, "{child} span with state_bytes under the root");
        }
        // Request-scoped: the whole tree lands in request 42's timeline.
        let timeline = snap.request_timeline(42);
        assert!(timeline.contains("migrate.checkpoint"), "{timeline}");
        assert!(timeline.contains("migrate.restore"));
    }

    #[test]
    fn untraced_migration_still_works() {
        // The recorder-disabled path must stay a pure no-op.
        let (mut src, mut dst) = two_hosts();
        let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
        assert!(migrate(&mut src, id, &mut dst, 1.25e9, SimTime::ZERO).is_ok());
    }

    #[test]
    fn migrating_missing_instance_errors() {
        let (mut src, mut dst) = two_hosts();
        assert!(migrate(&mut src, InstanceId(7), &mut dst, 1e9, SimTime::ZERO).is_err());
    }
}
