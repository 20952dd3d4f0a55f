//! Container checkpoint/restore — the Zap-style process-group
//! migration the paper cites as a container advantage ("low-overhead
//! process migration", §VII \[7\]).
//!
//! A Cloud Android Container is just a process group over a private
//! upper layer, so moving one means: freeze, serialize the dirty
//! state (resident pages + private files + loaded-app metadata), move
//! it, and rebuild namespaces/cgroups/process tree on the destination.
//! Unlike a VM, none of the 1 GiB image travels — the destination
//! mounts its own Shared Resource Layer. This module prices the two
//! ends; the caller (`fleet`'s host LP) tears the source down, charges
//! the state through its fabric and owns the `migrate` span.

use crate::aid::Aid;
use crate::host::{CloudHost, HostError, InstanceId};
use crate::spec::RuntimeClass;
use containerfs::FsImage;
use obsv::{attrs, AttrValue, SpanId, Subsystem};
use simkit::SimDuration;
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

/// Serialization throughput of the checkpoint engine, bytes/s.
const CHECKPOINT_BANDWIDTH: f64 = 800.0e6;
/// Fixed restore cost: namespaces, cgroups, process-tree rebuild.
const RESTORE_FIXED: SimDuration = SimDuration::from_millis(350);

/// Freeze `id` on `host` and serialize its state. The container keeps
/// running until the caller tears it down; checkpoint alone is also
/// the snapshot path for fault tolerance.
pub fn checkpoint(
    host: &CloudHost,
    id: InstanceId,
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
        let at_us = rec.now_us();
        let span = rec.span_start_at(
            Subsystem::Virt,
            "migrate.checkpoint",
            SpanId::NONE,
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
        let at_us = rec.now_us();
        let span = rec.span_start_at(
            Subsystem::Virt,
            "migrate.restore",
            SpanId::NONE,
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

    /// Move `id` the way `fleet`'s host LP does: checkpoint, tear the
    /// source down, restore on the destination. Returns the new id,
    /// the bytes moved and freeze + restore time.
    fn move_container(
        src: &mut CloudHost,
        id: InstanceId,
        dst: &mut CloudHost,
    ) -> Result<(InstanceId, u64, SimDuration), HostError> {
        let (ckpt, freeze) = checkpoint(src, id)?;
        src.teardown(id)?;
        let (new_id, restored) = restore(dst, &ckpt)?;
        Ok((new_id, ckpt.state_bytes(), freeze + restored))
    }

    #[test]
    fn migration_preserves_loaded_apps() {
        let (mut src, mut dst) = two_hosts();
        let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
        src.load_app(id, "com.bench.chessgame", 2 * 1024 * 1024)
            .unwrap();
        src.load_app(id, "com.bench.linpack", 137_216).unwrap();

        let (new_id, _, _) = move_container(&mut src, id, &mut dst).unwrap();
        assert_eq!(src.instance_count(), 0, "source torn down");
        assert_eq!(dst.instance_count(), 1);
        // The warm code state survived: loading again is free.
        let t = dst
            .load_app(new_id, "com.bench.chessgame", 2 * 1024 * 1024)
            .unwrap();
        assert_eq!(t, SimDuration::ZERO, "app resident after migration");
        let t2 = dst.load_app(new_id, "com.bench.ocr", 1_435_648).unwrap();
        assert!(t2 > SimDuration::ZERO, "new apps still cost");
    }

    #[test]
    fn migration_moves_only_private_state() {
        let (mut src, mut dst) = two_hosts();
        let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
        let (_, state_bytes, _) = move_container(&mut src, id, &mut dst).unwrap();
        // Dirty state ≈ 96 MB pages + ~7 MB upper — nowhere near the
        // 1 GiB a VM image would be.
        assert!(state_bytes < 120 * 1024 * 1024, "state {state_bytes} bytes");
        assert!(state_bytes > mib(90), "pages dominate");
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
        let (_, state_bytes, ends) = move_container(&mut src, id, &mut dst).unwrap();
        let downtime = ends + SimDuration::from_secs_f64(state_bytes as f64 / 1.25e9);
        // Fresh provisioning on dst would cost 1.75 s boot + ~0.19 s
        // classload; migration downtime over 10 Gbps must beat it.
        assert!(
            downtime < SimDuration::from_millis(1_750 + 190),
            "downtime {downtime} vs fresh boot"
        );
    }

    #[test]
    fn migration_emits_checkpoint_and_restore_spans() {
        use obsv::{Recorder, RecorderConfig, TraceEvent};
        let (mut src, mut dst) = two_hosts();
        let rec = Recorder::enabled(RecorderConfig::default());
        src.attach_recorder(rec.clone());
        dst.attach_recorder(rec.clone());
        rec.set_current_request(Some(42));
        let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
        let (_, state_bytes, _) = move_container(&mut src, id, &mut dst).unwrap();
        rec.set_current_request(None);

        let snap = rec.snapshot();
        for span in ["migrate.checkpoint", "migrate.restore"] {
            let found = snap.events.iter().any(|e| {
                matches!(e, TraceEvent::Begin { name, attrs, .. }
                if *name == span
                    && attrs.iter().any(|(k, v)| {
                        *k == "state_bytes"
                            && matches!(v, obsv::AttrValue::U64(b) if *b == state_bytes)
                    }))
            });
            assert!(found, "{span} span with state_bytes");
        }
        // Request-scoped: both ends land in request 42's timeline.
        let timeline = snap.request_timeline(42);
        assert!(timeline.contains("migrate.checkpoint"), "{timeline}");
        assert!(timeline.contains("migrate.restore"));
    }

    #[test]
    fn untraced_migration_still_works() {
        // The recorder-disabled path must stay a pure no-op.
        let (mut src, mut dst) = two_hosts();
        let (id, _) = src.provision(RuntimeClass::CacOptimized).unwrap();
        assert!(move_container(&mut src, id, &mut dst).is_ok());
    }

    #[test]
    fn migrating_missing_instance_errors() {
        let (mut src, mut dst) = two_hosts();
        assert!(move_container(&mut src, InstanceId(7), &mut dst).is_err());
    }
}
