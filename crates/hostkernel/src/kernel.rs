//! The host kernel: module loading, device namespaces, processes,
//! cgroups, and the driver instances behind each namespace's `/dev`.
//!
//! This is the "general purpose server OS" of the paper, extended at
//! runtime by the Android Container Driver. The two properties the
//! evaluation leans on are modelled exactly:
//!
//! 1. **Dynamic extension** — Android syscalls return `ENODEV` until the
//!    corresponding module is loaded; loading takes milliseconds and no
//!    reboot; unloading reclaims kernel memory but is refused while any
//!    container still references the module (`EBUSY`).
//! 2. **Device-namespace multiplexing** — every container namespace gets
//!    a private instance of each driver's state (its binder registry and
//!    logger ring; for the other nodes, only that it opened them) while
//!    sharing the single loaded module, the Cells mechanism adapted to
//!    the cloud (§IV-B1). [`Kernel::device`] gates every access.

use crate::binder::BinderContext;
use crate::cgroup::CgroupManager;
use crate::device::{DeviceHandle, DeviceKind};
use crate::error::{KernelError, KernelResult};
use crate::logger::LogRecord;
use crate::logger::LoggerDriver;
use crate::module::module_providing;
use crate::module::{module_by_name, ModuleSpec, ANDROID_CONTAINER_DRIVER};
use crate::process::ProcessTable;
use obsv::{attrs, AttrValue, Recorder, SpanId, Subsystem};
use simkit::SimDuration;
use std::collections::BTreeMap;

/// Static description of the host machine (§V: 2 × 6-core Xeon X5650).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpec {
    /// Physical cores.
    pub cores: u32,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// Installed DRAM, bytes.
    pub memory_bytes: u64,
    /// HDD sequential bandwidth, bytes/s.
    pub disk_bandwidth: f64,
}

impl HostSpec {
    /// The paper's evaluation server: 2 × six-core Xeon X5650 2.66 GHz,
    /// 16 GB DRAM, 300 GB HDD (§V). HDD bandwidth ~120 MB/s sequential.
    pub fn paper_server() -> Self {
        HostSpec {
            cores: 12,
            clock_ghz: 2.66,
            memory_bytes: 16 * 1024 * 1024 * 1024,
            disk_bandwidth: 120.0 * 1024.0 * 1024.0,
        }
    }
}

#[derive(Debug)]
struct LoadedModule {
    spec: &'static ModuleSpec,
    /// References held by containers (module_get/module_put).
    refs: u32,
}

/// Per-namespace driver instances, created lazily on first open.
/// Only binder and the logger keep state a result reads; the other
/// nodes are recorded as opened and nothing more.
#[derive(Debug, Default)]
struct NamespaceState {
    binder: Option<BinderContext>,
    logger: Option<LoggerDriver>,
    /// Device nodes opened in this namespace, one bit per [`DeviceKind`].
    opened: u8,
    next_fd: u32,
}

const fn node_bit(kind: DeviceKind) -> u8 {
    1 << kind as u8
}

/// The simulated host kernel.
#[derive(Debug)]
pub struct Kernel {
    host: HostSpec,
    modules: BTreeMap<&'static str, LoadedModule>,
    namespaces: BTreeMap<u32, NamespaceState>,
    next_ns: u32,
    /// Global process table.
    pub processes: ProcessTable,
    /// Cgroup hierarchy.
    pub cgroups: CgroupManager,
    kernel_memory: u64,
    /// Observability handle; disabled by default. The kernel has no
    /// clock of its own — events stamp from the recorder's sim time,
    /// which the simulation engine advances at every event pop.
    rec: Recorder,
}

impl Kernel {
    /// Boot a kernel on `host`. The host namespace (id 0) exists from
    /// the start.
    pub fn new(host: HostSpec) -> Self {
        let mut namespaces = BTreeMap::new();
        namespaces.insert(0, NamespaceState::default());
        Kernel {
            host,
            modules: BTreeMap::new(),
            namespaces,
            next_ns: 1,
            processes: ProcessTable::new(),
            cgroups: CgroupManager::new(),
            kernel_memory: 0,
            rec: Recorder::disabled(),
        }
    }

    /// Report module and syscall activity into `rec` (spans for
    /// `insmod`, instants for `rmmod` / binder transactions / logcat
    /// writes). A disabled recorder keeps every path zero-cost.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// The kernel's observability handle.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Host machine description.
    pub fn host(&self) -> HostSpec {
        self.host
    }

    /// Kernel memory consumed by loaded modules.
    pub fn kernel_memory(&self) -> u64 {
        self.kernel_memory
    }

    // ---- modules -------------------------------------------------------

    /// `insmod name`. Returns the simulated load latency; loading an
    /// already-loaded module is a no-op costing zero time.
    pub fn load_module(&mut self, name: &str) -> KernelResult<SimDuration> {
        let spec = module_by_name(name).ok_or_else(|| KernelError::NotFound {
            what: format!("module {name}"),
        })?;
        if self.modules.contains_key(spec.name) {
            return Ok(SimDuration::ZERO);
        }
        self.modules
            .insert(spec.name, LoadedModule { spec, refs: 0 });
        self.kernel_memory += spec.kernel_memory_bytes;
        if self.rec.is_enabled() {
            // The load latency is known up front, so the span's end
            // is stamped at now + load_time directly.
            let now = self.rec.now_us();
            let span = self.rec.span_start_at(
                Subsystem::Hostkernel,
                "insmod",
                SpanId::NONE,
                now,
                attrs![
                    ("module", AttrValue::Str(spec.name)),
                    ("kernel_memory", AttrValue::U64(spec.kernel_memory_bytes)),
                ],
            );
            self.rec
                .span_end_at(span, now + spec.load_time.as_micros(), Vec::new());
        }
        Ok(spec.load_time)
    }

    /// Load the entire Android Container Driver package; returns total
    /// `insmod` latency for modules that were not already resident.
    pub fn load_android_container_driver(&mut self) -> SimDuration {
        ANDROID_CONTAINER_DRIVER
            .iter()
            .fold(SimDuration::ZERO, |acc, m| {
                acc + self.load_module(m.name).expect("package modules are known")
            })
    }

    /// `rmmod name`. Fails with `EBUSY` while containers hold references.
    pub fn unload_module(&mut self, name: &str) -> KernelResult<()> {
        let m = self
            .modules
            .get(name)
            .ok_or_else(|| KernelError::NotFound {
                what: format!("module {name}"),
            })?;
        if m.refs > 0 {
            return Err(KernelError::Busy {
                holder: format!("{} containers", m.refs),
            });
        }
        let m = self.modules.remove(name).expect("checked above");
        self.kernel_memory -= m.spec.kernel_memory_bytes;
        self.rec.instant(
            Subsystem::Hostkernel,
            "rmmod",
            attrs![("module", AttrValue::Str(m.spec.name))],
        );
        Ok(())
    }

    /// Is a module currently resident?
    pub fn module_loaded(&self, name: &str) -> bool {
        self.modules.contains_key(name)
    }

    /// Take a reference on every package module (container start).
    pub fn module_get_package(&mut self) -> KernelResult<()> {
        for spec in ANDROID_CONTAINER_DRIVER {
            match self.modules.get_mut(spec.name) {
                Some(m) => m.refs += 1,
                None => {
                    // Roll back references taken so far to stay consistent.
                    for prev in ANDROID_CONTAINER_DRIVER {
                        if prev.name == spec.name {
                            break;
                        }
                        self.modules
                            .get_mut(prev.name)
                            .expect("was just incremented")
                            .refs -= 1;
                    }
                    return Err(KernelError::NoSuchDevice {
                        device: spec.provides[0].dev_path(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Drop the package reference (container stop).
    pub fn module_put_package(&mut self) {
        for spec in ANDROID_CONTAINER_DRIVER {
            if let Some(m) = self.modules.get_mut(spec.name) {
                m.refs = m.refs.saturating_sub(1);
            }
        }
    }

    // ---- namespaces ----------------------------------------------------

    /// Create a fresh device namespace (one per container).
    pub fn create_namespace(&mut self) -> u32 {
        let ns = self.next_ns;
        self.next_ns += 1;
        self.namespaces.insert(ns, NamespaceState::default());
        ns
    }

    /// Tear a namespace down: kill its processes and drop driver state.
    pub fn destroy_namespace(&mut self, ns: u32) -> KernelResult<()> {
        if ns == 0 {
            return Err(KernelError::NotPermitted {
                reason: "cannot destroy host namespace".into(),
            });
        }
        self.namespaces
            .remove(&ns)
            .ok_or(KernelError::NoSuchNamespace { ns })?;
        self.processes.kill_namespace(ns);
        Ok(())
    }

    /// Does the namespace exist?
    pub fn namespace_exists(&self, ns: u32) -> bool {
        self.namespaces.contains_key(&ns)
    }

    /// Number of live namespaces (including the host's).
    pub fn namespace_count(&self) -> usize {
        self.namespaces.len()
    }

    // ---- devices -------------------------------------------------------

    /// Open a device node inside `ns`. Returns `ENODEV` unless the
    /// providing module is loaded; instantiates per-namespace driver
    /// state on first open.
    pub fn open_device(&mut self, ns: u32, kind: DeviceKind) -> KernelResult<DeviceHandle> {
        self.require_module(kind)?;
        let state = self
            .namespaces
            .get_mut(&ns)
            .ok_or(KernelError::NoSuchNamespace { ns })?;
        match kind {
            DeviceKind::Binder => {
                state.binder.get_or_insert_with(BinderContext::new);
            }
            DeviceKind::Logger => {
                state.logger.get_or_insert_with(LoggerDriver::default);
            }
            DeviceKind::Alarm | DeviceKind::Ashmem | DeviceKind::SwSync => {}
        }
        state.opened |= node_bit(kind);
        let fd = state.next_fd;
        state.next_fd += 1;
        Ok(DeviceHandle {
            kind,
            namespace: ns,
            fd,
        })
    }

    /// `ENODEV` unless the module providing `kind` is resident. A
    /// namespace may hold stale driver state from before an `rmmod`,
    /// and reading through an unloaded module must fail exactly like
    /// `open_device` does — the device nodes of an unloaded module are
    /// dead, full stop. (The model-checking harness audits this as the
    /// "ENODEV iff module unloaded" invariant.)
    fn require_module(&self, kind: DeviceKind) -> KernelResult<()> {
        let module = module_providing(kind).expect("every kind has a module");
        if !self.modules.contains_key(module.name) {
            return Err(KernelError::NoSuchDevice {
                device: kind.dev_path(),
            });
        }
        Ok(())
    }

    /// The gate every driver access goes through: `Ok` when the module
    /// providing `kind` is resident and `ns` has opened the node.
    /// `ENODEV` otherwise, and `NoSuchNamespace` for an unknown `ns`.
    pub fn device(&self, ns: u32, kind: DeviceKind) -> KernelResult<()> {
        self.require_module(kind)?;
        let state = self
            .namespaces
            .get(&ns)
            .ok_or(KernelError::NoSuchNamespace { ns })?;
        if state.opened & node_bit(kind) == 0 {
            return Err(KernelError::NoSuchDevice {
                device: kind.dev_path(),
            });
        }
        Ok(())
    }

    /// The namespace's binder context (see [`Kernel::device`]).
    pub fn binder_mut(&mut self, ns: u32) -> KernelResult<&mut BinderContext> {
        self.device(ns, DeviceKind::Binder)?;
        Ok(self
            .namespaces
            .get_mut(&ns)
            .and_then(|s| s.binder.as_mut())
            .expect("an opened binder node has a context"))
    }

    /// The namespace's logger (see [`Kernel::device`]).
    pub fn logger_mut(&mut self, ns: u32) -> KernelResult<&mut LoggerDriver> {
        self.device(ns, DeviceKind::Logger)?;
        Ok(self
            .namespaces
            .get_mut(&ns)
            .and_then(|s| s.logger.as_mut())
            .expect("an opened logger node has a ring"))
    }

    /// `logcat -d` for namespace `ns`: snapshot its log ring (oldest
    /// first), without disturbing the ring.
    ///
    /// Gated like every driver access ([`Kernel::device`]): `ENODEV`
    /// when the logger *module* is not resident — even if the
    /// namespace still holds the ring from before an `rmmod` — or when
    /// the namespace never opened `/dev/log/main`, and
    /// `NoSuchNamespace` for an unknown namespace.
    pub fn dump_log(&self, ns: u32) -> KernelResult<Vec<LogRecord>> {
        self.device(ns, DeviceKind::Logger)?;
        Ok(self.namespaces[&ns]
            .logger
            .as_ref()
            .expect("an opened logger node has a ring")
            .dump())
    }

    /// Ids of all live namespaces (including the host's), ascending.
    pub fn namespace_ids(&self) -> Vec<u32> {
        self.namespaces.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(HostSpec::paper_server())
    }

    #[test]
    fn device_requires_module() {
        let mut k = kernel();
        let ns = k.create_namespace();
        // Binder before insmod: ENODEV — the exact failure the Android
        // Container Driver exists to prevent.
        let err = k.open_device(ns, DeviceKind::Binder).unwrap_err();
        assert_eq!(
            err,
            KernelError::NoSuchDevice {
                device: "/dev/binder"
            }
        );
        k.load_module("android_binder.ko").unwrap();
        assert!(k.open_device(ns, DeviceKind::Binder).is_ok());
    }

    #[test]
    fn module_load_is_idempotent_and_accounted() {
        let mut k = kernel();
        let t1 = k.load_module("ashmem.ko").unwrap();
        assert!(t1 > SimDuration::ZERO);
        let mem = k.kernel_memory();
        assert!(mem > 0);
        let t2 = k.load_module("ashmem.ko").unwrap();
        assert_eq!(t2, SimDuration::ZERO);
        assert_eq!(k.kernel_memory(), mem, "no double charge");
    }

    #[test]
    fn unload_respects_references() {
        let mut k = kernel();
        k.load_android_container_driver();
        k.module_get_package().unwrap();
        let err = k.unload_module("android_binder.ko").unwrap_err();
        assert!(matches!(err, KernelError::Busy { .. }));
        k.module_put_package();
        k.unload_module("android_binder.ko").unwrap();
        assert!(!k.module_loaded("android_binder.ko"));
        assert!(k.kernel_memory() < crate::module::total_package_memory());
    }

    #[test]
    fn module_get_fails_atomically_when_package_incomplete() {
        let mut k = kernel();
        k.load_module("android_binder.ko").unwrap();
        // Package incomplete: get must fail and leave zero references so
        // the loaded module can still be unloaded.
        assert!(k.module_get_package().is_err());
        assert!(k.unload_module("android_binder.ko").is_ok());
    }

    #[test]
    fn namespaces_isolate_binder_state() {
        let mut k = kernel();
        k.load_android_container_driver();
        let a = k.create_namespace();
        let b = k.create_namespace();
        k.open_device(a, DeviceKind::Binder).unwrap();
        k.open_device(b, DeviceKind::Binder).unwrap();
        k.binder_mut(a)
            .unwrap()
            .register_service("activity", 10)
            .unwrap();
        // Namespace b sees no such service: isolation via device namespaces.
        assert!(k.binder_mut(b).unwrap().lookup("activity").is_none());
        assert!(k.binder_mut(a).unwrap().lookup("activity").is_some());
    }

    #[test]
    fn destroy_namespace_kills_processes() {
        let mut k = kernel();
        let ns = k.create_namespace();
        let init = k.processes.spawn(ns, "/init", 0);
        k.processes.fork(init, "zygote").unwrap();
        assert_eq!(k.processes.len(), 2);
        k.destroy_namespace(ns).unwrap();
        assert_eq!(k.processes.len(), 0);
        assert!(!k.namespace_exists(ns));
        assert!(k.destroy_namespace(ns).is_err());
    }

    #[test]
    fn dump_log_surfaces_the_ring() {
        let mut k = kernel();
        k.load_android_container_driver();
        let ns = k.create_namespace();
        k.open_device(ns, DeviceKind::Logger).unwrap();
        k.logger_mut(ns).unwrap().write(crate::logger::LogRecord {
            priority: 4,
            tag: "zygote".into(),
            message: "preloading classes".into(),
            pid: 2,
            at_us: 125,
        });
        let dumped = k.dump_log(ns).unwrap();
        assert_eq!(dumped.len(), 1);
        assert_eq!(dumped[0].at_us, 125);
        assert_eq!(dumped[0].render(), "I/zygote(2): preloading classes");
    }

    #[test]
    fn dump_log_is_enodev_when_module_unloaded() {
        let mut k = kernel();
        k.load_android_container_driver();
        let ns = k.create_namespace();
        k.open_device(ns, DeviceKind::Logger).unwrap();
        k.logger_mut(ns).unwrap().write(crate::logger::LogRecord {
            priority: 4,
            tag: "t".into(),
            message: "m".into(),
            pid: 1,
            at_us: 0,
        });
        // rmmod the logger module: the namespace still holds stale
        // driver state, but dumping must fail with ENODEV rather than
        // read through the unloaded module.
        k.unload_module("android_logger.ko").unwrap();
        let err = k.dump_log(ns).unwrap_err();
        assert_eq!(
            err,
            KernelError::NoSuchDevice {
                device: DeviceKind::Logger.dev_path()
            }
        );
        assert_eq!(format!("{err}"), "ENODEV: no such device /dev/log/main");
    }

    #[test]
    fn dump_log_is_enodev_when_never_opened_and_esrch_for_unknown_ns() {
        let mut k = kernel();
        k.load_android_container_driver();
        let ns = k.create_namespace();
        assert!(matches!(
            k.dump_log(ns),
            Err(KernelError::NoSuchDevice { .. })
        ));
        assert!(matches!(
            k.dump_log(999),
            Err(KernelError::NoSuchNamespace { ns: 999 })
        ));
    }

    #[test]
    fn device_is_enodev_when_never_opened_and_esrch_for_unknown_ns() {
        let mut k = kernel();
        k.load_android_container_driver();
        let ns = k.create_namespace();
        for kind in [DeviceKind::Alarm, DeviceKind::Ashmem, DeviceKind::SwSync] {
            assert_eq!(
                k.device(ns, kind),
                Err(KernelError::NoSuchDevice {
                    device: kind.dev_path()
                })
            );
            k.open_device(ns, kind).unwrap();
            assert_eq!(k.device(ns, kind), Ok(()));
            assert_eq!(
                k.device(999, kind),
                Err(KernelError::NoSuchNamespace { ns: 999 })
            );
        }
        // Opening a node in one namespace opens it nowhere else.
        let other = k.create_namespace();
        assert!(k.device(other, DeviceKind::Alarm).is_err());
    }

    #[test]
    fn instrumented_kernel_records_module_lifecycle() {
        use obsv::{RecorderConfig, TraceEvent};
        let rec = Recorder::enabled(RecorderConfig::default());
        rec.set_now(1_000);
        let mut k = kernel();
        k.attach_recorder(rec.clone());
        k.load_module("android_binder.ko").unwrap();
        k.unload_module("android_binder.ko").unwrap();
        let snap = rec.snapshot();
        let begin = snap
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Begin { name, at_us, .. } if *name == "insmod" => Some(*at_us),
                _ => None,
            })
            .expect("insmod span recorded");
        assert_eq!(begin, 1_000);
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Instant { name: "rmmod", .. })));
    }

    #[test]
    fn host_namespace_is_protected() {
        let mut k = kernel();
        assert!(matches!(
            k.destroy_namespace(0),
            Err(KernelError::NotPermitted { .. })
        ));
    }

    #[test]
    fn paper_server_spec() {
        let h = HostSpec::paper_server();
        assert_eq!(h.cores, 12);
        assert!((h.clock_ghz - 2.66).abs() < 1e-9);
    }

    #[test]
    fn full_driver_package_loads_quickly() {
        let mut k = kernel();
        let t = k.load_android_container_driver();
        assert!(t < SimDuration::from_millis(200));
        assert_eq!(k.kernel_memory(), crate::module::total_package_memory());
        // Second call is free.
        assert_eq!(k.load_android_container_driver(), SimDuration::ZERO);
    }
}
