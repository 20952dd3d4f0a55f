//! The cloud host: provisions and tears down runtime environments on
//! top of the simulated kernel and the layered filesystem.
//!
//! Provisioning a Cloud Android Container exercises the full §IV-B
//! pipeline against the substrate crates: load the Android Container
//! Driver (first time only), create a device namespace, mount the
//! rootfs (shared layer + private upper for the optimized class, a full
//! private copy otherwise), then run the user-space bring-up — init,
//! device opens, Zygote fork, core services on binder — via real
//! syscalls. Android VMs bypass the host kernel entirely (they carry
//! their own) and appear as a single opaque process.

use crate::aid::{aid_of, Aid};
use crate::boot::BootSequence;
use crate::spec::RuntimeClass;
use containerfs::{
    android::container_rootfs_unoptimized, android_x86_44_image, customize, instance_private_files,
    FsImage, LayerId, LayerStore, UnionMount,
};
use hostkernel::{CgroupId, DeviceKind, HostSpec, Kernel, KernelError, Syscall, SyscallRet};
use obsv::{attrs, AttrValue, Recorder, SpanId, Subsystem};
use simkit::resource::OutOfMemory;
use simkit::{IdTable, MemoryPool, SimDuration};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Identifier of a provisioned runtime instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// Errors from provisioning or operating runtimes.
#[derive(Debug, Clone, PartialEq)]
pub enum HostError {
    /// Host DRAM exhausted.
    OutOfMemory(OutOfMemory),
    /// Kernel-level failure (modules, namespaces, syscalls).
    Kernel(KernelError),
    /// Unknown instance id.
    NoSuchInstance(InstanceId),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::OutOfMemory(e) => write!(f, "{e}"),
            HostError::Kernel(e) => write!(f, "{e}"),
            HostError::NoSuchInstance(id) => write!(f, "no such instance {}", id.0),
        }
    }
}

impl std::error::Error for HostError {}

impl From<OutOfMemory> for HostError {
    fn from(e: OutOfMemory) -> Self {
        HostError::OutOfMemory(e)
    }
}

impl From<KernelError> for HostError {
    fn from(e: KernelError) -> Self {
        HostError::Kernel(e)
    }
}

/// A provisioned runtime environment.
#[derive(Debug)]
pub struct RuntimeInstance {
    /// Instance id.
    pub id: InstanceId,
    /// Runtime class.
    pub class: RuntimeClass,
    /// Device namespace (0 = host namespace, used by VMs).
    pub namespace: u32,
    /// Cgroup controlling the instance.
    pub cgroup: CgroupId,
    /// Host pid of the instance's anchor process (init or the VM process).
    pub init_pid: u32,
    /// Zygote pid (containers only; VMs keep theirs internal).
    pub zygote_pid: Option<u32>,
    /// Union mount (optimized containers only).
    pub mount: Option<UnionMount>,
    /// Disk bytes exclusively owned by this instance. Fixed at
    /// provisioning: the host keeps the sum over live instances.
    exclusive_disk_bytes: u64,
    /// Mobile apps whose code has been loaded into the runtime.
    pub apps_loaded: BTreeSet<Aid>,
    /// Boot sequence the instance ran.
    pub boot: BootSequence,
    /// Total setup latency (boot + one-time module loading).
    pub setup_time: SimDuration,
}

impl RuntimeInstance {
    /// Disk bytes exclusively owned by this instance.
    pub fn exclusive_disk_bytes(&self) -> u64 {
        self.exclusive_disk_bytes
    }
}

/// Fixed dex-opt / verification cost when loading an app into a runtime.
const CLASSLOAD_FIXED: SimDuration = SimDuration::from_millis(150);

/// Built once per process: the customised Android image (the Shared
/// Resource Layer's content, §IV-C) and two totals of the full one.
struct AndroidImage {
    shared_layer: Arc<FsImage>,
    full_image_bytes: u64,
    container_rootfs_bytes: u64,
}

/// The cloud server hosting runtime environments.
#[derive(Debug)]
pub struct CloudHost {
    /// The host kernel (public for cross-crate tests and the platform).
    pub kernel: Kernel,
    layers: LayerStore,
    shared_layer: LayerId,
    memory: MemoryPool,
    full_image_bytes: u64,
    container_rootfs_bytes: u64,
    instances: IdTable<RuntimeInstance>,
    /// Σ `exclusive_disk_bytes` over `instances`: added by `provision`,
    /// subtracted by `teardown`, so disk usage is read per event without
    /// walking the instances.
    exclusive_disk_total: u64,
    next_id: u32,
    /// Observability recorder (disabled unless attached).
    rec: Recorder,
}

impl CloudHost {
    /// Bring up a host on `spec`, publishing the customized Android image
    /// as the Shared Resource Layer: one allocation for every host of the
    /// process, accounted by each host's store as its own disk.
    pub fn new(spec: HostSpec) -> Self {
        static IMAGE: OnceLock<AndroidImage> = OnceLock::new();
        let image = IMAGE.get_or_init(|| {
            let full = android_x86_44_image();
            AndroidImage {
                shared_layer: Arc::new(customize(&full).0),
                full_image_bytes: full.total_bytes(),
                container_rootfs_bytes: container_rootfs_unoptimized(&full).total_bytes(),
            }
        });
        let mut layers = LayerStore::new();
        let shared_layer = layers.publish("shared-resource-layer", Arc::clone(&image.shared_layer));
        CloudHost {
            kernel: Kernel::new(spec),
            layers,
            shared_layer,
            memory: MemoryPool::new(spec.memory_bytes),
            full_image_bytes: image.full_image_bytes,
            container_rootfs_bytes: image.container_rootfs_bytes,
            instances: IdTable::new(),
            exclusive_disk_total: 0,
            next_id: 0,
            rec: Recorder::disabled(),
        }
    }

    /// Attach an observability recorder. The kernel shares the same
    /// handle, so binder/logcat/insmod events land in the same trace.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        self.kernel.attach_recorder(rec.clone());
        self.rec = rec;
    }

    /// The attached observability recorder (disabled by default).
    /// Cross-host operations — migration, fleet control planes — use
    /// this to emit spans against the same clock and ring as the
    /// host's own provision/teardown events.
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Host hardware description.
    pub fn host_spec(&self) -> HostSpec {
        self.kernel.host()
    }

    /// Provision a runtime of `class`. Returns the instance id and its
    /// setup latency (Table I's Setup Time).
    pub fn provision(
        &mut self,
        class: RuntimeClass,
    ) -> Result<(InstanceId, SimDuration), HostError> {
        let memory = class.spec().memory_bytes;
        self.memory.reserve(memory)?;
        let result = self.provision_inner(class);
        if result.is_err() {
            self.memory.release(memory);
        }
        result
    }

    fn provision_inner(
        &mut self,
        class: RuntimeClass,
    ) -> Result<(InstanceId, SimDuration), HostError> {
        let id = InstanceId(self.next_id);
        let t0 = self.rec.now_us();
        let mut setup = class.boot_sequence().total();

        let (namespace, init_pid, zygote_pid, mount, exclusive) = if class.is_container() {
            // One-time kernel extension: "the extended drivers are only
            // included when certain containers are started" (§IV-B1).
            setup += self.kernel.load_android_container_driver();
            self.kernel.module_get_package()?;
            let ns = self.kernel.create_namespace();
            let init = self.kernel.processes.spawn(ns, "/init", 0);
            for kind in [
                DeviceKind::Binder,
                DeviceKind::Logger,
                DeviceKind::Alarm,
                DeviceKind::Ashmem,
            ] {
                self.kernel.syscall(init, Syscall::OpenDevice(kind))?;
            }
            let SyscallRet::Pid(zygote) = self.kernel.syscall(
                init,
                Syscall::Fork {
                    child_name: "zygote",
                },
            )?
            else {
                unreachable!("fork returns a pid");
            };
            let SyscallRet::Pid(system_server) = self.kernel.syscall(
                zygote,
                Syscall::Fork {
                    child_name: "system_server",
                },
            )?
            else {
                unreachable!("fork returns a pid");
            };
            for service in ["activity", "package", "offloadcontroller"] {
                self.kernel
                    .syscall(system_server, Syscall::BinderRegister { service })?;
            }
            // User-space bring-up leaves its marks in /dev/log/main, the
            // same ring `dump_log` surfaces into request timelines.
            for (pid, tag, message) in [
                (init, "init", "boot completed"),
                (zygote, "zygote", "preload done, accepting fork requests"),
                (
                    system_server,
                    "system_server",
                    "core services published on binder",
                ),
            ] {
                self.kernel.syscall(
                    pid,
                    Syscall::LogWrite {
                        priority: 4,
                        tag,
                        message,
                    },
                )?;
            }
            let (mount, exclusive) = match class {
                RuntimeClass::CacOptimized => {
                    let mut m = UnionMount::new(&mut self.layers, vec![self.shared_layer]);
                    let private: FsImage = instance_private_files(id.0);
                    for (path, entry) in private.iter() {
                        m.write(&self.layers, path, entry.clone());
                    }
                    let excl = m.exclusive_bytes();
                    if self.rec.is_enabled() {
                        self.rec.instant(
                            Subsystem::Containerfs,
                            "union.mount",
                            attrs![
                                ("instance", AttrValue::U64(id.0 as u64)),
                                ("exclusive_bytes", AttrValue::U64(excl)),
                            ],
                        );
                    }
                    (Some(m), excl)
                }
                // Non-optimized containers copy the full rootfs privately.
                _ => (None, self.container_rootfs_bytes),
            };
            (ns, init, Some(zygote), mount, exclusive)
        } else {
            // A VM is one opaque host process with its own kernel inside.
            let pid = self.kernel.processes.spawn(0, "VirtualBoxVM", 0);
            (0, pid, None, None, self.full_image_bytes)
        };

        let cgroup = self.kernel.cgroups.create(&format!(
            "{}-{}",
            if class.is_container() { "cac" } else { "vm" },
            id.0
        ));
        self.kernel.cgroups.attach(cgroup, init_pid)?;

        if self.rec.is_enabled() {
            // The boot stages run after any one-time module loading, so
            // they occupy the tail of the setup window.
            let span = self.rec.span_start_at(
                Subsystem::Virt,
                "provision",
                SpanId::NONE,
                t0,
                attrs![
                    ("instance", AttrValue::U64(id.0 as u64)),
                    ("class", AttrValue::Str(class.label())),
                ],
            );
            let boot = class.boot_sequence();
            let mut at = t0 + (setup.as_micros() - boot.total().as_micros());
            for stage in boot.stages() {
                let s = self
                    .rec
                    .span_start_at(Subsystem::Virt, stage.name, span, at, vec![]);
                at += stage.duration.as_micros();
                self.rec.span_end_at(s, at, vec![]);
            }
            self.rec.span_end_at(span, t0 + setup.as_micros(), vec![]);
        }

        self.next_id += 1;
        self.exclusive_disk_total += exclusive;
        self.instances.insert(
            id.0,
            RuntimeInstance {
                id,
                class,
                namespace,
                cgroup,
                init_pid,
                zygote_pid,
                mount,
                exclusive_disk_bytes: exclusive,
                apps_loaded: BTreeSet::new(),
                boot: class.boot_sequence(),
                setup_time: setup,
            },
        );
        Ok((id, setup))
    }

    /// Tear an instance down, releasing memory, processes, namespaces,
    /// mounts and module references.
    pub fn teardown(&mut self, id: InstanceId) -> Result<(), HostError> {
        let inst = self
            .instances
            .remove(id.0)
            .ok_or(HostError::NoSuchInstance(id))?;
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Virt,
                "teardown",
                attrs![
                    ("instance", AttrValue::U64(id.0 as u64)),
                    ("class", AttrValue::Str(inst.class.label())),
                ],
            );
        }
        self.memory.release(inst.class.spec().memory_bytes);
        self.exclusive_disk_total -= inst.exclusive_disk_bytes;
        if inst.class.is_container() {
            self.kernel.destroy_namespace(inst.namespace)?;
            self.kernel.module_put_package();
        } else {
            // The VM process exits.
            let _ = self.kernel.processes.exit(inst.init_pid);
            let _ = self.kernel.processes.reap(inst.init_pid);
        }
        if let Some(m) = inst.mount {
            m.unmount(&mut self.layers);
        }
        // The anchor process was the group's only member.
        self.kernel.cgroups.detach(inst.init_pid);
        self.kernel.cgroups.remove(inst.cgroup)?;
        Ok(())
    }

    /// Immutable instance access.
    pub fn instance(&self, id: InstanceId) -> Result<&RuntimeInstance, HostError> {
        self.instances
            .get(id.0)
            .ok_or(HostError::NoSuchInstance(id))
    }

    /// Mutable instance access.
    pub fn instance_mut(&mut self, id: InstanceId) -> Result<&mut RuntimeInstance, HostError> {
        self.instances
            .get_mut(id.0)
            .ok_or(HostError::NoSuchInstance(id))
    }

    /// Instance ids in creation order.
    pub fn instance_ids(&self) -> Vec<InstanceId> {
        self.instances
            .ids()
            .iter()
            .map(|&k| InstanceId(k))
            .collect()
    }

    /// Number of live instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Load mobile code into a runtime (ClassLoader + dexopt). Returns
    /// the time it costs; zero when the app is already resident — the
    /// dispatcher-affinity benefit of the cache table's CID column.
    pub fn load_app(
        &mut self,
        id: InstanceId,
        app_id: &str,
        code_bytes: u64,
    ) -> Result<SimDuration, HostError> {
        let disk_bw = self.host_spec().disk_bandwidth;
        let inst = self.instance_mut(id)?;
        if !inst.apps_loaded.insert(aid_of(app_id)) {
            return Ok(SimDuration::ZERO);
        }
        let io_eff = inst.class.spec().io_efficiency;
        let t =
            CLASSLOAD_FIXED + SimDuration::from_secs_f64(code_bytes as f64 / (disk_bw * io_eff));
        if self.rec.is_enabled() {
            let now = self.rec.now_us();
            let span = self.rec.span_start_at(
                Subsystem::Virt,
                "load_app",
                SpanId::NONE,
                now,
                attrs![
                    ("instance", AttrValue::U64(id.0 as u64)),
                    ("app", AttrValue::Text(app_id.to_string())),
                    ("code_bytes", AttrValue::U64(code_bytes)),
                ],
            );
            self.rec.span_end_at(span, now + t.as_micros(), vec![]);
        }
        Ok(t)
    }

    /// The control-plane hop that starts one offloaded execution: a
    /// binder transaction against the instance's `offloadcontroller`
    /// service. VMs carry their own binder inside the guest, so the
    /// host kernel sees nothing for them.
    pub fn offload_rpc(&mut self, id: InstanceId, payload_bytes: u64) -> Result<(), HostError> {
        let Some(zygote) = self.instance(id)?.zygote_pid else {
            return Ok(());
        };
        self.kernel.syscall(
            zygote,
            Syscall::BinderTransact {
                service: "offloadcontroller",
                payload_bytes,
            },
        )?;
        Ok(())
    }

    /// Physical disk in use: shared layers once + per-instance exclusive
    /// bytes. This is the quantity behind the "at least 79 % disk
    /// savings" headline.
    pub fn total_disk_usage(&self) -> u64 {
        let walked = || self.instances.values().map(|i| i.exclusive_disk_bytes);
        debug_assert_eq!(self.exclusive_disk_total, walked().sum::<u64>());
        self.layers.total_shared_bytes() + self.exclusive_disk_total
    }

    /// Host DRAM currently reserved by instances.
    pub fn memory_reserved(&self) -> u64 {
        self.memory.used()
    }

    /// Peak host DRAM reserved.
    pub fn memory_peak(&self) -> u64 {
        self.memory.peak()
    }

    /// Bytes of the published Shared Resource Layer.
    pub fn shared_layer_bytes(&self) -> u64 {
        self.layers
            .layer_bytes(self.shared_layer)
            .expect("published at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::units::{gib, mib};

    fn host() -> CloudHost {
        CloudHost::new(HostSpec::paper_server())
    }

    #[test]
    fn provision_each_class_with_table1_setup_times() {
        let mut h = host();
        let (_, t_vm) = h.provision(RuntimeClass::AndroidVm).unwrap();
        assert_eq!(t_vm, SimDuration::from_millis(28_720));
        let (_, t_wo) = h.provision(RuntimeClass::CacUnoptimized).unwrap();
        // First container pays the one-time insmod cost on top of boot.
        assert!(t_wo >= SimDuration::from_millis(6_800));
        assert!(t_wo < SimDuration::from_millis(6_900));
        let (_, t_opt) = h.provision(RuntimeClass::CacOptimized).unwrap();
        assert_eq!(
            t_opt,
            SimDuration::from_millis(1_750),
            "modules already loaded"
        );
    }

    #[test]
    fn container_provisioning_builds_real_android_userspace() {
        let mut h = host();
        let (id, _) = h.provision(RuntimeClass::CacOptimized).unwrap();
        let inst = h.instance(id).unwrap();
        let ns = inst.namespace;
        assert_ne!(ns, 0);
        // Zygote and services exist and binder routes inside the namespace.
        let zygote = inst.zygote_pid.unwrap();
        let SyscallRet::Pid(app) = h
            .kernel
            .syscall(
                zygote,
                Syscall::Fork {
                    child_name: "com.bench.ocr",
                },
            )
            .unwrap()
        else {
            panic!()
        };
        let served = h
            .kernel
            .syscall(
                app,
                Syscall::BinderTransact {
                    service: "activity",
                    payload_bytes: 64,
                },
            )
            .unwrap();
        assert!(matches!(served, SyscallRet::ServedBy(_)));
    }

    #[test]
    fn namespaces_isolate_containers() {
        let mut h = host();
        let (a, _) = h.provision(RuntimeClass::CacOptimized).unwrap();
        let (b, _) = h.provision(RuntimeClass::CacOptimized).unwrap();
        let ns_a = h.instance(a).unwrap().namespace;
        let ns_b = h.instance(b).unwrap().namespace;
        assert_ne!(ns_a, ns_b);
        // Services registered in a's namespace are invisible in b's.
        assert!(h
            .kernel
            .binder_mut(ns_a)
            .unwrap()
            .lookup("activity")
            .is_some());
        assert!(h
            .kernel
            .binder_mut(ns_b)
            .unwrap()
            .lookup("activity")
            .is_some());
        h.kernel
            .binder_mut(ns_a)
            .unwrap()
            .register_service("only-a", 999)
            .unwrap();
        assert!(h
            .kernel
            .binder_mut(ns_b)
            .unwrap()
            .lookup("only-a")
            .is_none());
    }

    #[test]
    fn disk_usage_matches_table1_shape() {
        let mut h = host();
        let base = h.total_disk_usage(); // shared layer only
        let (vm, _) = h.provision(RuntimeClass::AndroidVm).unwrap();
        let vm_disk = h.instance(vm).unwrap().exclusive_disk_bytes();
        assert!(
            (vm_disk as f64 / gib(1) as f64 - 1.10).abs() < 0.01,
            "VM ≈ 1.1 GiB"
        );
        let (wo, _) = h.provision(RuntimeClass::CacUnoptimized).unwrap();
        let wo_disk = h.instance(wo).unwrap().exclusive_disk_bytes();
        assert!(
            (wo_disk as f64 / gib(1) as f64 - 1.02).abs() < 0.01,
            "W/O ≈ 1.02 GiB"
        );
        let (opt, _) = h.provision(RuntimeClass::CacOptimized).unwrap();
        let opt_disk = h.instance(opt).unwrap().exclusive_disk_bytes();
        assert!(
            opt_disk < mib(8),
            "optimized CAC < 7.1 MB + slack, got {opt_disk}"
        );
        assert_eq!(h.total_disk_usage(), base + vm_disk + wo_disk + opt_disk);
    }

    #[test]
    fn ten_optimized_containers_share_one_layer() {
        let mut h = host();
        let shared = h.shared_layer_bytes();
        for _ in 0..10 {
            h.provision(RuntimeClass::CacOptimized).unwrap();
        }
        let total = h.total_disk_usage();
        // 10 containers cost the shared layer once + ~7 MiB each,
        // nowhere near 10 full images.
        assert!(total < shared + mib(80), "total {total}");
        assert!(total >= shared + 10 * mib(6));
    }

    /// Where `h` resolves a shared-layer file: the address of the entry
    /// inside the published image.
    fn shared_file_addr(h: &mut CloudHost) -> usize {
        let (id, _) = h.provision(RuntimeClass::CacOptimized).unwrap();
        let mount = h.instance(id).unwrap().mount.as_ref().unwrap();
        let entry = mount
            .lookup(&h.layers, "/system/framework/framework00.jar")
            .expect("the shared layer carries the framework");
        entry as *const _ as usize
    }

    #[test]
    fn hosts_share_one_image_but_each_accounts_it() {
        let (mut a, mut b) = (host(), host());
        assert_eq!(shared_file_addr(&mut a), shared_file_addr(&mut b));
        // Hosts built on other threads (the benches run independent
        // fleets in parallel) get the same allocation.
        let there = std::thread::spawn(|| shared_file_addr(&mut host()))
            .join()
            .unwrap();
        assert_eq!(there, shared_file_addr(&mut a));
        // Sharing the allocation does not share the disk: every host
        // pays for its own copy of the layer.
        let fresh = host();
        assert_eq!(fresh.total_disk_usage(), fresh.shared_layer_bytes());
        assert_eq!(fresh.shared_layer_bytes(), a.shared_layer_bytes());
        assert_eq!(a.layers.refs(a.shared_layer), Some(2));
        assert_eq!(b.layers.refs(b.shared_layer), Some(1));
    }

    #[test]
    fn memory_reservation_and_release() {
        let mut h = host();
        let (vm, _) = h.provision(RuntimeClass::AndroidVm).unwrap();
        assert_eq!(h.memory_reserved(), mib(512));
        let (cac, _) = h.provision(RuntimeClass::CacOptimized).unwrap();
        assert_eq!(h.memory_reserved(), mib(512 + 96));
        h.teardown(vm).unwrap();
        h.teardown(cac).unwrap();
        assert_eq!(h.memory_reserved(), 0);
        assert_eq!(h.memory_peak(), mib(608));
        assert_eq!(h.instance_count(), 0);
    }

    #[test]
    fn teardown_releases_kernel_objects() {
        let mut h = host();
        let (id, _) = h.provision(RuntimeClass::CacOptimized).unwrap();
        let ns = h.instance(id).unwrap().namespace;
        assert!(h.kernel.namespace_exists(ns));
        h.teardown(id).unwrap();
        assert!(!h.kernel.namespace_exists(ns));
        // With no containers left, the driver package can be unloaded.
        assert!(h.kernel.unload_module("android_binder.ko").is_ok());
        assert!(h.teardown(id).is_err(), "double teardown");
    }

    #[test]
    fn memory_exhaustion_is_clean() {
        let mut h = host();
        // 16 GiB / 512 MiB = 31 VMs fit (kernel reserves nothing here).
        let mut n = 0;
        loop {
            match h.provision(RuntimeClass::AndroidVm) {
                Ok(_) => n += 1,
                Err(HostError::OutOfMemory(_)) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(n, 32);
        // Failure left no half-provisioned instance behind.
        assert_eq!(h.instance_count(), 32);
    }

    #[test]
    fn app_loading_costs_once_per_runtime() {
        let mut h = host();
        let (id, _) = h.provision(RuntimeClass::CacOptimized).unwrap();
        let t1 = h
            .load_app(id, "com.bench.chessgame", 2 * 1024 * 1024)
            .unwrap();
        assert!(t1 > CLASSLOAD_FIXED);
        let t2 = h
            .load_app(id, "com.bench.chessgame", 2 * 1024 * 1024)
            .unwrap();
        assert_eq!(t2, SimDuration::ZERO, "already loaded");
        let t3 = h.load_app(id, "com.bench.linpack", 137_216).unwrap();
        assert!(t3 > SimDuration::ZERO);
    }

    #[test]
    fn shared_io_layer_is_much_faster_and_burns_after_reading() {
        let mut h = host();
        let (opt, _) = h.provision(RuntimeClass::CacOptimized).unwrap();
        let (vm, _) = h.provision(RuntimeClass::AndroidVm).unwrap();
        let opt_spec = h.instance(opt).unwrap().class.spec();
        let vm_spec = h.instance(vm).unwrap().class.spec();
        assert!(opt_spec.uses_shared_io_layer);
        assert!(!vm_spec.uses_shared_io_layer);
        // An offloading exchange through the shared in-memory layer
        // against the VM's virtualized HDD path on this host.
        let bytes = 900.0 * 1024.0;
        let t_opt = bytes / crate::spec::TMPFS_BANDWIDTH;
        let t_vm = bytes / (h.host_spec().disk_bandwidth * vm_spec.io_efficiency);
        assert!(
            t_vm / t_opt > 20.0,
            "tmpfs should crush the virtualized HDD path: {t_opt} vs {t_vm}"
        );
        // Burn after reading: the layer is priced per exchange and keeps
        // no bytes, so the host reserves only the instances' own memory.
        assert_eq!(
            h.memory_reserved(),
            opt_spec.memory_bytes + vm_spec.memory_bytes
        );
    }

    #[test]
    fn instrumented_provision_spans_virt_hostkernel_and_containerfs() {
        use obsv::{RecorderConfig, TraceEvent};
        let mut h = host();
        let rec = obsv::Recorder::enabled(RecorderConfig::default());
        h.attach_recorder(rec.clone());
        let (id, _) = h.provision(RuntimeClass::CacOptimized).unwrap();
        h.offload_rpc(id, 4096).unwrap();
        let snap = rec.snapshot();
        let cats: std::collections::BTreeSet<&str> = snap
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Begin { subsystem, .. } | TraceEvent::Instant { subsystem, .. } => {
                    Some(subsystem.name())
                }
                TraceEvent::End { .. } => None,
            })
            .collect();
        assert!(cats.contains("virt"), "provision + boot stage spans");
        assert!(cats.contains("hostkernel"), "insmod + binder instants");
        assert!(cats.contains("containerfs"), "union.mount instant");
        // The boot-stage children tile the provision span exactly.
        let begins = snap
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Begin { name, .. } if *name == "provision"))
            .count();
        assert_eq!(begins, 1);
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Instant { name, .. } if *name == "binder.transact")));
        // Boot left renderable lines in the namespace logger ring.
        let ns = h.instance(id).unwrap().namespace;
        let lines = h.kernel.dump_log(ns).unwrap();
        assert!(lines.iter().any(|l| l.tag == "system_server"));
    }

    #[test]
    fn offload_rpc_is_a_noop_for_vms() {
        let mut h = host();
        let (vm, _) = h.provision(RuntimeClass::AndroidVm).unwrap();
        h.offload_rpc(vm, 1024).unwrap();
    }

    #[test]
    fn vm_load_app_slower_than_container() {
        let mut h = host();
        let (vm, _) = h.provision(RuntimeClass::AndroidVm).unwrap();
        let (cac, _) = h.provision(RuntimeClass::CacUnoptimized).unwrap();
        let code = 2 * 1024 * 1024;
        let t_vm = h.load_app(vm, "app", code).unwrap();
        let t_cac = h.load_app(cac, "app", code).unwrap();
        assert!(t_vm > t_cac);
    }
}
