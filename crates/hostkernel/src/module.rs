//! Loadable kernel modules — the Android Container Driver (§IV-B1).
//!
//! The paper's key mechanism: instead of compiling Android's pseudo
//! drivers (Binder, Alarm, Logger, Ashmem) into the host kernel, Rattrap
//! packages them as loadable modules so a stock cloud server becomes a
//! mobile-offloading host *without recompiling or rebooting*. Modules are
//! reference-counted by the containers using them and can be unloaded to
//! reclaim kernel memory when no Cloud Android Container needs them.

use crate::device::DeviceKind;
use simkit::SimDuration;

/// Descriptor of one loadable kernel module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleSpec {
    /// Module object name, e.g. `android_binder.ko`.
    pub name: &'static str,
    /// Non-swappable kernel memory the module occupies when loaded.
    pub kernel_memory_bytes: u64,
    /// Device node(s) the module provides.
    pub provides: &'static [DeviceKind],
    /// `insmod` latency (symbol resolution + init), simulated.
    pub load_time: SimDuration,
}

/// The Android Container Driver package: every pseudo driver Android
/// expects, implemented as loadable modules (§IV-B1). None of these is
/// hardware-related, which is exactly why the approach works on any
/// cloud server.
pub const ANDROID_CONTAINER_DRIVER: &[ModuleSpec] = &[
    ModuleSpec {
        name: "android_binder.ko",
        // Binder's static footprint is small; transaction buffers are
        // charged to the processes that map them.
        kernel_memory_bytes: 512 * 1024,
        provides: &[DeviceKind::Binder],
        load_time: SimDuration::from_millis(35),
    },
    ModuleSpec {
        name: "android_alarm.ko",
        kernel_memory_bytes: 64 * 1024,
        provides: &[DeviceKind::Alarm],
        load_time: SimDuration::from_millis(8),
    },
    ModuleSpec {
        name: "android_logger.ko",
        // Four RAM log buffers (main/system/radio/events) at 256 KiB each.
        kernel_memory_bytes: 1024 * 1024 + 32 * 1024,
        provides: &[DeviceKind::Logger],
        load_time: SimDuration::from_millis(12),
    },
    ModuleSpec {
        name: "ashmem.ko",
        kernel_memory_bytes: 128 * 1024,
        provides: &[DeviceKind::Ashmem],
        load_time: SimDuration::from_millis(10),
    },
    ModuleSpec {
        name: "sw_sync.ko",
        kernel_memory_bytes: 32 * 1024,
        provides: &[DeviceKind::SwSync],
        load_time: SimDuration::from_millis(5),
    },
];

/// Look up a module of the Android Container Driver by name.
pub fn module_by_name(name: &str) -> Option<&'static ModuleSpec> {
    ANDROID_CONTAINER_DRIVER.iter().find(|m| m.name == name)
}

/// The module that provides `kind`, if any.
pub fn module_providing(kind: DeviceKind) -> Option<&'static ModuleSpec> {
    ANDROID_CONTAINER_DRIVER
        .iter()
        .find(|m| m.provides.contains(&kind))
}

/// Total kernel memory of the whole driver package when fully loaded.
pub fn total_package_memory() -> u64 {
    ANDROID_CONTAINER_DRIVER
        .iter()
        .map(|m| m.kernel_memory_bytes)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_covers_all_android_pseudo_devices() {
        for kind in [
            DeviceKind::Binder,
            DeviceKind::Alarm,
            DeviceKind::Logger,
            DeviceKind::Ashmem,
            DeviceKind::SwSync,
        ] {
            assert!(
                module_providing(kind).is_some(),
                "no module provides {kind:?}"
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            module_by_name("android_binder.ko").unwrap().provides,
            &[DeviceKind::Binder]
        );
        assert!(module_by_name("nvidia.ko").is_none());
    }

    #[test]
    fn package_memory_is_modest() {
        // The whole point of loadable drivers: the package is tiny
        // compared to a VM's half-gigabyte footprint.
        let total = total_package_memory();
        assert!(total < 4 * 1024 * 1024, "package uses {total} bytes");
        assert!(total > 0);
    }

    #[test]
    fn package_load_time_is_fast() {
        // Loading all drivers must be far below even the optimized
        // container boot (1.75 s), or the lazy-loading argument dies.
        let total = ANDROID_CONTAINER_DRIVER
            .iter()
            .fold(SimDuration::ZERO, |acc, m| acc + m.load_time);
        assert!(total < SimDuration::from_millis(200));
    }
}
