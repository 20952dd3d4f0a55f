//! # virt — runtime environments: Android VM vs Cloud Android Container
//!
//! Implements the code runtime environments the evaluation compares
//! (Table I): the VirtualBox Android-x86 VM baseline, the
//! non-optimized Cloud Android Container of Rattrap(W/O), and the fully
//! optimized Cloud Android Container.
//!
//! * [`aid`] — application identifiers, the key runtimes, the App
//!   Warehouse and the fleet router track an app's code by.
//! * [`boot`] — the Fig. 6 boot sequences, calibrated to Table I's
//!   setup times (28.72 s / 6.80 s / 1.75 s).
//! * [`spec`] — per-class memory, vCPU, and efficiency parameters.
//! * [`mod@migrate`] — Zap-style checkpoint/restore of a container,
//!   the two ends of a move between hosts (only private state travels).
//! * [`host`] — [`CloudHost`]: provisions instances against the real
//!   `hostkernel` (driver modules, namespaces, Zygote bring-up via
//!   syscalls) and `containerfs` (shared-layer union mounts), with
//!   fleet-level disk/memory accounting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aid;
pub mod boot;
pub mod host;
pub mod migrate;
pub mod spec;

pub use aid::{aid_of, Aid};
pub use boot::{
    android_vm_boot, cac_optimized_boot, cac_unoptimized_boot, BootSequence, BootStage,
};
pub use host::{CloudHost, HostError, InstanceId, RuntimeInstance};
pub use migrate::{checkpoint, restore, Checkpoint};
pub use spec::{RuntimeClass, RuntimeSpec, TMPFS_BANDWIDTH};
