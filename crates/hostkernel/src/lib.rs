//! # hostkernel — the simulated cloud-server kernel
//!
//! Models the general-purpose Linux host that Rattrap extends into a
//! mobile-offloading platform. The paper's enabling idea (§IV-B1) is
//! that Android's kernel additions are *pseudo* drivers, so they can be
//! shipped as loadable modules — the **Android Container Driver** — and
//! a stock server gains the ability to run Android userspace in
//! containers without recompiling or rebooting.
//!
//! What is modelled, and why it matters to the evaluation:
//! * [`module`] — the driver package, its kernel-memory footprint and
//!   `insmod` latency (flexibility/efficiency claims of §IV-B1).
//! * [`device`] + [`kernel`] — `/dev` nodes appear only while modules
//!   are loaded (`ENODEV` otherwise) and each container namespace gets a
//!   private driver instance (device-namespace multiplexing from Cells).
//!   [`Kernel::device`] is the one gate every driver access goes through.
//! * [`binder`] — the service registry and synchronous transactions the
//!   offload RPC rides on; [`logger`] — the RAM log ring behind
//!   [`Kernel::dump_log`]. `/dev/alarm`, `/dev/ashmem` and `/dev/sw_sync`
//!   are nodes a namespace can open, with no driver state behind them.
//! * [`process`] — PID namespaces and Zygote-style forking.
//! * [`cgroup`] — one group per container, holding its anchor process.
//! * [`syscall`] — the Android syscall surface containers exercise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binder;
pub mod cgroup;
pub mod device;
pub mod error;
pub mod kernel;
pub mod logger;
pub mod module;
pub mod process;
pub mod procfs;
pub mod syscall;

pub use binder::{BinderContext, BinderHandle};
pub use cgroup::{Cgroup, CgroupId, CgroupManager};
pub use device::{DeviceHandle, DeviceKind};
pub use error::{KernelError, KernelResult};
pub use kernel::{HostSpec, Kernel};
pub use module::{ModuleSpec, ANDROID_CONTAINER_DRIVER};
pub use process::{Process, ProcessState, ProcessTable};
pub use syscall::{Syscall, SyscallRet};
