//! Android-specific syscall surface.
//!
//! Mobile code inside a Cloud Android Container "is able to make
//! Android-specific system calls" once the kernel is extended (§IV-B1).
//! This module is that surface: a typed syscall enum dispatched against
//! the calling process's device namespace. It is what the `virt` and
//! `rattrap` crates drive when simulated Android processes run.

use crate::binder::BinderHandle;
use crate::device::DeviceKind;
use crate::error::KernelResult;
use crate::kernel::Kernel;
use obsv::{attrs, AttrValue, Subsystem};

/// The Android syscalls the offloading path exercises. Names are
/// borrowed from the caller: a syscall on a request's path (the offload
/// RPC's binder transaction) allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Syscall<'a> {
    /// Open one of the Android pseudo devices.
    OpenDevice(DeviceKind),
    /// Publish a binder service (ServiceManager `addService`).
    BinderRegister {
        /// Service name, e.g. `"activity"`.
        service: &'a str,
    },
    /// Synchronous binder transaction.
    BinderTransact {
        /// Target service.
        service: &'a str,
        /// Payload size in bytes (a trace attribute; the model moves
        /// no bytes).
        payload_bytes: u64,
    },
    /// Append to the RAM log.
    LogWrite {
        /// Priority (2–7).
        priority: u8,
        /// Log tag.
        tag: &'a str,
        /// Message body.
        message: &'a str,
    },
    /// Fork the calling process (Zygote specialization).
    Fork {
        /// Name for the child.
        child_name: &'a str,
    },
}

/// Successful syscall results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyscallRet {
    /// No interesting return value.
    Unit,
    /// A new pid (from `Fork`).
    Pid(u32),
    /// A binder service handle.
    Binder(BinderHandle),
    /// The pid that serviced a transaction.
    ServedBy(u32),
    /// An opened device fd.
    Fd(u32),
}

impl Kernel {
    /// Dispatch `call` on behalf of `pid`, routing device access through
    /// the process's namespace.
    pub fn syscall(&mut self, pid: u32, call: Syscall<'_>) -> KernelResult<SyscallRet> {
        let ns = self.processes.get(pid)?.namespace;
        match call {
            Syscall::OpenDevice(kind) => {
                let h = self.open_device(ns, kind)?;
                Ok(SyscallRet::Fd(h.fd))
            }
            Syscall::BinderRegister { service } => {
                let h = self.binder_mut(ns)?.register_service(service, pid)?;
                Ok(SyscallRet::Binder(h))
            }
            Syscall::BinderTransact {
                service,
                payload_bytes,
            } => {
                let served = self.binder_mut(ns)?.transact(service)?;
                if self.recorder().is_enabled() {
                    self.recorder().instant(
                        Subsystem::Hostkernel,
                        "binder.transact",
                        attrs![
                            ("ns", AttrValue::U64(ns as u64)),
                            ("service", AttrValue::Text(service.to_string())),
                            ("bytes", AttrValue::U64(payload_bytes)),
                            ("served_by", AttrValue::U64(served as u64)),
                        ],
                    );
                }
                Ok(SyscallRet::ServedBy(served))
            }
            Syscall::LogWrite {
                priority,
                tag,
                message,
            } => {
                let at_us = self.recorder().now_us();
                if self.recorder().is_enabled() {
                    self.recorder().instant(
                        Subsystem::Hostkernel,
                        "logcat",
                        attrs![
                            ("ns", AttrValue::U64(ns as u64)),
                            ("priority", AttrValue::U64(priority as u64)),
                            ("tag", AttrValue::Text(tag.to_string())),
                        ],
                    );
                }
                self.logger_mut(ns)?.write(crate::logger::LogRecord {
                    priority,
                    tag: tag.to_string(),
                    message: message.to_string(),
                    pid,
                    at_us,
                });
                Ok(SyscallRet::Unit)
            }
            Syscall::Fork { child_name } => {
                let child = self.processes.fork(pid, child_name)?;
                Ok(SyscallRet::Pid(child))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::KernelError;
    use crate::kernel::HostSpec;

    /// Boot a kernel with the driver package loaded and a container
    /// namespace holding an init process.
    fn booted() -> (Kernel, u32) {
        let mut k = Kernel::new(HostSpec::paper_server());
        k.load_android_container_driver();
        let ns = k.create_namespace();
        let init = k.processes.spawn(ns, "/init", 0);
        (k, init)
    }

    #[test]
    fn android_boot_sequence_via_syscalls() {
        // The user-space boot of §IV-B2 expressed as syscalls: init opens
        // devices, forks zygote, zygote registers core services.
        let (mut k, init) = booted();
        k.syscall(init, Syscall::OpenDevice(DeviceKind::Binder))
            .unwrap();
        k.syscall(init, Syscall::OpenDevice(DeviceKind::Logger))
            .unwrap();
        let SyscallRet::Pid(zygote) = k
            .syscall(
                init,
                Syscall::Fork {
                    child_name: "zygote",
                },
            )
            .unwrap()
        else {
            panic!("fork returns pid")
        };
        let SyscallRet::Pid(system_server) = k
            .syscall(
                zygote,
                Syscall::Fork {
                    child_name: "system_server",
                },
            )
            .unwrap()
        else {
            panic!("fork returns pid")
        };
        k.syscall(
            system_server,
            Syscall::BinderRegister {
                service: "activity",
            },
        )
        .unwrap();
        k.syscall(
            system_server,
            Syscall::BinderRegister { service: "package" },
        )
        .unwrap();
        // An app process can now transact with the activity manager.
        let SyscallRet::Pid(app) = k
            .syscall(
                zygote,
                Syscall::Fork {
                    child_name: "com.bench.ocr",
                },
            )
            .unwrap()
        else {
            panic!("fork returns pid")
        };
        let r = k
            .syscall(
                app,
                Syscall::BinderTransact {
                    service: "activity",
                    payload_bytes: 128,
                },
            )
            .unwrap();
        assert_eq!(r, SyscallRet::ServedBy(system_server));
    }

    #[test]
    fn syscalls_fail_without_driver_modules() {
        let mut k = Kernel::new(HostSpec::paper_server());
        let ns = k.create_namespace();
        let p = k.processes.spawn(ns, "app", 0);
        let err = k
            .syscall(p, Syscall::OpenDevice(DeviceKind::Binder))
            .unwrap_err();
        assert!(matches!(err, KernelError::NoSuchDevice { .. }));
    }

    #[test]
    fn transact_before_open_is_enodev() {
        let (mut k, init) = booted();
        let err = k
            .syscall(
                init,
                Syscall::BinderTransact {
                    service: "x",
                    payload_bytes: 1,
                },
            )
            .unwrap_err();
        assert!(matches!(err, KernelError::NoSuchDevice { .. }));
    }
}
