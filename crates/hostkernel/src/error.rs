//! Kernel error codes.
//!
//! Modelled after the errno values the real Android Container Driver
//! stack would return: a container that opens `/dev/binder` before
//! `android_binder.ko` is loaded gets `ENODEV`, an `rmmod` of a module
//! in use gets `EBUSY`, and so on.

use std::fmt;

/// Errors surfaced by the simulated kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The backing kernel module is not loaded (`ENODEV`).
    NoSuchDevice {
        /// Device node that was opened.
        device: &'static str,
    },
    /// Referenced process does not exist (`ESRCH`).
    NoSuchProcess {
        /// The dangling pid.
        pid: u32,
    },
    /// Referenced namespace does not exist (`EINVAL`).
    NoSuchNamespace {
        /// The dangling namespace id.
        ns: u32,
    },
    /// Object already exists (`EEXIST`).
    AlreadyExists {
        /// Human-readable description of the duplicate.
        what: String,
    },
    /// Object not found (`ENOENT`).
    NotFound {
        /// Human-readable description of the missing object.
        what: String,
    },
    /// Operation not permitted (`EPERM`).
    NotPermitted {
        /// Why the operation was denied.
        reason: String,
    },
    /// Module cannot be unloaded while in use (`EBUSY`).
    Busy {
        /// What is holding the reference.
        holder: String,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::NoSuchDevice { device } => write!(f, "ENODEV: no such device {device}"),
            KernelError::NoSuchProcess { pid } => write!(f, "ESRCH: no process {pid}"),
            KernelError::NoSuchNamespace { ns } => write!(f, "EINVAL: no namespace {ns}"),
            KernelError::AlreadyExists { what } => write!(f, "EEXIST: {what} already exists"),
            KernelError::NotFound { what } => write!(f, "ENOENT: {what} not found"),
            KernelError::NotPermitted { reason } => write!(f, "EPERM: {reason}"),
            KernelError::Busy { holder } => write!(f, "EBUSY: held by {holder}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Result alias for kernel operations.
pub type KernelResult<T> = Result<T, KernelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_errno_flavoured() {
        assert_eq!(
            KernelError::NoSuchDevice {
                device: "/dev/binder"
            }
            .to_string(),
            "ENODEV: no such device /dev/binder"
        );
        assert!(KernelError::NoSuchProcess { pid: 9 }
            .to_string()
            .contains("ESRCH"));
        assert!(KernelError::Busy {
            holder: "container-1".into()
        }
        .to_string()
        .contains("EBUSY"));
    }
}
