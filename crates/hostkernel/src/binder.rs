//! Binder IPC driver state (one instance per device namespace).
//!
//! Binder is the pseudo driver the paper singles out (Fig. 5): Android
//! frameworks cannot run without it, and it has no hardware dependency,
//! so shipping it as a loadable module is what lets a stock Linux host
//! run Android userspace inside containers. This model implements the
//! part of the protocol that matters for offloading: a service registry
//! (the ServiceManager's context-manager role) and synchronous
//! transactions, isolated per namespace.

use crate::error::{KernelError, KernelResult};
use std::collections::BTreeMap;

/// Handle to a registered binder service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BinderHandle(pub u32);

/// One namespace's binder context.
#[derive(Debug, Default)]
pub struct BinderContext {
    /// Service name → (handle, owning pid).
    services: BTreeMap<String, (BinderHandle, u32)>,
    next_handle: u32,
}

impl BinderContext {
    /// Fresh, empty context (created when a namespace first opens
    /// `/dev/binder`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `service` as owned by `pid`. Mirrors
    /// `svcmgr_publish`: duplicate names are rejected.
    pub fn register_service(&mut self, service: &str, pid: u32) -> KernelResult<BinderHandle> {
        if self.services.contains_key(service) {
            return Err(KernelError::AlreadyExists {
                what: format!("binder service {service}"),
            });
        }
        let handle = BinderHandle(self.next_handle);
        self.next_handle += 1;
        self.services.insert(service.to_string(), (handle, pid));
        Ok(handle)
    }

    /// Look up a service by name (ServiceManager `getService`).
    pub fn lookup(&self, service: &str) -> Option<BinderHandle> {
        self.services.get(service).map(|&(h, _)| h)
    }

    /// Perform a synchronous transaction to `service`. Returns the pid
    /// that serviced the call.
    pub fn transact(&self, service: &str) -> KernelResult<u32> {
        self.services
            .get(service)
            .map(|&(_, pid)| pid)
            .ok_or_else(|| KernelError::NotFound {
                what: format!("binder service {service}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_transact() {
        let mut ctx = BinderContext::new();
        let h = ctx.register_service("activity", 100).unwrap();
        assert_eq!(ctx.lookup("activity"), Some(h));
        assert_eq!(ctx.transact("activity").unwrap(), 100);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut ctx = BinderContext::new();
        ctx.register_service("package", 1).unwrap();
        let err = ctx.register_service("package", 2).unwrap_err();
        assert!(matches!(err, KernelError::AlreadyExists { .. }));
    }

    #[test]
    fn transact_to_missing_service_is_enoent() {
        let ctx = BinderContext::new();
        assert_eq!(
            ctx.transact("window"),
            Err(KernelError::NotFound {
                what: "binder service window".into()
            })
        );
    }

    #[test]
    fn handles_are_unique() {
        let mut ctx = BinderContext::new();
        let h1 = ctx.register_service("s1", 1).unwrap();
        let h2 = ctx.register_service("s2", 1).unwrap();
        assert_ne!(h1, h2);
    }
}
