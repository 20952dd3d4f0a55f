//! Request-based Access Controller (§IV-E).
//!
//! Containers are a lighter isolation mechanism than VMs, and Rattrap's
//! shared architecture (Shared Resource Layer, App Warehouse) widens
//! the blast radius of a malicious app. The controller compensates: it
//! analyzes each app's first request into a per-app permission table
//! (analysis happens once per app; requests from the same app share the
//! table), filters every workflow leaving a Cloud Android Container,
//! records violations, and blocks the app once violations reach a
//! threshold.

use std::collections::{BTreeMap, BTreeSet};

/// An action an offloaded workflow attempts, as seen by the filter.
/// Names are borrowed: the filter runs three times per request and
/// builds nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action<'a> {
    /// Write `bytes` to the offloading filesystem.
    FsWrite {
        /// Bytes written.
        bytes: u64,
    },
    /// Call a binder service by name.
    BinderCall {
        /// Target service.
        service: &'a str,
    },
    /// Open an outbound network connection.
    NetConnect {
        /// Destination description.
        dest: &'a str,
    },
    /// Fork a new process inside the container.
    SpawnProcess,
    /// Read another app's cached code from the warehouse.
    WarehouseRead {
        /// AID being read.
        aid: &'a str,
    },
}

/// Per-app permissions, generated from the app's offloading profile.
#[derive(Debug, Clone, PartialEq)]
pub struct PermissionTable {
    /// May write migrated files (and up to how many bytes per request).
    pub fs_write_limit: u64,
    /// Binder services the app may call.
    pub allowed_services: BTreeSet<String>,
    /// May open outbound connections (back to the client only).
    pub allow_network: bool,
    /// May fork helper processes.
    pub allow_spawn: bool,
}

impl PermissionTable {
    /// The default analysis result for an offloading workload: it may
    /// use the offloading services and write files up to a generous
    /// multiple of its declared payload, but not roam the platform.
    fn for_profile(expected_payload: u64) -> Self {
        let mut allowed = BTreeSet::new();
        for s in ["activity", "package", "offloadcontroller"] {
            allowed.insert(s.to_string());
        }
        PermissionTable {
            fs_write_limit: expected_payload.saturating_mul(4).max(64 * 1024),
            allowed_services: allowed,
            allow_network: true,
            allow_spawn: true,
        }
    }
}

/// Why a request was denied.
#[derive(Debug, Clone, PartialEq)]
pub enum Denial {
    /// Action violated the permission table (counted toward blocking).
    Violation {
        /// Human-readable description.
        what: String,
    },
    /// App is blocked outright.
    Blocked,
}

/// The controller.
#[derive(Debug)]
pub struct AccessController {
    tables: BTreeMap<String, PermissionTable>,
    violations: BTreeMap<String, u32>,
    blocked: BTreeSet<String>,
    threshold: u32,
    checks: u64,
}

impl AccessController {
    /// A controller blocking apps after `threshold` violations.
    pub fn new(threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        AccessController {
            tables: BTreeMap::new(),
            violations: BTreeMap::new(),
            blocked: BTreeSet::new(),
            threshold,
            checks: 0,
        }
    }

    /// Analyze an app on its first request ("the analysis happens only
    /// once for each mobile app"). Returns whether analysis ran.
    pub fn admit(&mut self, app_id: &str, expected_payload: u64) -> bool {
        if self.tables.contains_key(app_id) {
            return false;
        }
        self.tables.insert(
            app_id.to_string(),
            PermissionTable::for_profile(expected_payload),
        );
        true
    }

    /// Filter one action of `app_id`'s workflow.
    pub fn check(&mut self, app_id: &str, action: &Action<'_>) -> Result<(), Denial> {
        self.checks += 1;
        if self.blocked.contains(app_id) {
            return Err(Denial::Blocked);
        }
        let table = match self.tables.get(app_id) {
            Some(t) => t,
            None => {
                // Unanalyzed app: treat as a violation of protocol.
                return self.record_violation(app_id, "request before analysis".into());
            }
        };
        let ok = match action {
            Action::FsWrite { bytes } => *bytes <= table.fs_write_limit,
            Action::BinderCall { service } => table.allowed_services.contains(*service),
            Action::NetConnect { .. } => table.allow_network,
            Action::SpawnProcess => table.allow_spawn,
            // Reading someone else's cached code is never allowed.
            Action::WarehouseRead { .. } => false,
        };
        if ok {
            Ok(())
        } else {
            self.record_violation(app_id, format!("{action:?}"))
        }
    }

    fn record_violation(&mut self, app_id: &str, what: String) -> Result<(), Denial> {
        let v = self.violations.entry(app_id.to_string()).or_insert(0);
        *v += 1;
        if *v >= self.threshold {
            self.blocked.insert(app_id.to_string());
        }
        Err(Denial::Violation { what })
    }

    /// Is the app blocked?
    pub fn is_blocked(&self, app_id: &str) -> bool {
        self.blocked.contains(app_id)
    }

    /// Violations recorded for an app.
    pub fn violation_count(&self, app_id: &str) -> u32 {
        self.violations.get(app_id).copied().unwrap_or(0)
    }

    /// Total filter checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of analyzed apps.
    pub fn analyzed_apps(&self) -> usize {
        self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> AccessController {
        AccessController::new(3)
    }

    #[test]
    fn analysis_happens_once_per_app() {
        let mut c = controller();
        assert!(c.admit("com.bench.ocr", 280 * 1024));
        assert!(
            !c.admit("com.bench.ocr", 280 * 1024),
            "second admit is a no-op"
        );
        assert_eq!(c.analyzed_apps(), 1);
    }

    #[test]
    fn normal_offloading_workflow_passes() {
        let mut c = controller();
        c.admit("app", 100 * 1024);
        assert!(c
            .check("app", &Action::FsWrite { bytes: 50 * 1024 })
            .is_ok());
        assert!(c
            .check(
                "app",
                &Action::BinderCall {
                    service: "activity"
                }
            )
            .is_ok());
        assert!(c
            .check("app", &Action::NetConnect { dest: "client" })
            .is_ok());
        assert!(c.check("app", &Action::SpawnProcess).is_ok());
        assert_eq!(c.violation_count("app"), 0);
    }

    #[test]
    fn violations_accumulate_to_a_block() {
        let mut c = controller();
        c.admit("mal", 1024);
        for i in 0..3 {
            assert!(!c.is_blocked("mal"), "not blocked before threshold (i={i})");
            let r = c.check(
                "mal",
                &Action::BinderCall {
                    service: "telephony",
                },
            );
            assert!(matches!(r, Err(Denial::Violation { .. })));
        }
        assert!(c.is_blocked("mal"));
        // Once blocked, even legitimate actions are denied.
        let r = c.check("mal", &Action::FsWrite { bytes: 10 });
        assert_eq!(r, Err(Denial::Blocked));
    }

    #[test]
    fn oversized_write_is_a_violation() {
        let mut c = controller();
        c.admit("app", 1024);
        let r = c.check(
            "app",
            &Action::FsWrite {
                bytes: 100 * 1024 * 1024,
            },
        );
        assert!(matches!(r, Err(Denial::Violation { .. })));
        assert_eq!(c.violation_count("app"), 1);
    }

    #[test]
    fn warehouse_cross_reads_always_denied() {
        let mut c = controller();
        c.admit("spy", 1024);
        let r = c.check("spy", &Action::WarehouseRead { aid: "8d6d1b5" });
        assert!(matches!(r, Err(Denial::Violation { .. })));
    }

    #[test]
    fn unanalyzed_app_is_violation() {
        let mut c = controller();
        let r = c.check("ghost", &Action::SpawnProcess);
        assert!(matches!(r, Err(Denial::Violation { .. })));
    }

    #[test]
    fn violations_do_not_leak_across_apps() {
        let mut c = controller();
        c.admit("good", 1024);
        c.admit("bad", 1024);
        for _ in 0..3 {
            let _ = c.check("bad", &Action::WarehouseRead { aid: "x" });
        }
        assert!(c.is_blocked("bad"));
        assert!(!c.is_blocked("good"));
        assert!(c.check("good", &Action::SpawnProcess).is_ok());
    }
}
