//! `fleet` — the deterministic multi-host control plane.
//!
//! One rattrap host (PRs 1–3) serves one server's worth of offloading
//! traffic; this crate runs N of them as a cluster under a single
//! event engine, adding the four control-plane mechanisms a real
//! Rattrap deployment would need in front of its hosts:
//!
//! * **Routing** ([`Router`]) — a consistent-hash ring over AIDs with
//!   code-cache-affinity: requests prefer a host whose App Warehouse
//!   already holds a warm container for the app (the CID hints of
//!   Fig. 8), fall back to their hash home, and spill clockwise when
//!   hosts refuse admission.
//! * **Admission control** ([`AdmissionCtl`]) — bounded per-host
//!   queues with backpressure; a saturated fleet sheds requests to
//!   PR 2's resilience policy (fallback-local or abandon).
//! * **Autoscaling** ([`Autoscaler`]) — a per-host EWMA of admitted
//!   requests under credit-damped scale decisions: sustained
//!   saturation powers standby hosts on, sustained slack drains the
//!   coldest host.
//! * **Rebalancing** ([`Rebalancer`]) — when the hot/cold gap exceeds
//!   the policy threshold, one warm container is checkpoint-migrated
//!   (`virt::migrate`) hot → cold, its state charged through a shared
//!   interconnect fabric.
//!
//! The whole thing is seeded-deterministic (same [`FleetConfig`] ⇒
//! bit-identical [`FleetReport`]), fault-aware (a crash kills a whole
//! host's instances and re-routes its stranded requests), and
//! instrumented with `obsv` spans under [`obsv::Subsystem::Fleet`].
//!
//! The control plane itself ([`control`]) is layout-driven and shared:
//! [`run_fleet`] hands it the flat one-cell layout, and the `geo`
//! crate hands it a multi-region one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod autoscaler;
pub mod config;
pub mod control;
pub mod engine;
pub mod rebalance;
pub mod report;
pub mod router;
pub mod serve;

pub use admission::AdmissionCtl;
pub use autoscaler::{Autoscaler, FleetAction};
pub use config::{AutoscalePolicy, FleetConfig, RebalancePolicy};
pub use engine::{run_fleet, run_fleet_traced};
pub use rebalance::{RebalanceMove, Rebalancer};
pub use report::{
    ControlStats, FleetReport, FleetRequestRecord, FleetSummary, HostReport, MigrationRecord,
    ScenarioStats, TenantStats,
};
pub use router::{RouteDecision, RouteReason, Router};
pub use serve::FleetHandler;
