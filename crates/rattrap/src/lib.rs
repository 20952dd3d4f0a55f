//! # rattrap — the container-based mobile-offloading cloud platform
//!
//! The paper's contribution (§IV), implemented over the substrate
//! crates: Cloud Android Containers on a dynamically extended host
//! kernel (`hostkernel` + `virt`), the Shared Resource Layer and
//! Sharing Offloading I/O (`containerfs`), and the platform control
//! plane implemented here:
//!
//! * [`warehouse`] — App Warehouse + mobile code cache (AID/CID cache
//!   table, Fig. 8).
//! * [`access`] — Request-based Access Controller (§IV-E).
//! * [`dispatcher`] — Dispatcher + Container DB with CID cache affinity;
//!   the DB's record is the engine's only per-instance row.
//! * [`decision`] — the client-side MAUI-style offloading decision
//!   engine (latency/energy prediction over the scenario's nominal link).
//! * [`platform`] — the three platform configurations of §VI-A
//!   (Rattrap, Rattrap(W/O), VM baseline) and the ablation knobs.
//! * [`scheduler`] — Monitor & Scheduler: the one warm-pool and idle
//!   reclamation rule every engine's hosts follow.
//! * [`request`] — the §III-B phase decomposition per request.
//! * [`resilience`] — per-phase timeouts, retry budgets with bounded
//!   backoff, and graceful degradation to on-device execution.
//! * [`simulation`] — the end-to-end discrete-event simulation every
//!   figure and table is generated from.
//! * [`config`] — calibration constants and the paper's published
//!   numbers for shape checks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod config;
pub mod decision;
pub mod dispatcher;
pub mod lifecycle;
pub mod metrics;
pub mod platform;
pub mod request;
pub mod resilience;
pub mod scheduler;
pub mod simulation;
pub mod warehouse;

pub use access::{AccessController, Action, Denial, PermissionTable};
pub use config::DeviceSpec;
pub use decision::{DecisionReport, Objective, OffloadDecider};
pub use dispatcher::{ContainerDb, DispatchPolicy, Dispatcher, Placement};
pub use lifecycle::{Phase, PhaseObserver, RequestLifecycle};
pub use metrics::{FaultStats, ReportHasher};
pub use platform::{PlatformConfig, PlatformKind};
pub use request::{PhaseBreakdown, RequestRecord};
pub use resilience::ResiliencePolicy;
pub use scheduler::PoolPolicy;
pub use simulation::{run_scenario, ArrivalModel, ScenarioConfig, Simulation, SimulationReport};
pub use warehouse::{aid_of, Aid, AppWarehouse, WarehouseStats};
