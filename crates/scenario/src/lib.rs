//! The scenario plane: declarative, seeded adversarial-traffic
//! scripts compiled into the engines (ROADMAP Open item 3).
//!
//! A [`ScenarioSpec`] is a list of [`PhaseSpec`]s over sim-time plus a
//! multi-tenant population map. Compilation is a pure function of
//! `(spec, base_users, seed)`: the [`ScenarioDriver`] materializes a
//! sorted arrival script, per-cohort radio windows (reusing the fault
//! plane's [`simkit::faults::LinkWindow`] algebra so outage pricing
//! composes with PR 2's FaultPlan), and a user → tenant map. The
//! engines then inject the script through their ordinary event queues
//! — injected arrivals are just more `Arrive` events, so the windowed
//! LP engine replays every scenario bit for bit from its seed by
//! construction.
//!
//! Four scenario families ship ([`ScenarioFamily`]):
//!
//! - **Flash crowd** — a Poisson burst cohort ramps a region's users
//!   10–50× over seconds ([`ScenarioSpec::flash_crowd`]).
//! - **Correlated failure** — a regional radio outage cuts a device
//!   cohort's uplink; at restore every deferred upload re-offloads at
//!   once (thundering herd), composable with a host-crash FaultPlan
//!   ([`ScenarioSpec::correlated_failure`]).
//! - **Noisy neighbor** — heavy Linpack/VirusScan tenants share hosts
//!   with latency-sensitive ChessGame/OCR tenants; per-tenant metrics
//!   split out of the request records ([`ScenarioSpec::noisy_neighbor`]).
//! - **Interaction storm** — hundreds of emulated Android containers
//!   per host replay scripted touch/offload event scripts, cyber-range
//!   style; non-offload touches are device-local and counted
//!   *suppressed* ([`ScenarioSpec::interaction_storm`]).
//!
//! Determinism contract: every draw comes from a stream derived as
//! `derive_seed(scenario_seed, phase) → derive_seed(·, user)`, so a
//! phase's script is independent of every other phase and of the
//! engine's own streams, and compilation order can never leak into
//! results.

mod compile;
mod driver;
mod spec;

pub use compile::{CompiledScenario, InjectedArrival, RadioWindow};
pub use driver::ScenarioDriver;
pub use spec::{PhaseAction, PhaseSpec, ScenarioFamily, ScenarioSpec, TenantSpec};
