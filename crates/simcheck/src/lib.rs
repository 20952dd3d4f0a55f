//! simcheck — a deterministic model-checking harness for the whole
//! simulation stack.
//!
//! Three pillars, mirroring how a model checker earns trust:
//!
//! 1. **Invariant auditor** ([`invariants`], [`audit`]) — ~a dozen
//!    named cross-layer invariants checked live (a [`rattrap::PhaseObserver`]
//!    watching every lifecycle transition) and post-run (report,
//!    fleet, and trace auditors), plus component-model audits
//!    ([`models`]) that drive the shared link, the kernel's module
//!    gate, the App Warehouse, and the event queue against independent
//!    reference models.
//! 2. **Explorer** ([`explorer`], the `simcheck_explore` binary) —
//!    swarm testing over derived seeds × fault-plan intensities ×
//!    config mutations, with metamorphic oracles: a fault intensity of
//!    zero must reproduce the pinned golden digests, tracing must not
//!    perturb a run, and parallel replications must be bit-identical
//!    to serial ones.
//! 3. **Minimizer** ([`mod@minimize`], [`repro`]) — greedy bounded delta
//!    debugging over a failing sample's integer knobs, accepting a
//!    shrink only when the *same* invariant still fires, then writing
//!    a replayable repro bundle (config JSON, Chrome trace, causal
//!    request timeline) under `results/repros/`.
//!
//! Everything is deterministic: the same `--seed`/`--budget` produces
//! the same samples, the same violations, and the same report digest —
//! that property is itself pinned by `tests/explorer_determinism.rs`.

pub mod audit;
pub mod explorer;
pub mod harness;
pub mod invariants;
pub mod minimize;
pub mod models;
pub mod repro;
pub mod sample;

pub use audit::{Audit, Violation};
pub use explorer::{explore, ExplorerConfig, ExplorerReport, FailedSample};
pub use harness::{run_model_audits, run_sample, RunOutcome};
pub use invariants::{
    audit_digest_stability, audit_fleet_report, audit_simulation_report, audit_trace,
    LifecycleAuditor, CATALOGUE,
};
pub use minimize::{minimize, Minimized};
pub use repro::{replay, write_bundle};
pub use sample::{Sample, SampleKind};
