//! # obsv — deterministic observability plane
//!
//! Simulation-time tracing and metrics for the Rattrap reproduction:
//! a span model clocked on the *simulated* microsecond grid
//! ([`span`]), a bounded ring-buffer [`Recorder`] with per-subsystem
//! sampling controls ([`recorder`]), a typed metrics registry
//! (counters / gauges / sim-time histograms, [`metrics`]), and
//! exporters — Chrome trace-event JSON for `chrome://tracing` /
//! Perfetto and a plain-text causal timeline for a single request
//! ([`export`]). A minimal JSON
//! reader ([`json`]) round-trips the Chrome export without external
//! dependencies.
//!
//! ## Determinism contract
//!
//! * Timestamps are the simulation clock (`u64` microseconds) — no
//!   wall clock anywhere in this crate.
//! * Event order in the ring is emission order; all aggregate state
//!   (metrics) lives in `BTreeMap`s, so exports
//!   are byte-stable across runs of the same seed.
//! * Sampling is a deterministic per-subsystem 1-in-N counter, never
//!   a random draw.
//! * Recording is strictly *observational*: a [`Recorder`] never
//!   feeds back into simulation state, so an instrumented run must
//!   reproduce the exact digests of an uninstrumented one (enforced
//!   by the golden-determinism suite in `rattrap`).
//! * [`Recorder::disabled`] carries no allocation and every method on
//!   it reduces to a `None` check — hot paths pay one branch.
//!
//! This crate sits *below* `simkit` in the dependency order (it
//! depends on nothing), so every layer — executor, link, kernel,
//! virt, engine — can report into the same plane.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, SimHistogram};
pub use recorder::{Recorder, RecorderConfig, TraceSnapshot};
pub use span::{AttrValue, Attrs, AttrsIter, SpanId, Subsystem, TraceEvent};
