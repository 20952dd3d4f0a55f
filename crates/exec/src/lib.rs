//! `exec` — real kernel execution, and the calibration that prices
//! simulated compute.
//!
//! The discrete-event engines (rattrap's `Simulation`, the `fleet`
//! host shards, and through them every `geo` cell) price every
//! offloaded request's compute phase from a *calibrated cycle
//! profile* ([`workloads::WorkloadProfile`]) times a ratio from a
//! [`CalibrationMap`] carried on their config. Each engine resolves the
//! map once per [`HostClass`] into a [`CalibrationTable`]; the identity
//! map (the default) prices exactly as the bare cycle model, which is
//! what every golden digest pins.
//!
//! The four workload kernels (OCR, chess, VirusScan, Linpack) are
//! genuinely executable Rust. [`RealBackend`] runs them on a bounded
//! worker pool; [`measure_drift`] compares their wall times with the
//! cycle model, and [`calibration_from_rows`] turns that comparison
//! into a map — the committed one is [`CalibrationMap::committed`].
//!
//! On top of the executor sits a thin offload API server
//! ([`serve::serve`]): a client submits `{kind, size, seed}` as one
//! line of JSON over TCP, a pluggable [`serve::OffloadHandler`]
//! routes/admits/executes it (the `fleet` crate provides the
//! control-plane-backed handler), and the response carries the output
//! checksum plus a queue/execute timing breakdown — the
//! ship-code/run-remote/copy-back loop of the paper's platform, served
//! for real. Kernel *outputs* are deterministic and pinned by
//! `tests/kernel_goldens.rs`; wall times are not.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drift;
pub mod real;
pub mod replay;
pub mod serve;
pub mod workset;

pub use drift::{calibration_from_rows, measure_drift, DriftConfig, DriftRow};
pub use real::RealBackend;
pub use replay::{CalEntry, CalibrationMap, CalibrationTable, HostClass};
pub use workset::{execute_kernel, kind_from_label, KernelOutput, SizeClass};
