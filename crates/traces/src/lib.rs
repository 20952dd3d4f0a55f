//! # traces — LiveLab-style trace generation and replay (Fig. 11)
//!
//! The §VI-E experiment replays real-world app-access traces (LiveLab)
//! as offloading-request start times. [`livelab`] generates synthetic
//! traces with the session/burst/diurnal structure the experiment
//! depends on; [`replay`] runs one trace against all three platforms
//! and produces the speedup CDFs and offloading-failure rates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod livelab;
pub mod replay;

pub use livelab::{generate, stats, TraceConfig, TraceStats, DIURNAL};
pub use replay::{replay_scenario, run_trace_experiment, PlatformTraceResult};
