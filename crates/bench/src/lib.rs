//! # rattrap-bench — experiment harnesses regenerating every table and
//! figure of the paper's evaluation
//!
//! One module per experiment under [`experiments`]; `exp_*` binaries
//! print each experiment, `exp_all` runs the whole evaluation. Every
//! one of them exits non-zero when its scorecard misses a row
//! ([`experiments::exit_code`]), so the scorecards are the repo's
//! measurement gate; wall-clock performance is measured by the
//! stand-alone `benchmark/` workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod meta;
pub mod traceplane;

pub use experiments::{ExperimentOutput, DEFAULT_SEED};
pub use meta::RunMeta;
