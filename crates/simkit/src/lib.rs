//! # simkit — deterministic discrete-event simulation toolkit
//!
//! The substrate under the Rattrap reproduction: a microsecond-resolution
//! simulated clock ([`time`]), a deterministic event queue ([`event`]),
//! fair-share resource models for CPUs / disks / links ([`resource`]),
//! a generic epoch-validated execution engine driving those resources
//! from an event loop ([`executor`]),
//! seeded randomness with the distributions the experiments need
//! ([`random`]), a deterministic fault-injection plan ([`faults`]),
//! the FNV-1a hasher behind every pinned digest ([`hash`]),
//! a windowed runner for simulations split into message-passing
//! logical processes, one event queue each ([`shard`]),
//! online statistics and empirical CDFs ([`stats`]),
//! one-second timeline sampling for server-load figures ([`sampler`]),
//! id-ordered tables for a host's live instances ([`table`]),
//! and the unit conventions shared by every crate ([`units`]).
//!
//! Design rules:
//! * No wall-clock time anywhere — simulations are pure functions of
//!   their inputs and a `u64` seed.
//! * Ties in the event queue break by scheduling order, and resource
//!   completion ties break by job id, so runs are bit-reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod executor;
pub mod faults;
pub mod hash;
pub mod random;
pub mod resource;
pub mod sampler;
pub mod shard;
pub mod stats;
pub mod table;
pub mod time;
pub mod units;

pub use event::{EventId, EventQueue};
pub use executor::{FairShareExecutor, WORK_EPS};
pub use faults::{
    link_available_at, transfer_outcome, FaultConfig, FaultEvent, FaultKind, FaultPlan, LinkWindow,
    StragglerWindow, TransferOutcome,
};
pub use hash::Fnv1a;
pub use random::{derive_seed, SimRng};
pub use resource::{FairShareResource, JobId, MemoryPool};
pub use sampler::TimelineSampler;
pub use shard::{run_sharded, Envelope, Lp, Outbox, ShardMode};
pub use stats::{Cdf, OnlineStats};
pub use table::IdTable;
pub use time::{SimDuration, SimTime};
