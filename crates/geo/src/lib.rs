//! Multi-region edge hierarchy for the offloading fleet.
//!
//! `geo` grows the single flat [`fleet`] cluster into a topology of
//! regions arranged on a ring. Each region carries two tiers: an
//! **edge PoP** (close to devices, IoT-class radio, fast-booting
//! hosts) and a **regional core** (behind a metro link, bigger boot
//! budget, standby capacity that edge PoPs can borrow — cloud
//! burst). Every tier is an independent fleet cell whose hosts run as
//! logical processes under the same windowed LP runner the fleet
//! uses, speaking the fleet's own wire protocol to
//! the fleet's own control plane (`fleet::control`), which this crate
//! drives with a multi-region cell layout.
//!
//! On top of the cells sit the geo-wide mechanisms:
//!
//! - a latency-aware [`GeoRouter`] that weighs device→cell RTT
//!   against code-cache warmth and spills clockwise around the region
//!   ring when a geography saturates,
//! - per-pair WAN fabrics (shared, bandwidth-limited links) that
//!   carry cross-region container migrations end to end with byte
//!   conservation checked at three points,
//! - a follow-the-sun rebalancer that ships warm containers from the
//!   busiest edge toward the idlest one as the diurnal peak moves,
//! - cloud-burst scaling: a saturated edge PoP with no standby of its
//!   own powers on a host in its region's core.
//!
//! Determinism is contractual: two runs of the same [`GeoConfig`]
//! produce bit-identical [`GeoReport`] digests, and the
//! tier knobs default to the fleet's own so the fleet golden digest
//! pins them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod report;
pub mod router;

pub use config::{GeoConfig, RegionSpec, TierSpec, Topology, WanConfig};
pub use engine::{run_geo, run_geo_traced};
pub use report::{GeoRegionSummary, GeoReport};
pub use router::{GeoDecision, GeoRouter};
