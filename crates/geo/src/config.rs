//! Multi-region configuration: regions, tiers, the WAN fabric, and
//! the [`Topology`] index arithmetic every geo component shares.

use fleet::config::{AutoscalePolicy, RebalancePolicy};
use hostkernel::HostSpec;
use netsim::NetworkScenario;
use rattrap::{DeviceSpec, PoolPolicy, ResiliencePolicy};
use simkit::SimDuration;
use traces::livelab::TraceConfig;
use virt::RuntimeClass;

/// One tier of a region: an edge PoP or a regional core. A tier is an
/// independent fleet cell — its hosts run as ordinary fleet host
/// shards, fronted per cell by a consistent-hash ring.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// Hosts the tier may ever use.
    pub hosts: usize,
    /// Hosts active from `t = 0` (locally, the first
    /// `initial_active`); the rest are standby capacity.
    pub initial_active: usize,
    /// Hardware of every host in the tier.
    pub spec: HostSpec,
    /// Device ↔ tier access network (the last-mile radio for edge
    /// PoPs, the uplink backhaul for regional cores).
    pub scenario: NetworkScenario,
    /// The tier's credit-damped scaling policy, including the tier's
    /// own standby boot time (`host_boot`): edge PoPs and regional
    /// cores power capacity on at different speeds.
    pub autoscale: AutoscalePolicy,
}

impl TierSpec {
    /// Default edge PoP: two small cells' worth of paper servers, one
    /// active, reached over the IoT-class radio. Boot time is the
    /// fleet default (45 s) — the boot-time regression test pins this
    /// against the fleet golden digest.
    pub fn edge() -> Self {
        TierSpec {
            hosts: 2,
            initial_active: 1,
            spec: HostSpec::paper_server(),
            scenario: NetworkScenario::IotRadio,
            autoscale: AutoscalePolicy::standard(),
        }
    }

    /// Default regional core: bigger pool behind the metro, slower to
    /// boot (90 s — more iron, longer shared-layer publish).
    pub fn core() -> Self {
        let mut autoscale = AutoscalePolicy::standard();
        autoscale.host_boot = SimDuration::from_secs(90);
        TierSpec {
            hosts: 2,
            initial_active: 1,
            spec: HostSpec::paper_server(),
            scenario: NetworkScenario::WanWifi,
            autoscale,
        }
    }
}

/// One geographic region: its device population and its two tiers.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Human-readable name ("us-east", …).
    pub name: String,
    /// Timezone offset in hours relative to region 0 — drives the
    /// sun-following diurnal arrival shift.
    pub tz_offset_h: f64,
    /// Devices homed in this region.
    pub users: u32,
    /// The device profile of this region's population.
    pub device: DeviceSpec,
    /// The edge PoP tier (cell `2r`).
    pub edge: TierSpec,
    /// The regional core tier (cell `2r + 1`).
    pub core: TierSpec,
}

/// The inter-tier WAN fabric: latency and bandwidth per cell pair.
/// Regions sit on a ring; inter-region RTT grows with hop distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanConfig {
    /// Edge ↔ core RTT inside one region (metro fiber).
    pub metro_rtt: SimDuration,
    /// RTT per ring hop between adjacent regions.
    pub hop_rtt: SimDuration,
    /// Metro fabric bandwidth, bytes/s (10 GbE-class).
    pub metro_bps: f64,
    /// Inter-region backbone bandwidth, bytes/s.
    pub inter_bps: f64,
    /// Effective bandwidth of a single request's inter-region WAN
    /// leg, bytes/s. A lone TCP flow at intercontinental RTT is
    /// congestion-window-bound far below the provisioned backbone
    /// rate; `None` (the default) charges the full `inter_bps`.
    /// Bulk transfers over the cell fabrics — migration checkpoints —
    /// always ride the provisioned `inter_bps` regardless: the
    /// control plane stripes them across parallel streams.
    pub flow_bps: Option<f64>,
}

impl WanConfig {
    /// Metro 2 ms / 10 GbE; backbone 40 ms per hop / 1.25 Gbps.
    pub fn standard() -> Self {
        WanConfig {
            metro_rtt: SimDuration::from_millis(2),
            hop_rtt: SimDuration::from_millis(40),
            metro_bps: 1.25e9,
            inter_bps: 1.5625e8,
            flow_bps: None,
        }
    }
}

/// Complete description of one multi-region scenario. Everything
/// observable in the run is a function of this value — same config,
/// same [`crate::GeoReport`], bit for bit.
#[derive(Debug, Clone)]
pub struct GeoConfig {
    /// The regions, ring order. Cell `2r` is region `r`'s edge PoP,
    /// cell `2r + 1` its regional core.
    pub regions: Vec<RegionSpec>,
    /// WAN latency/bandwidth parameters.
    pub wan: WanConfig,
    /// Per-region arrival template. `users` is overridden with each
    /// region's population, the seed with a per-region derived stream,
    /// and the diurnal curve is phase-shifted by the region's
    /// timezone.
    pub traffic: TraceConfig,
    /// Zipf exponent of per-user app popularity (see
    /// [`fleet::FleetConfig::app_skew`]).
    pub app_skew: f64,
    /// Runtime class provisioned for every request.
    pub runtime: RuntimeClass,
    /// Per-host bound on concurrently admitted requests.
    pub admission_capacity: usize,
    /// Per-host instance pool policy.
    pub pool: PoolPolicy,
    /// Cross-cell migration pacing (threshold + minimum spacing);
    /// drives the follow-the-sun rebalancer.
    pub rebalance: RebalancePolicy,
    /// Shed behaviour (fallback-local or abandon).
    pub resilience: ResiliencePolicy,
    /// Per-host App Warehouse capacity, bytes.
    pub warehouse_capacity: u64,
    /// Latency equivalent a warm code cache is worth to the
    /// [`crate::GeoRouter`]: a cell holding a warm container for the
    /// app beats a colder cell up to this much closer.
    pub affinity_bonus: SimDuration,
    /// Window of the LP runner: the latency of one control ↔ host
    /// message (see [`fleet::FleetConfig::sync_window`]).
    pub sync_window: SimDuration,
    /// Optional adversarial-traffic scenario injected on top of the
    /// diurnal base traffic, exactly as in the fleet: arrivals are
    /// injected, cohort radio windows price uploads, and the report
    /// carries `fleet::ScenarioStats`. Synthetic burst users are homed
    /// by folding their id onto the existing population. `None`
    /// (default) leaves the event stream bit-identical to the
    /// pre-scenario engine.
    pub scenario_plan: Option<scenario::ScenarioSpec>,
    /// Ratios the cycle model's compute price is scaled by (see
    /// [`fleet::FleetConfig::calibration`]); edge and core tiers each resolve
    /// it for their own [`exec::HostClass`].
    pub calibration: exec::CalibrationMap,
    /// Master seed; every stream in the run is derived from it.
    pub seed: u64,
}

impl GeoConfig {
    /// A canonical geography of `regions` regions spaced evenly around
    /// the clock (sun-following load), each with default edge and core
    /// tiers, IoT-class devices at the edge, and 32 users.
    pub fn paper_default(regions: usize, seed: u64) -> Self {
        assert!(regions > 0, "a geography needs at least one region");
        let step = 24.0 / regions as f64;
        GeoConfig {
            regions: (0..regions)
                .map(|r| RegionSpec {
                    name: format!("region-{r}"),
                    tz_offset_h: r as f64 * step,
                    users: 32,
                    device: DeviceSpec::iot_class(),
                    edge: TierSpec::edge(),
                    core: TierSpec::core(),
                })
                .collect(),
            wan: WanConfig::standard(),
            traffic: TraceConfig {
                users: 0, // overridden per region
                duration: SimDuration::from_secs(3600),
                sessions_per_hour: 6.0,
                mean_session_len: 22.0,
                intra_gap_s: 5.0,
                seed: 0, // overridden with a derived stream
            },
            app_skew: 1.2,
            runtime: RuntimeClass::CacOptimized,
            admission_capacity: 16,
            pool: PoolPolicy::new(1, 8),
            rebalance: RebalancePolicy::standard(),
            resilience: ResiliencePolicy::standard(),
            warehouse_capacity: 64 * 1024 * 1024,
            affinity_bonus: SimDuration::from_millis(5),
            sync_window: SimDuration::from_millis(1),
            scenario_plan: None,
            calibration: exec::CalibrationMap::identity(),
            seed,
        }
    }

    /// The tier backing `cell`.
    pub fn tier(&self, cell: usize) -> &TierSpec {
        let region = &self.regions[cell / 2];
        if cell.is_multiple_of(2) {
            &region.edge
        } else {
            &region.core
        }
    }

    /// Global control-loop cadence: the fastest scan interval of any
    /// tier, so no cell's autoscaler is starved of observations.
    pub fn scan_interval(&self) -> SimDuration {
        self.regions
            .iter()
            .flat_map(|r| {
                [
                    r.edge.autoscale.scan_interval,
                    r.core.autoscale.scan_interval,
                ]
            })
            .min()
            .expect("at least one region")
    }
}

/// Index arithmetic over the cell/host layout plus the WAN distance
/// functions — the one shared map of where everything is.
///
/// Cells are numbered `2r` (region `r`'s edge PoP) and `2r + 1` (its
/// regional core); global host indices are cell-major and dense.
#[derive(Debug, Clone)]
pub struct Topology {
    host_base: Vec<usize>,
    n_hosts: usize,
    n_regions: usize,
    wan: WanConfig,
}

impl Topology {
    /// Build the map for `cfg`.
    pub fn new(cfg: &GeoConfig) -> Self {
        let mut host_base = Vec::new();
        let mut base = 0;
        for tier in cfg.regions.iter().flat_map(|r| [&r.edge, &r.core]) {
            host_base.push(base);
            base += tier.hosts;
        }
        Topology {
            host_base,
            n_hosts: base,
            n_regions: cfg.regions.len(),
            wan: cfg.wan,
        }
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.n_regions
    }

    /// Number of cells (two per region).
    pub fn n_cells(&self) -> usize {
        self.n_regions * 2
    }

    /// Total hosts across every cell.
    pub fn n_hosts(&self) -> usize {
        self.n_hosts
    }

    /// Region `r`'s edge-PoP cell.
    pub fn edge_cell(&self, region: usize) -> usize {
        region * 2
    }

    /// Region `r`'s regional-core cell.
    pub fn core_cell(&self, region: usize) -> usize {
        region * 2 + 1
    }

    /// The region a cell belongs to.
    pub fn region_of_cell(&self, cell: usize) -> usize {
        cell / 2
    }

    /// Whether `cell` is an edge PoP.
    pub fn is_edge(&self, cell: usize) -> bool {
        cell.is_multiple_of(2)
    }

    /// Global indices of `cell`'s hosts.
    pub fn hosts_in(&self, cell: usize) -> std::ops::Range<usize> {
        let base = self.host_base[cell];
        let end = self
            .host_base
            .get(cell + 1)
            .copied()
            .unwrap_or(self.n_hosts);
        base..end
    }

    /// Ring distance between two regions (shorter way around).
    fn region_hops(&self, a: usize, b: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(self.n_regions - d)
    }

    /// Clockwise ring distance from `from` to `to` — the spillover
    /// order across regions.
    pub fn clockwise_hops(&self, from: usize, to: usize) -> usize {
        (to + self.n_regions - from) % self.n_regions
    }

    /// Host-to-host RTT between two cells over the WAN fabric: metro
    /// inside a region, ring hops × hop RTT across regions.
    pub fn cell_rtt(&self, a: usize, b: usize) -> SimDuration {
        let (ra, rb) = (self.region_of_cell(a), self.region_of_cell(b));
        if ra == rb {
            if a == b {
                SimDuration::ZERO
            } else {
                self.wan.metro_rtt
            }
        } else {
            SimDuration::from_micros(self.wan.hop_rtt.as_micros() * self.region_hops(ra, rb) as u64)
        }
    }

    /// Extra round-trip a device homed in `region` pays to reach
    /// `cell`, beyond its access link: zero for the home edge PoP,
    /// metro for the home core, ring hops (plus metro for a remote
    /// core) across regions.
    pub fn device_rtt(&self, region: usize, cell: usize) -> SimDuration {
        let rc = self.region_of_cell(cell);
        if rc == region {
            if self.is_edge(cell) {
                SimDuration::ZERO
            } else {
                self.wan.metro_rtt
            }
        } else {
            let hops = SimDuration::from_micros(
                self.wan.hop_rtt.as_micros() * self.region_hops(region, rc) as u64,
            );
            if self.is_edge(cell) {
                hops
            } else {
                hops + self.wan.metro_rtt
            }
        }
    }

    /// Bandwidth of the WAN leg a device homed in `region` shares when
    /// served by `cell` (`None` when the home edge serves it — no WAN
    /// leg at all).
    pub fn device_bps(&self, region: usize, cell: usize) -> Option<f64> {
        let rc = self.region_of_cell(cell);
        if rc == region {
            if self.is_edge(cell) {
                None
            } else {
                Some(self.wan.metro_bps)
            }
        } else {
            Some(self.wan.flow_bps.unwrap_or(self.wan.inter_bps))
        }
    }

    /// Bandwidth of the fabric between two cells, bytes/s.
    pub fn cell_bps(&self, a: usize, b: usize) -> f64 {
        if self.region_of_cell(a) == self.region_of_cell(b) {
            self.wan.metro_bps
        } else {
            self.wan.inter_bps
        }
    }

    /// Number of unordered cell pairs (including self-pairs — an
    /// intra-cell migration still crosses the metro fabric).
    pub fn n_pairs(&self) -> usize {
        let n = self.n_cells();
        n * (n + 1) / 2
    }

    /// Dense index of the unordered cell pair `{a, b}`.
    pub fn pair_index(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        // Triangular layout: row `lo` holds pairs (lo, lo..n) and
        // starts after the ∑_{i<lo} (n − i) pairs of earlier rows.
        let n = self.n_cells();
        lo * (2 * n - lo + 1) / 2 + (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_indices_are_dense_and_consistent() {
        let cfg = GeoConfig::paper_default(3, 7);
        let topo = Topology::new(&cfg);
        assert_eq!(topo.n_regions(), 3);
        assert_eq!(topo.n_cells(), 6);
        assert_eq!(topo.n_hosts(), 12);
        let mut seen = 0;
        for cell in 0..topo.n_cells() {
            for g in topo.hosts_in(cell) {
                assert_eq!(g, seen);
                seen += 1;
            }
        }
        assert_eq!(seen, topo.n_hosts());
        assert_eq!(topo.edge_cell(1), 2);
        assert_eq!(topo.core_cell(1), 3);
        assert!(topo.is_edge(2) && !topo.is_edge(3));
    }

    #[test]
    fn wan_distances_grow_with_ring_hops() {
        let cfg = GeoConfig::paper_default(3, 7);
        let topo = Topology::new(&cfg);
        // Home edge is free; home core costs metro; remote costs hops.
        assert_eq!(topo.device_rtt(0, 0), SimDuration::ZERO);
        assert_eq!(topo.device_rtt(0, 1), cfg.wan.metro_rtt);
        assert_eq!(topo.device_rtt(0, 2), cfg.wan.hop_rtt);
        assert_eq!(topo.device_rtt(0, 3), cfg.wan.hop_rtt + cfg.wan.metro_rtt);
        // Ring wraps: region 0 → region 2 is one hop the short way.
        assert_eq!(topo.region_hops(0, 2), 1);
        assert!(topo.device_bps(0, 0).is_none());
        assert_eq!(topo.device_bps(0, 1), Some(cfg.wan.metro_bps));
        assert_eq!(topo.device_bps(0, 4), Some(cfg.wan.inter_bps));
        assert!(topo.cell_bps(0, 1) > topo.cell_bps(0, 2));
    }

    #[test]
    fn flow_bps_throttles_request_legs_but_not_the_fabric() {
        let mut cfg = GeoConfig::paper_default(3, 7);
        cfg.wan.flow_bps = Some(1.0e5);
        let topo = Topology::new(&cfg);
        // A remote request's WAN leg is a single congestion-bound
        // flow; a migration checkpoint stripes the full backbone.
        assert_eq!(topo.device_bps(0, 4), Some(1.0e5));
        assert_eq!(topo.device_bps(0, 1), Some(cfg.wan.metro_bps));
        assert_eq!(topo.cell_bps(0, 2), cfg.wan.inter_bps);
    }

    #[test]
    fn pair_indices_cover_the_triangle_exactly_once() {
        let cfg = GeoConfig::paper_default(3, 7);
        let topo = Topology::new(&cfg);
        let n = topo.n_cells();
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..n {
            for b in a..n {
                let p = topo.pair_index(a, b);
                assert!(p < topo.n_pairs(), "pair ({a},{b}) → {p} out of range");
                assert!(seen.insert(p), "pair ({a},{b}) collided at {p}");
                assert_eq!(p, topo.pair_index(b, a), "unordered");
            }
        }
        assert_eq!(seen.len(), topo.n_pairs());
    }
}
