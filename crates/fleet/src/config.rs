//! Fleet-level configuration: which hosts exist, how traffic arrives,
//! and the policies governing admission, autoscaling, and rebalancing.

use hostkernel::HostSpec;
use netsim::NetworkScenario;
use rattrap::{DeviceSpec, PoolPolicy, ResiliencePolicy};
use simkit::faults::FaultConfig;
use simkit::SimDuration;
use traces::livelab::TraceConfig;
use virt::RuntimeClass;

/// Fleet autoscaling policy: when to bring standby hosts up and when
/// to drain active ones. The signal is the autoscaler's per-host EWMA
/// of admitted requests, compared against watermarks expressed as a
/// fraction of each host's service slots.
///
/// Decisions are damped by a credit counter (the EDGELESS idea):
/// sustained pressure earns credits, one scale action spends them —
/// a single bursty scan can never flap the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalePolicy {
    /// Master switch. Disabled means a static fleet: every configured
    /// host is active from t = 0 and none is ever drained.
    pub enabled: bool,
    /// Mean busy-fraction above which the fleet is saturated.
    pub high_watermark: f64,
    /// Mean busy-fraction below which the fleet has slack to drain.
    pub low_watermark: f64,
    /// Credits of sustained pressure required before acting.
    pub credits_to_scale: u32,
    /// Control-loop cadence.
    pub scan_interval: SimDuration,
    /// Time for a standby host to become routable (power-on + kernel +
    /// Android Container Driver + shared-layer publish).
    pub host_boot: SimDuration,
    /// EWMA smoothing factor for the per-host load signal.
    pub alpha: f64,
}

impl AutoscalePolicy {
    /// A static fleet: no scaling, scan loop still runs (it also
    /// drives warm pools, idle reclamation, and rebalancing).
    pub fn static_fleet() -> Self {
        AutoscalePolicy {
            enabled: false,
            ..AutoscalePolicy::standard()
        }
    }

    /// The default elastic policy.
    pub fn standard() -> Self {
        AutoscalePolicy {
            enabled: true,
            high_watermark: 0.80,
            low_watermark: 0.25,
            credits_to_scale: 3,
            scan_interval: SimDuration::from_secs(10),
            host_boot: SimDuration::from_secs(45),
            alpha: 0.3,
        }
    }
}

/// Migration-based rebalancing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalancePolicy {
    /// Master switch.
    pub enabled: bool,
    /// Busy-fraction gap between the hottest and coldest active host
    /// that triggers a migration.
    pub imbalance_threshold: f64,
    /// Minimum spacing between migrations (the fabric is shared, and
    /// a thrashing rebalancer is worse than none).
    pub min_interval: SimDuration,
}

impl RebalancePolicy {
    /// Rebalancing off.
    pub fn disabled() -> Self {
        RebalancePolicy {
            enabled: false,
            imbalance_threshold: 0.5,
            min_interval: SimDuration::from_secs(30),
        }
    }

    /// The default: migrate when hot − cold busy-fraction exceeds 0.5,
    /// at most one move per 30 s.
    pub fn standard() -> Self {
        RebalancePolicy {
            enabled: true,
            ..RebalancePolicy::disabled()
        }
    }
}

/// Complete description of one fleet scenario. Everything observable
/// in the run is a function of this value — same config, same report,
/// bit for bit.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Hardware of every host the fleet may ever use, index-stable.
    /// Heterogeneous specs are allowed; placement and watermarks use
    /// each host's own memory and core count.
    pub host_specs: Vec<HostSpec>,
    /// Hosts `0..initial_active` start routable; the rest are standby
    /// capacity only the autoscaler can bring up.
    pub initial_active: usize,
    /// Device ↔ cloud access network.
    pub scenario: NetworkScenario,
    /// Host ↔ host fabric bandwidth, bytes/s (migration traffic).
    pub interconnect_bps: f64,
    /// Arrival process (LiveLab-shaped; the seed field is overridden
    /// with a stream derived from [`FleetConfig::seed`]).
    pub traffic: TraceConfig,
    /// Zipf exponent of per-user app popularity: 0 = uniform over the
    /// four benchmark apps, larger = more skewed toward OCR. Skew is
    /// what makes code-cache affinity routing pay.
    pub app_skew: f64,
    /// Runtime class provisioned for every request.
    pub runtime: RuntimeClass,
    /// Per-host bound on concurrently admitted requests (queued +
    /// being served). Beyond it the router spills, then sheds.
    pub admission_capacity: usize,
    /// Per-host instance pool policy (warm spares, max instances,
    /// idle reclamation) — `rattrap`'s `PoolPolicy` applied per host.
    pub pool: PoolPolicy,
    /// Fleet scaling policy.
    pub autoscale: AutoscalePolicy,
    /// Migration-based rebalancing policy.
    pub rebalance: RebalancePolicy,
    /// Retry/backoff/fallback behaviour when a host crash strands a
    /// request (PR 2's policy, reused verbatim).
    pub resilience: ResiliencePolicy,
    /// Fault injection; only crash events are interpreted (each one
    /// takes down a whole host).
    pub faults: FaultConfig,
    /// Time for a crashed host to reboot and rejoin (empty).
    pub crash_reboot: SimDuration,
    /// Per-host App Warehouse capacity, bytes.
    pub warehouse_capacity: u64,
    /// The handset model used for shed-to-local fallback execution.
    pub device: DeviceSpec,
    /// Window of the LP runner, and a model constant: the latency of
    /// one control ↔ host message (control-plane hop or fabric
    /// transfer start). Events inside one window never leave their
    /// host shard; everything cross-shard is exchanged at window
    /// boundaries and arrives exactly one window after it was sent,
    /// so changing it changes every digest.
    pub sync_window: SimDuration,
    /// Optional adversarial-traffic scenario (flash crowds, correlated
    /// radio outages, tenant mixes, interaction storms) compiled onto
    /// the base traffic at seed time. `None` — the default — leaves
    /// the engine's event stream bit-identical to the pre-scenario
    /// engine, which is what keeps the pinned golden digests valid.
    pub scenario_plan: Option<scenario::ScenarioSpec>,
    /// Ratios the cycle model's compute price is scaled by, resolved
    /// per host class. The default identity map prices exactly as the
    /// bare cycle model, which the golden digests pin.
    pub calibration: exec::CalibrationMap,
    /// Master seed; every stream in the run is derived from it.
    pub seed: u64,
}

impl FleetConfig {
    /// A canonical fleet of `hosts` paper servers, all active, static
    /// scaling, standard rebalancing, standard resilience, no faults.
    pub fn paper_default(hosts: usize, seed: u64) -> Self {
        assert!(hosts > 0, "a fleet needs at least one host");
        FleetConfig {
            host_specs: vec![HostSpec::paper_server(); hosts],
            initial_active: hosts,
            scenario: NetworkScenario::LanWifi,
            interconnect_bps: 1.25e9, // 10 GbE fabric
            traffic: TraceConfig {
                users: 96,
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
            autoscale: AutoscalePolicy::static_fleet(),
            rebalance: RebalancePolicy::standard(),
            resilience: ResiliencePolicy::standard(),
            faults: FaultConfig::none(),
            crash_reboot: SimDuration::from_secs(90),
            warehouse_capacity: 64 * 1024 * 1024,
            device: DeviceSpec::default_handset(),
            // 1 ms: the floor of a control-plane RPC on the 10 GbE
            // fabric (propagation + kernel + scheduler jitter), well
            // under every modelled service time (container setup is
            // 150 ms+), so windowing adds no observable latency.
            sync_window: SimDuration::from_millis(1),
            scenario_plan: None,
            calibration: exec::CalibrationMap::identity(),
            seed,
        }
    }
}

/// What one host shard reads of its cell: every host of a cell runs
/// under the same one, beside its own [`HostSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Runtime class provisioned for every request.
    pub runtime: RuntimeClass,
    /// The host's instance pool policy.
    pub pool: PoolPolicy,
    /// App Warehouse capacity, bytes.
    pub warehouse_capacity: u64,
    /// The cell's own access network: the link a code push from the
    /// device crosses when the App Warehouse misses.
    pub access: NetworkScenario,
    /// The calibration map resolved for the cell's hardware class:
    /// prices every request's compute phase.
    pub compute_prices: exec::CalibrationTable,
}

/// Per-user app weights under Zipf exponent `skew`, in
/// [`workloads::WorkloadKind::ALL`] order: 0 is uniform, larger skews
/// toward OCR.
pub fn app_weights(skew: f64) -> Vec<f64> {
    (1..=workloads::WorkloadKind::ALL.len())
        .map(|rank| 1.0 / (rank as f64).powf(skew))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_static_and_fault_free() {
        let cfg = FleetConfig::paper_default(4, 7);
        assert_eq!(cfg.host_specs.len(), 4);
        assert_eq!(cfg.initial_active, 4);
        assert!(!cfg.autoscale.enabled);
        assert!(cfg.faults.is_inert());
    }

    #[test]
    fn app_weights_are_skewed_and_ordered() {
        let w = app_weights(FleetConfig::paper_default(1, 7).app_skew);
        assert_eq!(w.len(), 4);
        assert!(w.windows(2).all(|p| p[0] > p[1]), "monotone skew");
        assert!(app_weights(0.0).iter().all(|&x| x == 1.0));
    }
}
