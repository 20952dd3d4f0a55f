//! Swarm samples: one integer-only value describes everything the
//! explorer varies about a run, so a sample round-trips through JSON
//! bit-exactly (seeds travel as hex strings — JSON numbers are f64 and
//! would silently round a u64 seed) and a repro bundle replays the
//! exact run that failed.

use fleet::FleetConfig;
use geo::GeoConfig;
use rattrap::{PlatformKind, ResiliencePolicy, ScenarioConfig};
use simkit::faults::FaultConfig;
use simkit::{derive_seed, SimDuration, SimRng};
use workloads::WorkloadKind;

/// Which engine a sample drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Single-host `rattrap::run_scenario`.
    Rattrap,
    /// Multi-host `fleet::run_fleet`.
    Fleet,
    /// Multi-region `geo::run_geo`.
    Geo,
    /// A fleet run driven by a scenario plan (flash crowds, correlated
    /// outages, noisy neighbors, interaction storms).
    Scenario,
}

/// One point in the explorer's search space. Every field is an integer
/// (or bool) on purpose: the JSON round-trip must be exact, and the
/// minimizer shrinks by halving integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Position in the swarm (0-based); also the derivation stream.
    pub index: u32,
    /// The run's master seed.
    pub seed: u64,
    /// Engine under test.
    pub kind: SampleKind,
    /// Platform index into [`Sample::PLATFORMS`] (rattrap only).
    pub platform: u8,
    /// Workload index into [`WorkloadKind::ALL`] (rattrap only).
    pub workload: u8,
    /// Client devices (rattrap only).
    pub devices: u32,
    /// Closed-loop requests per device (rattrap only).
    pub requests_per_device: u32,
    /// Fleet hosts (fleet only).
    pub hosts: u32,
    /// Trace users (fleet only).
    pub users: u32,
    /// Trace horizon, seconds (fleet only).
    pub duration_s: u32,
    /// Geo regions (geo only).
    pub regions: u32,
    /// Fault-plan intensity as a percentage: `FaultConfig::scaled(pct/100)`,
    /// 0 meaning a fault-free run (the metamorphic golden gate).
    pub fault_pct: u32,
    /// Scenario family index into [`scenario::ScenarioFamily::ALL`]
    /// (scenario stripe only).
    pub scenario_family: u8,
    /// Resilience policy: 0 none, 1 retry-only, 2 standard.
    pub resilience: u8,
    /// Attach an enabled recorder (the traced ≡ untraced oracle runs
    /// both ways regardless; this picks the default for auditing).
    pub traced: bool,
}

impl Sample {
    /// Platform axis, index-stable for JSON.
    pub const PLATFORMS: [PlatformKind; 3] = [
        PlatformKind::VmBaseline,
        PlatformKind::RattrapWithout,
        PlatformKind::Rattrap,
    ];

    /// Draw sample `index` of the swarm rooted at `master` — swarm
    /// testing over seeds × fault intensities × config mutations.
    /// Mostly small rattrap scenarios (they are cheap, so the swarm is
    /// wide) with sparse stripes of small fleets and small geo
    /// topologies.
    pub fn draw(master: u64, index: u32) -> Sample {
        let mut rng = SimRng::new(derive_seed(master, 0x5A4D_0000 + index as u64));
        let kind = match index % 7 {
            1 => SampleKind::Scenario,
            3 => SampleKind::Fleet,
            5 => SampleKind::Geo,
            _ => SampleKind::Rattrap,
        };
        Sample {
            index,
            seed: derive_seed(master, 0xA5A5_0000 + index as u64),
            kind,
            platform: rng.uniform_u64(0, 2) as u8,
            workload: rng.uniform_u64(0, WorkloadKind::ALL.len() as u64 - 1) as u8,
            devices: rng.uniform_u64(1, 8) as u32,
            requests_per_device: rng.uniform_u64(1, 6) as u32,
            hosts: rng.uniform_u64(1, 3) as u32,
            users: rng.uniform_u64(4, 24) as u32,
            duration_s: rng.uniform_u64(240, 720) as u32,
            // Weighted toward faulty runs but keeping a fault-free
            // stripe alive for the golden-digest oracle.
            fault_pct: match rng.uniform_u64(0, 9) {
                0 | 1 => 0,
                n => (n * 25) as u32, // 50..=225 %
            },
            resilience: rng.uniform_u64(0, 2) as u8,
            traced: rng.bernoulli(0.5),
            // Drawn last so the geo stripe leaves the older axes'
            // derivations untouched.
            regions: rng.uniform_u64(2, 3) as u32,
            // Likewise drawn after everything older: the scenario
            // stripe must not perturb pre-existing sample axes.
            scenario_family: rng.uniform_u64(0, 3) as u8,
        }
    }

    /// The resilience policy this sample selects.
    fn resilience_policy(&self) -> ResiliencePolicy {
        match self.resilience {
            0 => ResiliencePolicy::none(),
            1 => ResiliencePolicy::retry_only(),
            _ => ResiliencePolicy::standard(),
        }
    }

    /// The fault plan intensity this sample selects.
    fn fault_config(&self) -> FaultConfig {
        if self.fault_pct == 0 {
            FaultConfig::none()
        } else {
            FaultConfig::scaled(self.fault_pct as f64 / 100.0)
        }
    }

    /// Materialise the rattrap scenario (valid for any sample; the
    /// minimizer uses this even on fleet samples it has re-pointed).
    pub fn scenario_config(&self) -> ScenarioConfig {
        let platform = Self::PLATFORMS[self.platform as usize % 3];
        let workload = WorkloadKind::ALL[self.workload as usize % WorkloadKind::ALL.len()];
        let mut cfg = ScenarioConfig::paper_default(platform.config(), workload, self.seed);
        cfg.devices = self.devices.max(1);
        cfg.requests_per_device = self.requests_per_device.max(1);
        cfg.faults = self.fault_config();
        cfg.resilience = self.resilience_policy();
        cfg
    }

    /// Materialise the fleet config.
    pub fn fleet_config(&self) -> FleetConfig {
        let mut cfg = FleetConfig::paper_default(self.hosts.max(1) as usize, self.seed);
        cfg.traffic.users = self.users.max(1);
        cfg.traffic.duration = SimDuration::from_secs(self.duration_s.max(60) as u64);
        cfg.faults = self.fault_config();
        cfg.resilience = self.resilience_policy();
        cfg
    }

    /// The scenario family this sample drives (scenario stripe).
    pub fn scenario_family(&self) -> scenario::ScenarioFamily {
        let all = scenario::ScenarioFamily::ALL;
        all[self.scenario_family as usize % all.len()]
    }

    /// Materialise the scenario spec, sized for this sample's fleet:
    /// phase timing scales with the trace horizon so the adversarial
    /// window always lands inside the run.
    fn scenario_spec(&self) -> scenario::ScenarioSpec {
        let users = self.users.max(1);
        let horizon = self.duration_s.max(60) as u64;
        let start = simkit::SimTime::from_secs(horizon / 4);
        let window = SimDuration::from_secs(horizon / 6);
        match self.scenario_family() {
            scenario::ScenarioFamily::FlashCrowd => {
                scenario::ScenarioSpec::flash_crowd(users, 8, start, window)
            }
            scenario::ScenarioFamily::CorrelatedFailure => {
                scenario::ScenarioSpec::correlated_failure(50, start, window)
            }
            scenario::ScenarioFamily::NoisyNeighbor => scenario::ScenarioSpec::noisy_neighbor(1, 2),
            scenario::ScenarioFamily::InteractionStorm => {
                scenario::ScenarioSpec::interaction_storm((users * 4).min(160), start, window, 55)
            }
        }
    }

    /// Materialise the fleet config with this sample's scenario plan
    /// attached (the scenario stripe's engine input).
    pub fn scenario_fleet_config(&self) -> FleetConfig {
        let mut cfg = self.fleet_config();
        cfg.scenario_plan = Some(self.scenario_spec());
        cfg
    }

    /// Materialise the geo config. Users are spread across regions and
    /// the rebalancer is eager so even small swarm runs exercise
    /// cross-region migration over the WAN fabric.
    pub fn geo_config(&self) -> GeoConfig {
        let regions = (self.regions.max(2) as usize).min(4);
        let mut cfg = GeoConfig::paper_default(regions, self.seed);
        let per_region = (self.users / regions as u32).max(2);
        for r in &mut cfg.regions {
            r.users = per_region;
        }
        cfg.traffic.duration = SimDuration::from_secs(self.duration_s.max(60) as u64);
        cfg.resilience = self.resilience_policy();
        cfg.rebalance.imbalance_threshold = 0.05;
        cfg.rebalance.min_interval = SimDuration::from_secs(30);
        cfg
    }

    /// Serialise to JSON. Integers are emitted verbatim; the seed as a
    /// 16-digit hex string so the round-trip is exact.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"index\": {},\n",
                "  \"seed\": \"{:016x}\",\n",
                "  \"kind\": \"{}\",\n",
                "  \"platform\": {},\n",
                "  \"workload\": {},\n",
                "  \"devices\": {},\n",
                "  \"requests_per_device\": {},\n",
                "  \"hosts\": {},\n",
                "  \"users\": {},\n",
                "  \"duration_s\": {},\n",
                "  \"regions\": {},\n",
                "  \"fault_pct\": {},\n",
                "  \"scenario_family\": {},\n",
                "  \"resilience\": {},\n",
                "  \"traced\": {}\n",
                "}}\n"
            ),
            self.index,
            self.seed,
            match self.kind {
                SampleKind::Rattrap => "rattrap",
                SampleKind::Fleet => "fleet",
                SampleKind::Geo => "geo",
                SampleKind::Scenario => "scenario",
            },
            self.platform,
            self.workload,
            self.devices,
            self.requests_per_device,
            self.hosts,
            self.users,
            self.duration_s,
            self.regions,
            self.fault_pct,
            self.scenario_family,
            self.resilience,
            self.traced,
        )
    }

    /// Parse a sample back from [`Sample::to_json`] output.
    pub fn from_json(text: &str) -> Result<Sample, String> {
        let v = obsv::json::parse(text)?;
        let int = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(|f| f.as_f64())
                .map(|f| f as u64)
                .ok_or_else(|| format!("missing integer field `{key}`"))
        };
        let seed_hex = v
            .get("seed")
            .and_then(|s| s.as_str())
            .ok_or("missing `seed` hex string")?;
        let seed =
            u64::from_str_radix(seed_hex, 16).map_err(|e| format!("bad seed `{seed_hex}`: {e}"))?;
        let kind = match v.get("kind").and_then(|s| s.as_str()) {
            Some("rattrap") => SampleKind::Rattrap,
            Some("fleet") => SampleKind::Fleet,
            Some("geo") => SampleKind::Geo,
            Some("scenario") => SampleKind::Scenario,
            other => return Err(format!("bad kind {other:?}")),
        };
        let traced = match v.get("traced") {
            Some(obsv::json::Value::Bool(b)) => *b,
            _ => return Err("missing bool field `traced`".into()),
        };
        Ok(Sample {
            index: int("index")? as u32,
            seed,
            kind,
            platform: int("platform")? as u8,
            workload: int("workload")? as u8,
            devices: int("devices")? as u32,
            requests_per_device: int("requests_per_device")? as u32,
            hosts: int("hosts")? as u32,
            users: int("users")? as u32,
            duration_s: int("duration_s")? as u32,
            regions: int("regions")? as u32,
            fault_pct: int("fault_pct")? as u32,
            scenario_family: int("scenario_family")? as u8,
            resilience: int("resilience")? as u8,
            traced,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_deterministic() {
        assert_eq!(Sample::draw(7, 13), Sample::draw(7, 13));
        assert_ne!(Sample::draw(7, 13).seed, Sample::draw(7, 14).seed);
    }

    #[test]
    fn json_round_trip_is_exact() {
        for index in 0..32 {
            let s = Sample::draw(0xB0B, index);
            let back = Sample::from_json(&s.to_json()).expect("round trip");
            assert_eq!(s, back);
        }
    }

    #[test]
    fn fleet_geo_and_scenario_stripes_are_sparse_but_present() {
        let kinds: Vec<_> = (0..28).map(|i| Sample::draw(1, i).kind).collect();
        assert_eq!(kinds.iter().filter(|k| **k == SampleKind::Fleet).count(), 4);
        assert_eq!(kinds.iter().filter(|k| **k == SampleKind::Geo).count(), 4);
        assert_eq!(
            kinds.iter().filter(|k| **k == SampleKind::Scenario).count(),
            4
        );
    }

    #[test]
    fn the_scenario_stripe_cycles_through_every_family() {
        let families: std::collections::BTreeSet<_> = (0..64)
            .map(|i| Sample::draw(1, i))
            .filter(|s| s.kind == SampleKind::Scenario)
            .map(|s| s.scenario_family().label())
            .collect();
        assert_eq!(families.len(), scenario::ScenarioFamily::ALL.len());
    }
}
