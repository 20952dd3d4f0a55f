//! The seed/fault-plan explorer: swarm-test the engines under every
//! auditor, with metamorphic oracles layered on top.
//!
//! Oracles, in the order they run:
//!
//! 1. **Model audits** — the component-level scripts from
//!    [`crate::models`], once per exploration.
//! 2. **Golden gate** (optional, on in the CLI) — the fault-free
//!    metamorphic anchor: the six pinned rattrap digests and the pinned
//!    fleet digest must still hold. A fault-plan intensity of zero is
//!    *defined* to reproduce them.
//! 3. **Swarm samples** — `budget` derived samples, each run twice
//!    (digest stability); traced samples replay untraced, so the
//!    "observation must not perturb" oracle is folded into the same
//!    digest-stability invariant.
//! 4. **Parallel ≡ serial** — a replication stripe computed with the
//!    data-parallel runtime must be bit-identical to the serial loop.

use crate::audit::Audit;
use crate::harness::{run_model_audits, run_sample};
use crate::invariants::DIGEST_STABILITY;
use crate::sample::Sample;
use rattrap::{run_scenario, PlatformKind, ScenarioConfig};
use rayon::prelude::*;
use simkit::Fnv1a;
use workloads::WorkloadKind;

/// The seed the golden tables pin (shared with the repo's golden
/// determinism tests).
pub const GOLDEN_SEED: u64 = 0x2017_0529;

/// The six pinned rattrap digests — `(platform, workload, digest)` at
/// [`GOLDEN_SEED`]; keep in sync with
/// `crates/rattrap/tests/golden_determinism.rs`.
pub const RATTRAP_GOLDEN: &[(PlatformKind, WorkloadKind, u64)] = &[
    (
        PlatformKind::VmBaseline,
        WorkloadKind::Ocr,
        0x6d96c6bde469f110,
    ),
    (
        PlatformKind::RattrapWithout,
        WorkloadKind::Ocr,
        0x256e66f827b2e478,
    ),
    (PlatformKind::Rattrap, WorkloadKind::Ocr, 0x988d5275376ae587),
    (
        PlatformKind::VmBaseline,
        WorkloadKind::ChessGame,
        0x97c8e42d90150c02,
    ),
    (
        PlatformKind::RattrapWithout,
        WorkloadKind::ChessGame,
        0x72954e4daf2737e8,
    ),
    (
        PlatformKind::Rattrap,
        WorkloadKind::ChessGame,
        0x412b19c69fb41ff3,
    ),
];

/// The pinned canonical 4-host fleet digest — keep in sync with
/// `crates/fleet/tests/golden_determinism.rs`.
pub const FLEET_GOLDEN_DIGEST: u64 = 0xc722_c512_a546_9f68;

/// What to explore.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Master seed; the whole swarm derives from it.
    pub seed: u64,
    /// Number of swarm samples.
    pub budget: u32,
    /// Run the golden-digest gate (slow: seven paper-sized runs).
    pub golden_gate: bool,
    /// Run every `n`-th sample through the parallel ≡ serial oracle
    /// (0 disables the stripe).
    pub parallel_stride: u32,
}

impl ExplorerConfig {
    /// The CLI default: gate on, parallel stripe every 16 samples.
    pub fn standard(seed: u64, budget: u32) -> Self {
        ExplorerConfig {
            seed,
            budget,
            golden_gate: true,
            parallel_stride: 16,
        }
    }

    /// The fast profile tests use: no golden gate, sparse stripe.
    pub fn quick(seed: u64, budget: u32) -> Self {
        ExplorerConfig {
            seed,
            budget,
            golden_gate: false,
            parallel_stride: 8,
        }
    }
}

/// One sample whose audit fired, with the evidence.
#[derive(Debug)]
pub struct FailedSample {
    /// The exact point in the search space.
    pub sample: Sample,
    /// What fired.
    pub audit: Audit,
}

/// The outcome of one exploration.
#[derive(Debug)]
pub struct ExplorerReport {
    /// Samples executed.
    pub samples_run: u32,
    /// Samples whose audit fired, in swarm order.
    pub failures: Vec<FailedSample>,
    /// The component-model audit ledger.
    pub model_audit: Audit,
    /// Invariant names evaluated anywhere in the exploration.
    pub invariants_checked: Vec<&'static str>,
    /// Order-sensitive digest over everything observed — two
    /// explorations of the same config must agree bit for bit.
    pub digest: u64,
}

impl ExplorerReport {
    /// `true` when nothing fired anywhere.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.model_audit.is_clean()
    }

    /// Render a human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "simcheck: {} samples, {} failing, report digest {:#018x}\n",
            self.samples_run,
            self.failures.len(),
            self.digest
        ));
        out.push_str(&format!(
            "invariants evaluated: {}\n",
            self.invariants_checked.join(", ")
        ));
        for v in self.model_audit.violations() {
            out.push_str(&format!("model: {v}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("sample {}:\n", f.sample.index));
            for v in f.audit.violations() {
                out.push_str(&format!("  {v}\n"));
            }
        }
        out
    }
}

/// Explore the search space under `cfg`. Deterministic: the same
/// config yields the same report digest, sample for sample.
pub fn explore(cfg: &ExplorerConfig) -> ExplorerReport {
    let mut failures = Vec::new();
    let mut checked = std::collections::BTreeSet::new();
    let mut digest = Fnv1a::new();
    digest.write_u64(cfg.seed);

    let model_audit = run_model_audits(cfg.seed);
    checked.extend(model_audit.invariants_checked());
    digest.write_u64(model_audit.digest());

    let mut golden_audit = Audit::new();
    if cfg.golden_gate {
        audit_golden_gate(&mut golden_audit);
        checked.extend(golden_audit.invariants_checked());
        digest.write_u64(golden_audit.digest());
        if !golden_audit.is_clean() {
            failures.push(FailedSample {
                // Attribute the gate to a synthetic fault-free sample
                // at the golden seed so a repro bundle can name it.
                sample: golden_sample(),
                audit: golden_audit,
            });
        }
    }

    for index in 0..cfg.budget {
        let sample = Sample::draw(cfg.seed, index);
        let outcome = run_sample(&sample);
        checked.extend(outcome.audit.invariants_checked());
        digest.write_u64(outcome.digest);
        digest.write_u64(outcome.audit.digest());

        let mut audit = outcome.audit;
        if cfg.parallel_stride != 0 && index % cfg.parallel_stride == 0 {
            audit_parallel_replications(&sample, &mut audit);
        }
        if !audit.is_clean() {
            checked.extend(audit.invariants_checked());
            failures.push(FailedSample { sample, audit });
        }
    }

    for f in &failures {
        digest.write_u64(f.audit.digest());
    }

    ExplorerReport {
        samples_run: cfg.budget,
        failures,
        model_audit,
        invariants_checked: checked.into_iter().collect(),
        digest: digest.finish(),
    }
}

/// A synthetic sample naming the golden anchor (used to attribute
/// golden-gate failures in repro bundles).
fn golden_sample() -> Sample {
    let mut s = Sample::draw(GOLDEN_SEED, 0);
    s.seed = GOLDEN_SEED;
    s.fault_pct = 0;
    s
}

/// The fault-free metamorphic anchor: every pinned digest must hold.
fn audit_golden_gate(audit: &mut Audit) {
    for &(platform, workload, want) in RATTRAP_GOLDEN {
        let cfg = ScenarioConfig::paper_default(platform.config(), workload, GOLDEN_SEED);
        let got = run_scenario(cfg).digest();
        audit.ensure(
            DIGEST_STABILITY,
            got == want,
            format!("golden {platform:?}/{workload:?}"),
            || format!("pinned digest {want:#018x}, engine produced {got:#018x}"),
        );
    }
    let mut fleet_cfg = fleet::FleetConfig::paper_default(4, GOLDEN_SEED);
    fleet_cfg.traffic.users = 200;
    fleet_cfg.faults = simkit::faults::FaultConfig::scaled(0.5);
    let got = fleet::run_fleet(&fleet_cfg).digest();
    audit.ensure(
        DIGEST_STABILITY,
        got == FLEET_GOLDEN_DIGEST,
        "golden fleet",
        || format!("pinned digest {FLEET_GOLDEN_DIGEST:#018x}, engine produced {got:#018x}"),
    );
}

/// Parallel ≡ serial: three replications of the sample's scenario
/// computed on the data-parallel runtime must match the serial loop
/// bit for bit — scheduling must never leak into results.
fn audit_parallel_replications(sample: &Sample, audit: &mut Audit) {
    let configs: Vec<ScenarioConfig> = (0..3)
        .map(|i| {
            let mut s = sample.clone();
            s.seed = s.seed.wrapping_add(i);
            s.scenario_config()
        })
        .collect();
    let serial: Vec<u64> = configs
        .iter()
        .map(|c| run_scenario(c.clone()).digest())
        .collect();
    let parallel: Vec<u64> = configs
        .par_iter()
        .map(|c| run_scenario(c.clone()).digest())
        .collect();
    audit.ensure(
        DIGEST_STABILITY,
        serial == parallel,
        format!("sample {} parallel replications", sample.index),
        || format!("serial digests {serial:x?} != parallel digests {parallel:x?}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_exploration_is_deterministic_and_clean() {
        let cfg = ExplorerConfig::quick(7, 3);
        let a = explore(&cfg);
        let b = explore(&cfg);
        assert_eq!(a.digest, b.digest, "exploration must be deterministic");
        assert!(a.is_clean(), "{}", a.render());
        assert_eq!(a.samples_run, 3);
    }

    #[test]
    fn parallel_replication_oracle_passes_on_the_real_engine() {
        let sample = Sample::draw(11, 0);
        let mut audit = Audit::new();
        audit_parallel_replications(&sample, &mut audit);
        assert!(audit.is_clean());
    }
}
