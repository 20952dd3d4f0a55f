//! `exp_drift` — modeled-vs-real latency error per kernel.
//!
//! The calibrated cycle profiles price every offloaded request in
//! megacycles; the four kernels are genuinely executable. This
//! experiment runs each kernel for real on an [`exec::RealBackend`]
//! pool across all input sizes, compares the median wall time with the
//! cycle model's charge at the paper server's clock, and reports the
//! drift ratio `real / modeled` per `(kernel, size)` cell — the
//! calibration signal the committed
//! `crates/exec/data/calibration.json` records.
//!
//! Determinism caveat: wall times depend on the machine, so the drift
//! *values* are not pinned by any golden; what the scorecard pins is
//! coverage (all four kernels, all sizes), output verifiability
//! (checksums match an independent execution), and that a config
//! carrying an explicit identity calibration map reproduces the default
//! rattrap digest bit for bit.

use super::ExperimentOutput;
use analysis::{Scorecard, Table};
use exec::{measure_drift, CalibrationMap, DriftConfig, DriftRow, RealBackend, SizeClass};
use rattrap::platform::PlatformKind;
use rattrap::simulation::{run_scenario, ScenarioConfig};
use workloads::WorkloadKind;

/// Run the drift sweep: every kernel at every size, `reps` repetitions
/// per cell (1 in smoke mode — CI bounds wall time, not precision).
pub fn sweep(seed: u64, smoke: bool) -> Vec<DriftRow> {
    let cfg = DriftConfig {
        reps: if smoke { 1 } else { 5 },
        seed,
        ..DriftConfig::default()
    };
    let backend = RealBackend::new(2);
    measure_drift(&backend, &cfg)
}

fn paper_cfg(seed: u64) -> ScenarioConfig {
    ScenarioConfig::paper_default(PlatformKind::Rattrap.config(), WorkloadKind::Ocr, seed)
}

/// Run the drift study (smoke mode via `RATTRAP_BENCH_SMOKE`).
pub fn run(seed: u64) -> ExperimentOutput {
    let smoke = super::smoke();
    let rows = sweep(seed, smoke);

    let mut table = Table::new(
        "modeled vs real kernel latency (paper server @ 2.66 GHz)",
        &[
            "Kernel",
            "Size",
            "Modeled ms",
            "Real ms",
            "Drift ×",
            "Checksum",
        ],
    );
    for r in &rows {
        table.row(&[
            r.kind.label().to_string(),
            r.size.label().to_string(),
            format!("{:.2}", r.modeled_ms),
            format!("{:.2}", r.real_ms),
            format!("{:.3}", r.ratio),
            format!("{:016x}", r.checksum),
        ]);
    }

    let mut sc = Scorecard::new();
    let cells = WorkloadKind::ALL.len() * SizeClass::ALL.len();
    sc.expect(
        "every kernel measured at every size",
        &format!("{cells} cells"),
        &format!("{} cells", rows.len()),
        rows.len() == cells,
    );
    sc.expect(
        "drift ratios are finite and positive",
        "0 < ratio < ∞",
        &format!(
            "min {:.3}, max {:.3}",
            rows.iter().map(|r| r.ratio).fold(f64::INFINITY, f64::min),
            rows.iter().map(|r| r.ratio).fold(0.0, f64::max)
        ),
        rows.iter().all(|r| r.ratio.is_finite() && r.ratio > 0.0),
    );
    let verifiable = rows
        .iter()
        .all(|r| exec::execute_kernel(r.kind, r.size, seed).checksum == r.checksum);
    sc.expect(
        "real outputs verifiable by independent re-execution",
        "checksums reproduce",
        if verifiable { "all match" } else { "MISMATCH" },
        verifiable,
    );
    sc.expect(
        "real wall grows with input size",
        "L > S per kernel",
        "per-kernel monotone S→L",
        WorkloadKind::ALL.iter().all(|&k| {
            let ms = |s: SizeClass| {
                rows.iter()
                    .find(|r| r.kind == k && r.size == s)
                    .map(|r| r.real_ms)
                    .unwrap_or(0.0)
            };
            ms(SizeClass::Large) > ms(SizeClass::Small)
        }),
    );
    let default_digest = run_scenario(paper_cfg(seed)).digest();
    let identity_digest = run_scenario(ScenarioConfig {
        calibration: CalibrationMap::identity(),
        ..paper_cfg(seed)
    })
    .digest();
    sc.expect(
        "identity replay ≡ modeled (engine digest)",
        "bit-identical",
        &format!("{default_digest:016x} vs {identity_digest:016x}"),
        default_digest == identity_digest,
    );

    ExperimentOutput {
        id: "Drift",
        body: table.render(),
        scorecard: sc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_covers_all_cells() {
        let rows = sweep(super::super::DEFAULT_SEED, true);
        assert_eq!(rows.len(), 12);
    }
}
