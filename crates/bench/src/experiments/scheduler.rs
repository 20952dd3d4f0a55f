//! Scheduler ablation — the warm-pool trade-off the paper's
//! introduction discusses: "pre-starting VMs can reduce the VM startup
//! time, but it would inevitably incur high resource cost".
//!
//! We quantify both sides on trace-driven arrivals: warm spares remove
//! the remaining cold starts, at the price of held memory; with
//! Rattrap's 1.75 s container start the on-demand platform is already
//! close to just-in-time, so the warm pool buys little — exactly the
//! paper's argument for fixing the runtime instead of pre-provisioning.

use super::ExperimentOutput;
use analysis::{fnum, fpct, Scorecard, Table};
use rattrap::{run_scenario, ArrivalModel, PlatformKind, ScenarioConfig, SimulationReport};
use simkit::SimDuration;
use traces::{generate, TraceConfig};
use workloads::WorkloadKind;

fn trace_scenario(
    platform: rattrap::PlatformConfig,
    trace: Vec<Vec<simkit::SimTime>>,
    seed: u64,
) -> ScenarioConfig {
    let users = trace.len() as u32;
    ScenarioConfig {
        arrivals: ArrivalModel::Trace(trace),
        devices: users,
        requests_per_device: 0,
        sample_horizon: SimDuration::from_secs(60),
        ..ScenarioConfig::paper_default(platform, WorkloadKind::ChessGame, seed)
    }
}

fn summarize(rep: &SimulationReport) -> (f64, f64, f64) {
    (
        rep.failure_rate(),
        rep.mean_of(|r| r.phases.runtime_preparation.as_secs_f64()),
        rep.peak_memory_bytes as f64 / (1024.0 * 1024.0),
    )
}

/// Run the warm-pool ablation on a 3 h trace.
pub fn run(seed: u64) -> ExperimentOutput {
    let trace = generate(&TraceConfig {
        duration: SimDuration::from_secs(3 * 3600),
        seed,
        ..Default::default()
    });
    let mut sc = Scorecard::new();
    let mut table = Table::new(
        "Monitor & Scheduler: warm-pool ablation (ChessGame trace)",
        &["Configuration", "Failures", "MeanPrep(s)", "PeakMem(MiB)"],
    );

    let mut results = Vec::new();
    for (label, spares) in [
        ("Rattrap on-demand", 0usize),
        ("Rattrap + 1 warm spare", 1),
        ("Rattrap + 2 warm spares", 2),
    ] {
        let platform = PlatformKind::Rattrap.config().with_warm_spares(spares);
        let rep = run_scenario(trace_scenario(platform, trace.clone(), seed));
        let (fail, prep, mem) = summarize(&rep);
        table.row(&[label.to_string(), fpct(fail), fnum(prep, 3), fnum(mem, 0)]);
        results.push((fail, prep, mem));
    }
    // The VM baseline for contrast: pre-starting would be the only cure.
    let vm = run_scenario(trace_scenario(
        PlatformKind::VmBaseline.config(),
        trace.clone(),
        seed,
    ));
    let (vm_fail, vm_prep, vm_mem) = summarize(&vm);
    table.row(&[
        "VM on-demand".to_string(),
        fpct(vm_fail),
        fnum(vm_prep, 3),
        fnum(vm_mem, 0),
    ]);

    let (od_fail, od_prep, od_mem) = results[0];
    let w1_prep = results[1].1;
    let (w2_fail, w2_prep, w2_mem) = results[2];
    sc.expect(
        "warm spares do not hurt failures",
        "failures(warm2) ≤ failures(on-demand)",
        &format!("{} vs {}", fpct(w2_fail), fpct(od_fail)),
        w2_fail <= od_fail + 1e-9,
    );
    sc.less(
        "warm spares cut mean prep",
        "warm-2",
        w2_prep,
        "on-demand",
        od_prep,
    );
    // Compared exactly, with no tolerance: a pool that reclaims below
    // its warm floor pays cold starts here.
    sc.expect(
        "a second warm spare never costs preparation",
        "prep(warm2) ≤ prep(warm1)",
        &format!("{w2_prep:.3} vs {w1_prep:.3} s"),
        w2_prep <= w1_prep,
    );
    sc.expect(
        "warm pool costs held memory",
        "peak(warm2) ≥ peak(on-demand)",
        &format!("{w2_mem:.0} vs {od_mem:.0} MiB"),
        w2_mem >= od_mem,
    );
    sc.less(
        "even on-demand Rattrap beats the VM on failures",
        "Rattrap on-demand",
        od_fail,
        "VM",
        vm_fail,
    );
    sc.less(
        "on-demand Rattrap prep beats the VM's",
        "Rattrap",
        od_prep,
        "VM",
        vm_prep,
    );
    sc.expect(
        "Rattrap's on-demand start is already near just-in-time",
        "warm-pool prep saving < 1 s",
        &format!("{:.3}s", od_prep - w2_prep),
        od_prep - w2_prep < 1.0,
    );
    let _ = vm_mem;

    ExperimentOutput {
        id: "Scheduler ablation",
        body: table.render(),
        scorecard: sc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_ablation_shape_holds() {
        let out = run(super::super::DEFAULT_SEED);
        assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
    }
}
