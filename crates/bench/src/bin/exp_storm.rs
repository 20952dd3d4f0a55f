//! Scenario-plane storm study: flash crowds, correlated outages, noisy
//! neighbors and Android interaction storms against the fleet, each
//! run twice from its seed and scored. Usage: `exp_storm [seed]`
//!
//! Besides the report, writes the `BENCH_storm.json` perf baseline
//! (path overridable via `BENCH_STORM_OUT`) with per-family wall
//! seconds plus the machine-independent storm ratios the perf gate
//! regresses against (`perf_gate storm`).

use rattrap_bench::experiments::{self, storm};
use scenario::ScenarioFamily;

fn main() {
    let seed = experiments::seed_from_args();
    let meta = rattrap_bench::RunMeta::capture(seed);
    println!("{}", meta.header());

    let smoke = experiments::smoke();
    let quiet = fleet::run_fleet(&storm::quiet_cfg(seed, smoke));
    let cells = storm::run_cells(seed, smoke);
    let out = storm::build_output(&quiet, &cells, smoke);
    println!("{}", out.render());

    // ---- perf baseline. --------------------------------------------------
    let cell = |f: ScenarioFamily| cells.iter().find(|c| c.family == f).expect("family ran");
    let crowd = cell(ScenarioFamily::FlashCrowd);
    let istorm = cell(ScenarioFamily::InteractionStorm);
    let p95_degradation =
        crowd.report.summary.p95_response_s / quiet.summary.p95_response_s.max(1e-9);
    let ss = istorm.report.scenario.as_ref().expect("storm stats");
    let offload_fraction = ss.submitted as f64 / ss.injected.max(1) as f64;

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            let s = c.report.scenario.as_ref().expect("storm stats");
            format!(
                "    {{ \"family\": \"{}\", \"injected\": {}, \"submitted\": {}, \
                 \"suppressed\": {}, \"deferred\": {}, \"fleet_submitted\": {}, \
                 \"p95_s\": {:.3}, \"wall_secs\": {:.4} }}",
                c.family.label(),
                s.injected,
                s.submitted,
                s.suppressed,
                s.deferred,
                c.report.summary.submitted,
                c.report.summary.p95_response_s,
                c.wall_secs,
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"bench\": \"scenario_storm\",\n  \"seed\": {},\n  \"toolchain\": \"{}\",\n  \
         \"git_sha\": \"{}\",\n  \"smoke\": {},\n  \"cores\": {},\n  \
         \"p95_degradation\": {:.4},\n  \"storm_offload_fraction\": {:.4},\n  \
         \"families\": [\n{}\n  ]\n}}\n",
        meta.seed,
        meta.toolchain,
        meta.git_sha,
        smoke,
        meta.cores,
        p95_degradation,
        offload_fraction,
        rows.join(",\n")
    );
    obsv::json::parse(&json).expect("baseline JSON parses");
    let out_path = rattrap_bench::meta::baseline_out("BENCH_STORM_OUT", "results/BENCH_storm.json");
    std::fs::write(&out_path, json)
        .unwrap_or_else(|e| panic!("writing {}: {e}", out_path.display()));
    println!("baseline written to {}", out_path.display());

    if !out.scorecard.all_ok() {
        std::process::exit(1);
    }
}
