//! Throughput baseline for the fleet control plane.
//!
//! Runs the `exp_cluster` scaling scenario at 1, 2, 4, and 8 hosts and
//! writes `BENCH_cluster.json` (path overridable via
//! `BENCH_CLUSTER_OUT`) with, per host count:
//!
//! * **cloud req/s** — simulated cloud throughput (the paper-facing
//!   number; the acceptance bar is ≥ 2× from 1 host to 4), and
//! * **wall seconds** — engine wall-clock for the run (the perf
//!   baseline later optimisation PRs regress against).
//!
//! The vendored Criterion stub has no machine-readable output, so this
//! bench is a plain `harness = false` main with its own timing loop.

use fleet::run_fleet;
use rattrap_bench::experiments::cluster::{scaling_cfg, HOST_COUNTS};
use std::hint::black_box;
use std::time::Instant;

/// Median wall-seconds of `runs` invocations of `f`.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let meta = rattrap_bench::RunMeta::capture(rattrap_bench::DEFAULT_SEED);
    println!("{}", meta.header());

    let smoke = rattrap_bench::experiments::smoke();
    let timing_runs = if smoke { 1 } else { 5 };

    let mut cells = Vec::new();
    for &hosts in &HOST_COUNTS {
        let cfg = scaling_cfg(hosts, meta.seed, smoke);
        let rep = run_fleet(&cfg);
        let wall = median_secs(timing_runs, || {
            black_box(run_fleet(&cfg));
        });
        println!(
            "hosts={hosts}: {:.2} cloud req/s ({} remote of {} submitted), {:.3}s wall",
            rep.summary.throughput_rps, rep.summary.completed_remote, rep.summary.submitted, wall
        );
        cells.push((hosts, rep.summary.throughput_rps, wall));
    }
    let speedup = cells[2].1 / cells[0].1.max(1e-9);
    println!("1 → 4 host speedup: {speedup:.2}x");

    let out = rattrap_bench::meta::baseline_out("BENCH_CLUSTER_OUT", "BENCH_cluster.json");
    let rows: Vec<String> = cells
        .iter()
        .map(|(h, rps, wall)| {
            format!(
                "    {{ \"hosts\": {h}, \"cloud_req_per_sec\": {rps:.3}, \
                 \"wall_secs\": {wall:.4} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cluster_scaling\",\n  \"seed\": {},\n  \"toolchain\": \"{}\",\n  \
         \"git_sha\": \"{}\",\n  \"smoke\": {},\n  \"cores\": {},\n  \
         \"speedup_1_to_4\": {:.3},\n  \"cells\": [\n{}\n  ]\n}}\n",
        meta.seed,
        meta.toolchain,
        meta.git_sha,
        meta.smoke,
        meta.cores,
        speedup,
        rows.join(",\n")
    );
    obsv::json::parse(&json).expect("baseline JSON parses");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
    println!("baseline written to {}", out.display());
}
