//! Latency/throughput baseline for the multi-region edge hierarchy.
//!
//! Runs the `exp_geo` headline pair (geo deployment vs the centralized
//! single-region baseline) and writes `BENCH_geo.json` (path
//! overridable via `BENCH_GEO_OUT`) with:
//!
//! * **p99_edge_advantage** — min over remote regions of
//!   centralized-p99 / geo-p99 (the paper-facing number; > 1 means the
//!   edge wins everywhere it should), a machine-independent ratio, and
//! * **per-region p99 pairs** plus **wall seconds** for each run (the
//!   perf baseline later optimisation PRs regress against).
//!
//! The vendored Criterion stub has no machine-readable output, so this
//! bench is a plain `harness = false` main with its own timing loop.

use geo::run_geo;
use rattrap_bench::experiments::geo::{geo_cfg, single_region_cfg, REGIONS};
use std::time::Instant;

fn main() {
    let meta = rattrap_bench::RunMeta::capture(rattrap_bench::DEFAULT_SEED);
    println!("{}", meta.header());

    let smoke = rattrap_bench::experiments::smoke();

    let gcfg = geo_cfg(meta.seed, smoke);
    let bcfg = single_region_cfg(meta.seed, smoke);

    let t = Instant::now();
    let grep = run_geo(&gcfg);
    let geo_wall = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let brep = run_geo(&bcfg);
    let central_wall = t.elapsed().as_secs_f64();

    let mut advantage = f64::INFINITY;
    let mut rows = Vec::new();
    for r in 1..REGIONS {
        let g = grep.regions[r].p99_response_s;
        let c = brep.regions[r].p99_response_s;
        advantage = advantage.min(c / g.max(1e-9));
        println!("region {r}: geo p99 {g:.2}s vs centralized {c:.2}s");
        rows.push(format!(
            "    {{ \"region\": {r}, \"geo_p99_s\": {g:.3}, \"central_p99_s\": {c:.3} }}"
        ));
    }
    println!(
        "p99 edge advantage (min over remote regions): {advantage:.2}x; \
         geo wall {geo_wall:.1}s, centralized wall {central_wall:.1}s"
    );

    let out = rattrap_bench::meta::baseline_out("BENCH_GEO_OUT", "BENCH_geo.json");
    let json = format!(
        "{{\n  \"bench\": \"geo_hierarchy\",\n  \"seed\": {},\n  \"toolchain\": \"{}\",\n  \
         \"git_sha\": \"{}\",\n  \"smoke\": {},\n  \"cores\": {},\n  \
         \"p99_edge_advantage\": {:.4},\n  \"geo_wall_secs\": {:.4},\n  \
         \"central_wall_secs\": {:.4},\n  \"regions\": [\n{}\n  ]\n}}\n",
        meta.seed,
        meta.toolchain,
        meta.git_sha,
        meta.smoke,
        meta.cores,
        advantage,
        geo_wall,
        central_wall,
        rows.join(",\n")
    );
    obsv::json::parse(&json).expect("baseline JSON parses");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
    println!("baseline written to {}", out.display());
}
