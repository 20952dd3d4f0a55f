//! Perf-regression gate: compare a candidate bench JSON against the
//! committed baseline under `results/` with explicit tolerances.
//!
//! ```text
//! perf_gate cluster results/BENCH_cluster.json candidate_cluster.json
//! perf_gate geo     results/BENCH_geo.json     candidate_geo.json
//! perf_gate exec    results/BENCH_exec.json    candidate_exec.json
//! perf_gate storm   results/BENCH_storm.json   candidate_storm.json
//! ```
//!
//! Prints a markdown delta table (also appended to the file named by
//! `GITHUB_STEP_SUMMARY` when set, so it lands on the CI job summary
//! page) and exits non-zero on any FAIL row.
//!
//! ## Tolerance policy
//!
//! Two metric classes, gated differently:
//!
//! * **Machine-independent ratios** (`speedup_1_to_4`,
//!   `p99_edge_advantage`) — same-run numerator/denominator, so
//!   hardware largely cancels. Gated *tight*: FAIL on >25 % drift in
//!   the bad direction.
//! * **Absolute rates** (`wall_secs` columns) — depend on the machine
//!   that wrote the baseline. Gated *loose*: WARN on >20 % regression
//!   (the drift a same-hardware rerun should stay inside), FAIL only
//!   past 50 % (an algorithmic regression, not runner jitter). When
//!   the baseline
//!   and candidate disagree on the `smoke` flag the absolute rows are
//!   reported but not gated at all — smoke horizons are too short for
//!   the rates to be comparable.
//!
//! Improvements never fail, and a metric missing from the *baseline*
//! is skipped with a note (older baselines predate some metrics);
//! a metric missing from the *candidate* is a FAIL — the bench
//! stopped reporting something the gate watches.
//!
//! ## Regenerating baselines
//!
//! After an intentional perf change, rerun the benches in full mode
//! on one machine and commit the outputs:
//!
//! ```text
//! BENCH_CLUSTER_OUT=results/BENCH_cluster.json \
//!   cargo bench --offline -p rattrap-bench --bench cluster_scaling
//! BENCH_GEO_OUT=results/BENCH_geo.json \
//!   cargo bench --offline -p rattrap-bench --bench geo_hierarchy
//! BENCH_EXEC_OUT=results/BENCH_exec.json \
//!   cargo bench --offline -p rattrap-bench --bench exec_drift
//! cargo run --release --offline -p rattrap-bench --bin exp_storm \
//!   > results/storm.txt   # writes results/BENCH_storm.json too
//! ```
//!
//! and justify the delta in the PR description (EXPERIMENTS.md keeps
//! the before/after history). Relative `BENCH_*_OUT` paths are
//! anchored at the workspace root regardless of invocation cwd
//! (`rattrap_bench::meta::baseline_out`) — `cargo bench` runs bench
//! executables from the package dir, which is never where the
//! baseline belongs.

use obsv::json::{self, Value};
use std::fmt;
use std::process::ExitCode;

/// Outcome of one gated row.
#[derive(PartialEq, Clone, Copy)]
enum Verdict {
    Pass,
    Warn,
    Fail,
    /// Reported but not gated (e.g. absolute rates across differing
    /// smoke modes, or the baseline predates the metric).
    Info,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Pass => "ok",
            Verdict::Warn => "WARN",
            Verdict::Fail => "**FAIL**",
            Verdict::Info => "info",
        })
    }
}

struct Row {
    metric: String,
    baseline: Option<f64>,
    candidate: Option<f64>,
    tolerance: &'static str,
    verdict: Verdict,
}

/// Walk a dotted path (`p99_edge_advantage`, `cells.0.wall_secs`)
/// into a parsed JSON document; numeric segments index arrays.
fn lookup(v: &Value, path: &str) -> Option<f64> {
    let mut cur = v;
    for seg in path.split('.') {
        cur = match (cur, seg.parse::<usize>()) {
            (Value::Array(items), Ok(i)) => items.get(i)?,
            _ => cur.get(seg)?,
        };
    }
    cur.as_f64()
}

/// Gate one metric. `higher_is_better` orients the drift direction;
/// `ratio` metrics use the tight 25 % FAIL band, absolute metrics the
/// loose WARN-20 % / FAIL-50 % band (or none at all when `gated` is
/// false).
#[allow(clippy::too_many_arguments)]
fn check(
    rows: &mut Vec<Row>,
    base: &Value,
    cand: &Value,
    path: &str,
    label: &str,
    higher_is_better: bool,
    ratio: bool,
    gated: bool,
) {
    let b = lookup(base, path);
    let c = lookup(cand, path);
    let (tolerance, verdict) = match (b, c) {
        (Some(b), Some(c)) => {
            // Regression fraction in the bad direction; <= 0 means the
            // candidate is no worse than the baseline.
            let drift = if higher_is_better {
                (b - c) / b
            } else {
                (c - b) / b
            };
            match (ratio, gated) {
                // Same-run ratios on matching horizons: tight band.
                (true, true) => (
                    "ratio: fail >25% drift",
                    if drift > 0.25 {
                        Verdict::Fail
                    } else {
                        Verdict::Pass
                    },
                ),
                // Ratios still carry signal across smoke/full horizons
                // (a collapse to 1x is a real regression), but short
                // horizons inflate startup effects — loosen the band.
                (true, false) => (
                    "ratio (cross-mode): fail >50% drift",
                    if drift > 0.50 {
                        Verdict::Fail
                    } else {
                        Verdict::Pass
                    },
                ),
                (false, true) if drift > 0.50 => ("abs: warn >20%, fail >50%", Verdict::Fail),
                (false, true) if drift > 0.20 => ("abs: warn >20%, fail >50%", Verdict::Warn),
                (false, true) => ("abs: warn >20%, fail >50%", Verdict::Pass),
                (false, false) => ("not gated (smoke mismatch)", Verdict::Info),
            }
        }
        (None, _) => ("baseline predates metric", Verdict::Info),
        (Some(_), None) => ("metric vanished from candidate", Verdict::Fail),
    };
    rows.push(Row {
        metric: label.to_owned(),
        baseline: b,
        candidate: c,
        tolerance,
        verdict,
    });
}

fn fmt_num(v: Option<f64>) -> String {
    match v {
        None => "—".to_owned(),
        Some(v) if v.abs() >= 1000.0 => format!("{v:.0}"),
        Some(v) => format!("{v:.3}"),
    }
}

fn compare_cluster(base: &Value, cand: &Value, same_mode: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    // Simulated speedup is seed-deterministic; hardware cancels.
    check(
        &mut rows,
        base,
        cand,
        "speedup_1_to_4",
        "1 → 4 host speedup",
        true,
        true,
        same_mode,
    );
    let empty: [Value; 0] = [];
    let cells = base
        .get("cells")
        .and_then(|c| c.as_array())
        .unwrap_or(&empty);
    for (i, cell) in cells.iter().enumerate() {
        let hosts = cell
            .get("hosts")
            .and_then(|h| h.as_f64())
            .map(|h| h as u64)
            .unwrap_or(i as u64);
        // Simulated cloud throughput: deterministic given the seed,
        // but horizon-dependent — gate like a ratio only when the
        // modes match.
        check(
            &mut rows,
            base,
            cand,
            &format!("cells.{i}.cloud_req_per_sec"),
            &format!("{hosts}-host cloud req/s"),
            true,
            true,
            same_mode,
        );
        check(
            &mut rows,
            base,
            cand,
            &format!("cells.{i}.wall_secs"),
            &format!("{hosts}-host wall secs"),
            false,
            false,
            same_mode,
        );
    }
    rows
}

fn compare_geo(base: &Value, cand: &Value, same_mode: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    // Centralized-p99 / geo-p99 over remote regions: a same-run,
    // same-seed ratio — the headline the edge hierarchy must keep.
    check(
        &mut rows,
        base,
        cand,
        "p99_edge_advantage",
        "p99 edge advantage (min remote region)",
        true,
        true,
        same_mode,
    );
    let empty: [Value; 0] = [];
    let regions = base
        .get("regions")
        .and_then(|r| r.as_array())
        .unwrap_or(&empty);
    for (i, region) in regions.iter().enumerate() {
        let r = region
            .get("region")
            .and_then(|r| r.as_f64())
            .map(|r| r as u64)
            .unwrap_or(i as u64);
        check(
            &mut rows,
            base,
            cand,
            &format!("regions.{i}.geo_p99_s"),
            &format!("region {r} geo p99 (s)"),
            false,
            true,
            same_mode,
        );
    }
    check(
        &mut rows,
        base,
        cand,
        "geo_wall_secs",
        "geo run wall secs",
        false,
        false,
        same_mode,
    );
    check(
        &mut rows,
        base,
        cand,
        "central_wall_secs",
        "centralized run wall secs",
        false,
        false,
        same_mode,
    );
    rows
}

fn compare_exec(base: &Value, cand: &Value, same_mode: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    let empty: [Value; 0] = [];
    let cells = base
        .get("cells")
        .and_then(|c| c.as_array())
        .unwrap_or(&empty);
    for (i, cell) in cells.iter().enumerate() {
        let label = |key: &str| {
            cell.get(key)
                .and_then(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| i.to_string())
        };
        let (kernel, size) = (label("kernel"), label("size"));
        // Real wall time and the real/modeled drift ratio both depend
        // on the machine that wrote the baseline, so they take the
        // loose absolute band; a cell missing from the candidate is
        // still a FAIL — kernel×size coverage itself is gated.
        check(
            &mut rows,
            base,
            cand,
            &format!("cells.{i}.real_ms"),
            &format!("{kernel}/{size} real ms"),
            false,
            false,
            same_mode,
        );
        check(
            &mut rows,
            base,
            cand,
            &format!("cells.{i}.drift_ratio"),
            &format!("{kernel}/{size} drift ratio"),
            false,
            false,
            same_mode,
        );
    }
    rows
}

fn compare_storm(base: &Value, cand: &Value, same_mode: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    // Flash-crowd p95 / quiet p95: same-run, same-seed ratio — the
    // degradation bound the scenario plane must keep.
    check(
        &mut rows,
        base,
        cand,
        "p95_degradation",
        "flash-crowd p95 degradation (x quiet)",
        false,
        true,
        same_mode,
    );
    // Offloaded fraction of scripted interaction-storm events:
    // seed-deterministic, hardware-free.
    check(
        &mut rows,
        base,
        cand,
        "storm_offload_fraction",
        "interaction-storm offload fraction",
        true,
        true,
        same_mode,
    );
    let empty: [Value; 0] = [];
    let families = base
        .get("families")
        .and_then(|f| f.as_array())
        .unwrap_or(&empty);
    for (i, fam) in families.iter().enumerate() {
        let name = fam
            .get("family")
            .and_then(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_else(|| i.to_string());
        // Fleet load under each storm is seed-deterministic but
        // horizon-dependent — gate like a ratio only when the modes
        // match; a smoke horizon submits a tenth of a full one.
        check(
            &mut rows,
            base,
            cand,
            &format!("families.{i}.fleet_submitted"),
            &format!("{name} fleet submitted"),
            true,
            same_mode,
            same_mode,
        );
        check(
            &mut rows,
            base,
            cand,
            &format!("families.{i}.wall_secs"),
            &format!("{name} wall secs"),
            false,
            false,
            same_mode,
        );
    }
    rows
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, kind, base_path, cand_path] = &args[..] else {
        eprintln!("usage: perf_gate <cluster|geo|exec|storm> <baseline.json> <candidate.json>");
        return ExitCode::from(2);
    };
    let load = |p: &str| -> Value {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("reading {p}: {e}"));
        json::parse(&text).unwrap_or_else(|e| panic!("parsing {p}: {e}"))
    };
    let (base, cand) = (load(base_path), load(cand_path));

    // Gate absolute rates only when both files were measured in the
    // same mode; a missing flag counts as a mismatch (don't gate on a
    // guess).
    let flag = |v: &Value| match v.get("smoke") {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    };
    let same_mode = matches!((flag(&base), flag(&cand)), (Some(b), Some(c)) if b == c);

    let rows = match kind.as_str() {
        "cluster" => compare_cluster(&base, &cand, same_mode),
        "geo" => compare_geo(&base, &cand, same_mode),
        "exec" => compare_exec(&base, &cand, same_mode),
        "storm" => compare_storm(&base, &cand, same_mode),
        other => {
            eprintln!("unknown bench kind {other:?} (expected cluster|geo|exec|storm)");
            return ExitCode::from(2);
        }
    };

    let mut table = String::new();
    table.push_str(&format!(
        "### perf gate: {kind} ({})\n\n\
         | metric | baseline | candidate | delta | tolerance | status |\n\
         |---|---:|---:|---:|---|---|\n",
        if same_mode {
            "same mode"
        } else {
            "mode mismatch — absolute rates not gated"
        },
    ));
    for r in &rows {
        let delta = match (r.baseline, r.candidate) {
            (Some(b), Some(c)) if b != 0.0 => format!("{:+.1}%", (c - b) / b * 100.0),
            _ => "—".to_owned(),
        };
        table.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            r.metric,
            fmt_num(r.baseline),
            fmt_num(r.candidate),
            delta,
            r.tolerance,
            r.verdict,
        ));
    }
    println!("{table}");
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(summary)
        {
            let _ = writeln!(f, "{table}");
        }
    }

    let fails: Vec<&Row> = rows.iter().filter(|r| r.verdict == Verdict::Fail).collect();
    for r in &fails {
        eprintln!(
            "perf gate FAIL: {} regressed past tolerance ({} -> {})",
            r.metric,
            fmt_num(r.baseline),
            fmt_num(r.candidate)
        );
    }
    if fails.is_empty() {
        println!("perf gate: {} rows, no failures", rows.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
