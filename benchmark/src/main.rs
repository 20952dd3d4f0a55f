//! The repo-wide benchmark: `exec_serve` over real TCP plus the fleet
//! and paper simulators, six named workloads, one command.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark [--seed N] [--traced] [--smoke] [--selfcheck]
//! ```
//!
//! With `--workload`, one run of that workload in this process: the
//! metrics by name with units, then — as the last line of stdout — one
//! JSON object `{correct, attempted, failed, metrics}`. `--trace 0`
//! (the default) reports the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics and writes
//! `benchmark/out/<workload>.trace.json`.
//!
//! Without `--workload`, every workload in a child process of its own
//! (so `peak_rss_mb` is per workload), summarised in one table.
//! `--selfcheck` runs that set twice (each workload's two runs back to
//! back) and fails if any end-to-end metric's two readings differ by
//! more than its bound.
//!
//! See `README.md` for what each workload and metric is for.

mod probe;
mod serve;
mod sim;
mod span;
mod spec;
mod stats;
mod sys;

use obsv::json::{self, Value};
use spec::{MetricDef, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Regression bounds of the end-to-end metrics, read from the same
/// `BENCHMARK.json` the driver reads (embedded at build time).
fn bounds() -> BTreeMap<String, f64> {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let rows = doc.get("end_to_end").and_then(Value::as_array);
    rows.expect("BENCHMARK.json lists end_to_end")
        .iter()
        .filter_map(|row| {
            Some((
                row.get("name")?.as_str()?.to_owned(),
                row.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl RunArgs {
    /// Time each per-layer probe may spend: the traced run of a
    /// simulator workload gives its 25 probes 40 % of the run.
    pub fn probe_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.4 / 25.0)
    }
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted, and those that failed: refused, errored,
    /// wrong checksum, not terminal, or part of a repetition whose
    /// digest is wrong. A failed request is in no latency figure.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, for the log.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Benchmark-side spans of a traced run.
    pub trace: Option<span::Trace>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

struct Cli {
    workload: Option<Workload>,
    run: RunArgs,
    selfcheck: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: spec::DEFAULT_SEED,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
        },
        selfcheck: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.run.seconds > 0.0 && cli.run.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => cli.run.trace = true,
            "--smoke" => cli.run.smoke = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.run.smoke {
        cli.run.seconds = cli.run.seconds.min(2.0);
    }
    Ok(cli)
}

fn run_workload(workload: Workload, args: &RunArgs) -> Outcome {
    match workload {
        Workload::ServeConnect => serve::run(&serve::SERVE_CONNECT, args),
        Workload::ServeSession => serve::run(&serve::SERVE_SESSION, args),
        Workload::ServeHeavy => serve::run(&serve::SERVE_HEAVY, args),
        Workload::FleetDense => sim::run(&sim::FLEET_DENSE, args),
        Workload::FleetLong => sim::run(&sim::FLEET_LONG, args),
        Workload::PaperReplay => sim::run(&sim::PAPER_REPLAY, args),
    }
}

fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.json", workload.name()))
}

/// One workload, in this process. Prints the metrics for a reader and
/// then the result line for the driver; returns whether all checks held.
fn single(workload: Workload, args: &RunArgs) -> bool {
    let provenance = sys::provenance(args.seed);
    let header: Vec<String> = provenance.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "# benchmark workload={} seconds={} trace={} smoke={} {}",
        workload.name(),
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        header.join(" "),
    );
    let mut outcome = run_workload(workload, args);
    for note in &outcome.notes {
        println!("# {note}");
    }

    // Every run reports every metric of its table; a layer the
    // workload does not exercise reads 0.
    let table: &[MetricDef] = if args.trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let measured: BTreeMap<&str, f64> = outcome.metrics.iter().copied().collect();
    let mut fields = Vec::new();
    for def in table {
        let value = measured.get(def.name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            outcome.problems.push(format!("{} is not finite", def.name));
        }
        if measured.contains_key(def.name) {
            println!("{:<40} {:>16.4} {}", def.name, value, def.unit);
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            if value.is_finite() { value } else { 0.0 },
            def.unit
        ));
    }

    if let Some(trace) = &outcome.trace {
        let path = trace_path(workload);
        let mut meta = vec![("workload", workload.name().to_owned())];
        meta.extend(provenance.iter().map(|(k, v)| (*k, v.clone())));
        let written = std::fs::create_dir_all(path.parent().expect("out dir"))
            .and_then(|()| std::fs::write(&path, trace.to_json(&meta)));
        match written {
            Ok(()) => println!(
                "# {} spans written to {}",
                trace.spans().len(),
                path.display()
            ),
            Err(e) => outcome
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    for problem in &outcome.problems {
        println!("# CHECK FAILED: {problem}");
    }
    println!(
        "# attempted={} failed={} fail_share={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    outcome.correct()
}

/// The result line of one child run, parsed back.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process of this executable.
fn child(workload: Workload, args: &RunArgs, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    // The child's own report (sample counts, every metric with its
    // unit, failed checks), minus the result line parsed below.
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("  {line}");
    }
    let doc = json::parse(last).map_err(|e| {
        format!(
            "no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    Ok(ChildResult {
        correct: matches!(doc.get("correct"), Some(Value::Bool(true))) && output.status.success(),
        metrics: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Every workload once (plus its traced run with `--traced`), one
/// report. Returns whether every output check held.
fn suite(args: &RunArgs) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        println!("== {} ==", workload.name());
        let plain = match child(workload, args, false) {
            Ok(r) => r,
            Err(e) => {
                println!("  FAILED to run: {e}");
                ok = false;
                continue;
            }
        };
        ok &= plain.correct;
        if !args.trace {
            continue;
        }
        match child(workload, args, true) {
            Ok(traced) => {
                ok &= traced.correct;
                for (traced_name, plain_name) in [
                    ("traced.req_per_s", "req_per_s"),
                    ("traced.latency_p50_ms", "latency_p50_ms"),
                ] {
                    let (t, p) = (traced.metrics[traced_name], plain.metrics[plain_name]);
                    println!(
                        "  traced vs untraced {plain_name}: {t:.4} vs {p:.4} ({:+.1} %)",
                        100.0 * (t - p) / p
                    );
                }
            }
            Err(e) => {
                println!("  FAILED to run traced: {e}");
                ok = false;
            }
        }
    }
    ok
}

/// The full set twice — each workload's two runs back to back, so
/// that they see the same machine — and every end-to-end metric must
/// agree with itself within its own bound.
fn selfcheck(args: &RunArgs) -> bool {
    let bounds = bounds();
    let mut ok = true;
    let mut table = Vec::new();
    for workload in Workload::ALL {
        println!("== {} (twice) ==", workload.name());
        let (first, second) = match (child(workload, args, false), child(workload, args, false)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                println!("  FAILED to run: {e}");
                ok = false;
                continue;
            }
        };
        ok &= first.correct && second.correct;
        for def in &spec::END_TO_END {
            let (a, b) = (first.metrics[def.name], second.metrics[def.name]);
            let spread = stats::rel_diff(a, b);
            let within = spread <= bounds[def.name];
            ok &= within;
            table.push(format!(
                "{:<14} {:<16} {a:>14.4} {b:>14.4}  spread {:>6.2} %  bound {:>4.0} %  {}",
                workload.name(),
                def.name,
                spread * 100.0,
                bounds[def.name] * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            ));
        }
    }
    println!("#### selfcheck: spread between the two runs ####");
    for row in table {
        println!("{row}");
    }
    ok
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match cli.workload {
        Some(workload) => single(workload, &cli.run),
        None if cli.selfcheck => selfcheck(&cli.run),
        None => {
            println!(
                "# {}",
                sys::provenance(cli.run.seed)
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            suite(&cli.run)
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
