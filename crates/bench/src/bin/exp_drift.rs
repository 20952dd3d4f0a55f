//! Modeled-vs-real kernel latency drift study.
//!
//! Usage: `exp_drift [seed] [--write-calibration]`
//!
//! `--write-calibration` re-measures on this machine and rewrites the
//! committed calibration map (`crates/exec/data/calibration.json`, or
//! the `EXEC_CALIBRATION_OUT` override) from the measured rows, so a
//! config's `calibration` field can deterministically re-price
//! simulated compute with this host's drift ratios. Its summary line
//! goes to stderr, so redirecting stdout records the table alone.
fn main() -> std::process::ExitCode {
    let seed = rattrap_bench::experiments::seed_from_args();
    rattrap_bench::meta::print_header(seed);
    let out = rattrap_bench::experiments::drift::run(seed);
    println!("{}", out.render());

    if std::env::args().any(|a| a == "--write-calibration") {
        let rows =
            rattrap_bench::experiments::drift::sweep(seed, rattrap_bench::experiments::smoke());
        let map = exec::calibration_from_rows(&rows, exec::HostClass::LOCALHOST);
        let path = rattrap_bench::meta::baseline_out(
            "EXEC_CALIBRATION_OUT",
            "crates/exec/data/calibration.json",
        );
        std::fs::write(&path, map.to_json()).expect("write calibration map");
        eprintln!(
            "# calibration: wrote {} entries to {}",
            map.len(),
            path.display()
        );
    }
    rattrap_bench::experiments::exit_code(out.scorecard.passed(), out.scorecard.len())
}
