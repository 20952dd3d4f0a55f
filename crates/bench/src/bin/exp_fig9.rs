//! Regenerate the paper's fig9 experiment.
//!
//! Usage: `exp_fig9 [seed] [--trace <path>]`. With `--trace` (or the
//! `RATTRAP_TRACE` env var) it additionally runs one fully
//! instrumented replication and writes a Chrome trace-event JSON —
//! loadable in Perfetto / `chrome://tracing` — to the given path.
fn main() -> std::process::ExitCode {
    let seed = rattrap_bench::experiments::seed_from_args();
    rattrap_bench::meta::print_header(seed);
    let out = rattrap_bench::experiments::fig9::run(seed);
    println!("{}", out.render());
    if let Some(path) = rattrap_bench::traceplane::trace_path() {
        rattrap_bench::traceplane::capture_fig9_trace(seed, &path)
            .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
        println!("trace: one instrumented Rattrap/OCR replication written to {path}");
    }
    rattrap_bench::experiments::exit_code(out.scorecard.passed(), out.scorecard.len())
}
