//! Regenerate the paper's fig2 experiment. Usage: `exp_fig2 [seed]`
fn main() -> std::process::ExitCode {
    let seed = rattrap_bench::experiments::seed_from_args();
    rattrap_bench::meta::print_header(seed);
    let out = rattrap_bench::experiments::fig2::run(seed);
    println!("{}", out.render());
    rattrap_bench::experiments::exit_code(out.scorecard.passed(), out.scorecard.len())
}
