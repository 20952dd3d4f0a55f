//! Mega stress study: one million users against a 256-host fleet
//! (32 hosts / 20k users in smoke mode). Usage: `exp_mega [seed]`
fn main() -> std::process::ExitCode {
    let seed = rattrap_bench::experiments::seed_from_args();
    rattrap_bench::meta::print_header(seed);
    let out =
        rattrap_bench::experiments::cluster::run_mega(seed, rattrap_bench::experiments::smoke());
    println!("{}", out.render());
    rattrap_bench::experiments::exit_code(out.scorecard.passed(), out.scorecard.len())
}
