//! Scenario-plane storm study: flash crowds, correlated outages, noisy
//! neighbors and Android interaction storms against the fleet, each
//! run twice from its seed and scored. Usage: `exp_storm [seed]`
fn main() -> std::process::ExitCode {
    let seed = rattrap_bench::experiments::seed_from_args();
    rattrap_bench::meta::print_header(seed);
    let out = rattrap_bench::experiments::storm::run(seed);
    println!("{}", out.render());
    rattrap_bench::experiments::exit_code(out.scorecard.passed(), out.scorecard.len())
}
