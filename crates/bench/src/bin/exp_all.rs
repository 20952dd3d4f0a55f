//! Run the entire evaluation: every table and figure, in paper order.
//! Usage: `exp_all [seed]`

use rattrap_bench::experiments as exp;
use rayon::prelude::*;

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let seed = args
        .iter()
        .skip(1)
        .find(|a| a.parse::<u64>().is_ok())
        .and_then(|a| a.parse().ok())
        .unwrap_or(exp::DEFAULT_SEED);
    rattrap_bench::meta::print_header(seed);
    // Each experiment is independent and deterministic given the seed:
    // run them in parallel, print in paper order.
    type Job = (&'static str, fn(u64) -> exp::ExperimentOutput);
    let jobs: Vec<Job> = vec![
        ("fig1", exp::fig1::run),
        ("fig2", exp::fig2::run),
        ("fig3", exp::fig3::run),
        ("osprofile", exp::osprofile::run),
        ("table1", exp::table1::run),
        ("fig9", exp::fig9::run),
        ("table2", exp::table2::run),
        ("fig10", exp::fig10::run),
        ("fig11", exp::fig11::run),
        ("ablations", exp::ablations::run),
        ("scheduler", exp::scheduler::run),
        ("decision", exp::decision::run),
        ("docker", exp::docker::run),
        ("mixed", exp::mixed::run),
        ("robustness", exp::robustness::run),
        ("cluster", exp::cluster::run),
        ("storm", exp::storm::run),
    ];
    let outputs: Vec<(&str, exp::ExperimentOutput)> =
        jobs.par_iter().map(|(name, f)| (*name, f(seed))).collect();
    let mut passed = 0;
    let mut total = 0;
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }
    for (name, out) in &outputs {
        println!("########## {} ##########\n", out.id);
        println!("{}", out.render());
        passed += out.scorecard.passed();
        total += out.scorecard.len();
        if let Some(dir) = &out_dir {
            let path = std::path::Path::new(dir).join(format!("{name}.txt"));
            std::fs::write(&path, out.render()).expect("write experiment output");
        }
    }
    println!("=======================================");
    println!("overall: {passed} / {total} paper-shape checks passed");
    exp::exit_code(passed, total)
}
