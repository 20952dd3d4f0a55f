//! The full experiment harness end-to-end: every table and figure
//! regenerates and passes its paper-shape scorecard on a seed other
//! than the default (guarding against seed-tuned results).

use rattrap_bench::experiments as exp;

const ALT_SEED: u64 = 0xA17E;

#[test]
fn table1_scorecard_passes_on_alternate_seed() {
    let out = exp::table1::run(ALT_SEED);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn fig1_scorecard_passes_on_alternate_seed() {
    let out = exp::fig1::run(ALT_SEED);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn fig3_scorecard_passes_on_alternate_seed() {
    let out = exp::fig3::run(ALT_SEED);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn fig9_scorecard_passes_on_alternate_seed() {
    let out = exp::fig9::run(ALT_SEED);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn table2_scorecard_passes_on_alternate_seed() {
    let out = exp::table2::run(ALT_SEED);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn fig11_scorecard_passes_on_alternate_seed() {
    let out = exp::fig11::run(ALT_SEED);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn osprofile_scorecard_is_seed_independent() {
    let out = exp::osprofile::run(ALT_SEED);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn ablations_scorecard_passes_on_alternate_seed() {
    let out = exp::ablations::run(ALT_SEED);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn cluster_scorecard_passes_on_alternate_seed() {
    // Explicit smoke scale: the scorecard's scaling, fault-evidence,
    // and elasticity contracts must hold even on the shrunk run.
    let out = exp::cluster::run_scaled(ALT_SEED, true);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn geo_scorecard_passes_on_alternate_seed() {
    // The edge-vs-centralized p99 win, cloud-burst, and migration
    // contracts must hold even on the shrunk run.
    let out = exp::geo::run_scaled(ALT_SEED, true);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn storm_scorecard_passes_on_alternate_seed() {
    // The flash-crowd p95 bound (≤ 1.5x quiet), zero-loss and
    // suppression contracts must hold even on the shrunk run.
    let out = exp::storm::run_scaled(ALT_SEED, true);
    assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
}

#[test]
fn experiment_bodies_are_deterministic() {
    let a = exp::fig9::run(42);
    let b = exp::fig9::run(42);
    assert_eq!(a.body, b.body);
    let c = exp::fig9::run(43);
    assert_ne!(c.body, a.body, "different seed, different samples");
}
