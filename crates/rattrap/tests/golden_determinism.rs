//! Golden determinism contract for the simulation engine.
//!
//! Runs the paper-default scenario for every platform × two workloads
//! at a fixed seed and pins the canonical digest of the full
//! [`SimulationReport`] (every request field, the per-second
//! timelines, and all counters). Any engine change that shifts a
//! single microsecond, byte, or float bit in observable output fails
//! here.
//!
//! If a change is *meant* to alter results, regenerate the constants
//! with:
//!
//! ```text
//! cargo test -p rattrap --test golden_determinism -- --nocapture
//! ```
//!
//! and copy the `GOLDEN` table printed by the failing test — but treat
//! that as an interface change, not a routine update.

use obsv::{Recorder, RecorderConfig};
use rattrap::platform::PlatformKind;
use rattrap::simulation::{run_scenario, ScenarioConfig, Simulation};
use workloads::WorkloadKind;

const GOLDEN_SEED: u64 = 0x2017_0529;

/// (platform, workload, digest) — regenerate per the module docs.
const GOLDEN: &[(PlatformKind, WorkloadKind, u64)] = &[
    (
        PlatformKind::VmBaseline,
        WorkloadKind::Ocr,
        0x6d96c6bde469f110,
    ),
    (
        PlatformKind::RattrapWithout,
        WorkloadKind::Ocr,
        0x256e66f827b2e478,
    ),
    (PlatformKind::Rattrap, WorkloadKind::Ocr, 0x988d5275376ae587),
    (
        PlatformKind::VmBaseline,
        WorkloadKind::ChessGame,
        0x97c8e42d90150c02,
    ),
    (
        PlatformKind::RattrapWithout,
        WorkloadKind::ChessGame,
        0x72954e4daf2737e8,
    ),
    (
        PlatformKind::Rattrap,
        WorkloadKind::ChessGame,
        0x412b19c69fb41ff3,
    ),
];

fn digest_of(platform: PlatformKind, workload: WorkloadKind) -> u64 {
    let cfg = ScenarioConfig::paper_default(platform.config(), workload, GOLDEN_SEED);
    run_scenario(cfg).digest()
}

#[test]
fn reports_match_committed_digests() {
    let mut mismatches = Vec::new();
    for &(platform, workload, expected) in GOLDEN {
        let actual = digest_of(platform, workload);
        println!("    (PlatformKind::{platform:?}, WorkloadKind::{workload:?}, {actual:#018x}),");
        if actual != expected {
            mismatches.push(format!(
                "{}/{:?}: expected {expected:#018x}, got {actual:#018x}",
                platform.label(),
                workload
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulation output drifted from the golden digests \
         (see module docs to regenerate deliberately):\n{}",
        mismatches.join("\n")
    );
}

/// The observability plane's determinism contract: a fully
/// instrumented run — recorder enabled, every subsystem recording,
/// every exporter executed on the result — reproduces all six golden
/// digests bit-for-bit. Recording is observational only; if tracing
/// ever feeds back into scheduling, pricing, or RNG draws, this fails.
#[test]
fn instrumented_runs_reproduce_all_golden_digests() {
    for &(platform, workload, expected) in GOLDEN {
        let cfg = ScenarioConfig::paper_default(platform.config(), workload, GOLDEN_SEED);
        let mut sim = Simulation::new(cfg);
        let rec = Recorder::enabled(RecorderConfig::default());
        sim.set_recorder(rec.clone());
        let actual = sim.run().digest();
        assert_eq!(
            actual,
            expected,
            "{}/{:?}: tracing perturbed the simulation",
            platform.label(),
            workload
        );
        // Run every exporter over the captured trace; none may panic
        // and each must produce non-trivial output.
        let snap = rec.snapshot();
        assert!(!snap.events.is_empty(), "instrumented run recorded events");
        let chrome = snap.chrome_trace();
        assert!(obsv::json::parse(&chrome).is_ok(), "chrome trace parses");
        let some_req = snap.events.iter().find_map(|e| e.request());
        let timeline = snap.request_timeline(some_req.expect("a request-attributed event"));
        assert!(timeline.contains("causal timeline"));
    }
}

#[test]
fn digests_are_stable_across_runs_in_process() {
    let a = digest_of(PlatformKind::Rattrap, WorkloadKind::Ocr);
    let b = digest_of(PlatformKind::Rattrap, WorkloadKind::Ocr);
    assert_eq!(a, b, "same config + seed must be bit-identical");
}

#[test]
fn digests_distinguish_seeds_and_platforms() {
    let base = digest_of(PlatformKind::Rattrap, WorkloadKind::Ocr);
    let other_platform = digest_of(PlatformKind::VmBaseline, WorkloadKind::Ocr);
    assert_ne!(base, other_platform, "digest must see platform differences");
    let cfg = ScenarioConfig::paper_default(
        PlatformKind::Rattrap.config(),
        WorkloadKind::Ocr,
        GOLDEN_SEED + 1,
    );
    assert_ne!(
        base,
        run_scenario(cfg).digest(),
        "digest must see seed differences"
    );
}

/// The repo benchmark's `paper_replay` workload (`benchmark/src/sim.rs`:
/// one 70-user LiveLab trace, Fig. 11's session parameters, on 3
/// platforms × 4 apps) for seed 7 at its `--smoke` horizon, a tenth of
/// the full one. `benchmark/check.sh` pins the same twelve runs, but
/// only behind `RATTRAP_BENCH_SMOKE=1`; here a plain `cargo test`
/// notices an engine change that moves the one workload that crosses VM
/// boot, cold starts, insmod and union mounts at volume.
#[test]
fn benchmark_paper_shape_is_pinned_at_smoke_horizon() {
    let horizon = simkit::SimDuration::from_secs(4 * 3600 / 10);
    let traffic = traces::TraceConfig::fig11(70, horizon, 7);
    let trace = traces::generate(&traffic);
    let (mut fold, mut requests) = (rattrap::ReportHasher::new(), 0);
    for platform in PlatformKind::ALL {
        for kind in WorkloadKind::ALL {
            let cell = traces::replay_scenario(&traffic, &trace, platform, kind);
            let report = run_scenario(cell);
            requests += report.requests.len();
            fold.write_u64(report.digest());
        }
    }
    assert_eq!(requests, 8_112, "paper_replay: arrivals moved");
    assert_eq!(
        fold.finish(),
        0xcf28_6f17_b07c_dfdf,
        "paper_replay at smoke horizon moved: {:#018x}",
        fold.finish()
    );
}
