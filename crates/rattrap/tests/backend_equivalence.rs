//! Compute-pricing equivalence contract.
//!
//! Three guarantees pin `ScenarioConfig::calibration`:
//!
//! 1. **Default inertness** — the default config reproduces the golden
//!    anchor from `golden_determinism.rs` bit for bit, and so does one
//!    carrying the *identity* calibration map explicitly (`modeled ×
//!    1.0` is exact in IEEE arithmetic).
//! 2. **Calibrated determinism** — a run under any calibration map is
//!    bit-identical across repetitions: the map is data, not state.
//! 3. **Default ≡ unit map** — across seeds, platforms, and workloads,
//!    a non-empty map of all-1.0 cells (exact and wildcard keys) gives
//!    the default run's request digest, which is what lets golden and
//!    explorer checks keep running when a calibration map is set.

use exec::{CalEntry, CalibrationMap, HostClass, SizeClass};
use proptest::prelude::*;
use rattrap::platform::PlatformKind;
use rattrap::simulation::{run_scenario, ScenarioConfig};
use workloads::WorkloadKind;

const GOLDEN_SEED: u64 = 0x2017_0529;
/// `Rattrap`/`Ocr` anchor from `golden_determinism.rs` — keep in sync.
const RATTRAP_OCR_GOLDEN: u64 = 0x988d5275376ae587;

fn digest_with(
    platform: PlatformKind,
    kind: WorkloadKind,
    seed: u64,
    calibration: CalibrationMap,
) -> u64 {
    let cfg = ScenarioConfig {
        calibration,
        ..ScenarioConfig::paper_default(platform.config(), kind, seed)
    };
    run_scenario(cfg).digest()
}

fn cell(ratio: f64) -> CalEntry {
    CalEntry {
        ratio,
        wall_micros: 10_000,
        samples: 3,
    }
}

/// Satellite regression for the calibration-table refactor: the
/// default profiles (now read from `workloads::calibration::TABLE`)
/// still drive the engine to the committed golden digest. Guards
/// against any table cell drifting from the original literals.
#[test]
fn calibration_table_defaults_reproduce_the_golden_digest() {
    let cfg = ScenarioConfig::paper_default(
        PlatformKind::Rattrap.config(),
        WorkloadKind::Ocr,
        GOLDEN_SEED,
    );
    assert_eq!(run_scenario(cfg).digest(), RATTRAP_OCR_GOLDEN);
}

#[test]
fn identity_replay_reproduces_the_golden_digest() {
    let digest = digest_with(
        PlatformKind::Rattrap,
        WorkloadKind::Ocr,
        GOLDEN_SEED,
        CalibrationMap::identity(),
    );
    assert_eq!(digest, RATTRAP_OCR_GOLDEN);
}

/// A non-trivial calibration map covering some cells and leaving the
/// rest to the wildcard/default fallbacks.
fn skewed_map(default_ratio: f64, ocr_ratio: f64) -> CalibrationMap {
    let mut map = CalibrationMap::identity();
    map.default_ratio = default_ratio;
    for size in SizeClass::ALL {
        map.insert(format!("OCR/{}/*", size.label()), cell(ocr_ratio));
    }
    map
}

/// Every ratio 1.0, reached through an exact key, a wildcard key and
/// the default.
fn unit_map() -> CalibrationMap {
    let mut map = CalibrationMap::identity();
    for kind in WorkloadKind::ALL {
        let exact = CalibrationMap::key(kind, SizeClass::Small, HostClass::PAPER_SERVER);
        map.insert(exact, cell(1.0));
        map.insert(format!("{}/M/*", kind.label()), cell(1.0));
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Guarantee 2: calibrated runs are bit-identical across
    /// repetitions.
    #[test]
    fn replay_runs_are_bit_identical_across_repetitions(
        seed in 1u64..1_000,
        default_ratio in 0.5f64..2.0,
        ocr_ratio in 0.5f64..2.0,
    ) {
        let map = skewed_map(default_ratio, ocr_ratio);
        let run = |m: &CalibrationMap| {
            digest_with(PlatformKind::Rattrap, WorkloadKind::Ocr, seed, m.clone())
        };
        let first = run(&map);
        prop_assert_eq!(run(&map), first);
        // …including through a JSON round-trip of the map.
        let reparsed = CalibrationMap::from_json(&map.to_json()).unwrap();
        prop_assert_eq!(run(&reparsed), first);
    }

    /// Guarantee 3: the default config and a unit map agree on the full
    /// request digest for any platform × workload × seed.
    #[test]
    fn modeled_equals_identity_replay(
        seed in 1u64..1_000,
        platform_i in 0usize..3,
        kind_i in 0usize..4,
    ) {
        let platform = [
            PlatformKind::VmBaseline,
            PlatformKind::RattrapWithout,
            PlatformKind::Rattrap,
        ][platform_i];
        let kind = WorkloadKind::ALL[kind_i];
        let cfg = ScenarioConfig::paper_default(platform.config(), kind, seed);
        let default = run_scenario(cfg).digest();
        prop_assert_eq!(digest_with(platform, kind, seed, unit_map()), default);
    }
}
