//! A fold of every VirusScan and Linpack run the exec kernel makes,
//! over many seeds.
//!
//! `kernel_goldens.rs` pins both kernels at one seed per size plus the
//! eight serve-pool seeds. This file widens that to 200 seeds at every
//! size. Per seed it folds, for VirusScan, the scan's detections
//! `(file, signature)` and bytes scanned; for Linpack, the bits of the
//! residual and the normalised residual; for both, `execute_kernel`'s
//! checksum and work units. A faster automaton or elimination has to
//! leave every fold as it is. Regenerate only on a deliberate change of
//! observable output (print the table with
//! `cargo test --release -p exec --test scan_linpack_golden -- --nocapture`).
//!
//! A debug build runs both kernels tens of times slower, so it checks
//! only the fold of the first few seeds of each cell; a release build
//! checks both folds.

use exec::{execute_kernel, SizeClass};
use simkit::SimRng;
use workloads::{linpack, virusscan, WorkloadKind};

/// The first kernel-input seed; seed `i` of a cell is `FIRST_SEED + i`.
/// The benchmark's eight serve-pool seeds lie among the first 40.
const FIRST_SEED: u64 = 0x5EED_0000;

/// VirusScan's signature-database size and infection rate, and its
/// mean file size (`exec::workset`'s constants).
const SCAN_DB_SIGS: usize = 64;
const SCAN_INFECTION_RATE: f64 = 0.25;
const SCAN_MEAN_BYTES: usize = 2048;

/// VirusScan corpus file count of each size class.
fn scan_files(size: SizeClass) -> usize {
    match size {
        SizeClass::Small => 8,
        SizeClass::Medium => 24,
        SizeClass::Large => 64,
    }
}

/// Linpack matrix order of each size class.
fn linpack_n(size: SizeClass) -> usize {
    match size {
        SizeClass::Small => 80,
        SizeClass::Medium => 140,
        SizeClass::Large => 220,
    }
}

/// `(kind, size, seeds checked in debug, fold over them, seeds checked
/// in release, fold over them)`.
#[rustfmt::skip]
const GOLDEN: [(WorkloadKind, SizeClass, u64, u64, u64, u64); 6] = [
    (WorkloadKind::VirusScan, SizeClass::Small, 8, 0x7211f0c81a6e7611, 200, 0x7bc74dc850cfc088),
    (WorkloadKind::VirusScan, SizeClass::Medium, 4, 0x9b3d5dea6ae666e7, 200, 0xf300faef672046cf),
    (WorkloadKind::VirusScan, SizeClass::Large, 2, 0x1f5ad4330826595f, 200, 0x72a06190766f4f48),
    (WorkloadKind::Linpack, SizeClass::Small, 8, 0xf6308617e35fdd21, 200, 0xf96c6721b6fb317d),
    (WorkloadKind::Linpack, SizeClass::Medium, 4, 0x335c2c086801e292, 200, 0xa55430061d04981c),
    (WorkloadKind::Linpack, SizeClass::Large, 2, 0xda10a55be26b193e, 200, 0x24af6d3b7249fcc2),
];

/// FNV-1a over 64-bit words.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Fold what the kernel itself reports at `seed`, built from the same
/// seeded input `execute_kernel` builds.
fn fold_kernel(mut h: u64, kind: WorkloadKind, size: SizeClass, seed: u64) -> u64 {
    let mut rng = SimRng::new(seed);
    match kind {
        WorkloadKind::VirusScan => {
            let db = virusscan::generate_database(SCAN_DB_SIGS, &mut rng);
            let corpus = virusscan::generate_corpus(
                scan_files(size),
                SCAN_MEAN_BYTES,
                SCAN_INFECTION_RATE,
                &db,
                &mut rng,
            );
            let r = virusscan::scan(&db, &corpus);
            for (file, sig) in r.detections {
                h = mix(h, file as u64);
                h = mix(h, sig as u64);
            }
            mix(h, r.bytes_scanned)
        }
        WorkloadKind::Linpack => {
            let r = linpack::run(linpack_n(size), &mut rng).expect("non-singular");
            h = mix(h, r.residual.to_bits());
            mix(h, r.normalized_residual.to_bits())
        }
        _ => unreachable!("this file folds VirusScan and Linpack only"),
    }
}

/// Fold the first `seeds` seeds of the `(kind, size)` cell.
fn fold(kind: WorkloadKind, size: SizeClass, seeds: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for seed in FIRST_SEED..FIRST_SEED + seeds {
        h = fold_kernel(h, kind, size, seed);
        let out = execute_kernel(kind, size, seed);
        h = mix(h, out.checksum);
        h = mix(h, out.work_units);
    }
    h
}

/// Checks every fold, printing the table it computed on the way.
#[test]
fn scans_and_factorisations_match_committed_folds() {
    let release = !cfg!(debug_assertions);
    let got: Vec<_> = GOLDEN
        .iter()
        .map(|&(kind, size, few, _, many, _)| {
            let small = fold(kind, size, few);
            let full = if release { fold(kind, size, many) } else { 0 };
            println!(
                "    (WorkloadKind::{kind:?}, SizeClass::{size:?}, {few}, 0x{small:016x}, {many}, 0x{full:016x}),"
            );
            (small, full)
        })
        .collect();
    for ((small, full), (kind, size, few, want_small, many, want_full)) in
        got.into_iter().zip(GOLDEN)
    {
        let cell = format!("{}/{}", kind.label(), size.label());
        assert_eq!(small, want_small, "{cell}, {few} seeds");
        if release {
            assert_eq!(full, want_full, "{cell}, {many} seeds");
        }
    }
}
