//! Pinned output checksums for every real kernel at two input sizes.
//!
//! `Real` execution is verifiable because kernel outputs are pure
//! functions of `(kind, size, seed)`. These goldens pin that contract:
//! a checksum change means a kernel's observable output changed, which
//! invalidates the committed calibration map and every serve-API
//! response comparison. Regenerate deliberately (print the table with
//! `cargo test -p exec --test kernel_goldens -- --nocapture`) and
//! re-record `crates/exec/data/calibration.json` when you do.

use exec::{execute_kernel, SizeClass};
use workloads::WorkloadKind;

/// The seed every golden cell is pinned at (the paper's date, like the
/// engine goldens).
const GOLDEN_SEED: u64 = 0x2017_0529;

/// `(kind, size, checksum)` — regenerated via `print_golden_table`.
const GOLDEN: [(WorkloadKind, SizeClass, u64); 8] = [
    (WorkloadKind::Ocr, SizeClass::Small, 0x02c46ac9549f8e7a),
    (WorkloadKind::Ocr, SizeClass::Medium, 0x5a993172c8864ab5),
    (
        WorkloadKind::ChessGame,
        SizeClass::Small,
        0x2db98882b5bd7e8a,
    ),
    (
        WorkloadKind::ChessGame,
        SizeClass::Medium,
        0x6ed2ccea8b708657,
    ),
    (
        WorkloadKind::VirusScan,
        SizeClass::Small,
        0x738b0906b0855336,
    ),
    (
        WorkloadKind::VirusScan,
        SizeClass::Medium,
        0x7eefd7971e32f3c6,
    ),
    (WorkloadKind::Linpack, SizeClass::Small, 0x8e8ca94974d8cfc1),
    (WorkloadKind::Linpack, SizeClass::Medium, 0x6b974adeaf8be133),
];

/// The eight kernel-input seeds the benchmark's serve workloads draw
/// from (`benchmark/src/serve.rs`, `POOLS`): the inputs a served
/// request actually runs.
const POOL_SEEDS: [u64; 8] = [
    0x5EED_0006,
    0x5EED_0009,
    0x5EED_001F,
    0x5EED_0000,
    0x5EED_000A,
    0x5EED_0013,
    0x5EED_0021,
    0x5EED_0026,
];

/// The cells the serve workloads send (`serve_heavy`'s chess, OCR and
/// VirusScan L; `serve_connect` and `serve_session`'s Linpack S/M and
/// VirusScan S), with the seed order of [`POOL_SEEDS`].
const POOL_CELLS: [(WorkloadKind, SizeClass); 8] = [
    (WorkloadKind::ChessGame, SizeClass::Small),
    (WorkloadKind::ChessGame, SizeClass::Medium),
    (WorkloadKind::Ocr, SizeClass::Medium),
    (WorkloadKind::Ocr, SizeClass::Large),
    (WorkloadKind::Linpack, SizeClass::Small),
    (WorkloadKind::Linpack, SizeClass::Medium),
    (WorkloadKind::VirusScan, SizeClass::Small),
    (WorkloadKind::VirusScan, SizeClass::Large),
];

/// `(checksum, work_units)` per [`POOL_CELLS`] row × [`POOL_SEEDS`]
/// column — regenerated via `print_golden_table`. A kernel rewrite that
/// keeps these does the same work: same best move, score and node
/// count; same text, comparison count and confidence bits; same
/// detections and bytes scanned; same residual bits.
const POOL_GOLDEN: [[(u64, u64); 8]; 8] = [
    // ChessGame/S
    [
        (0xe2cdbeb910e51d16, 1697),
        (0xb4597402c18a3026, 5061),
        (0xeb5b69165c5e1637, 2633),
        (0x1416f4f1eaf5a42a, 3275),
        (0x7ef3e94f3e55c135, 4371),
        (0x3a551f1b7843583c, 1884),
        (0x2f6aa848232b0348, 2058),
        (0xdd8d514f9cff68dc, 2061),
    ],
    // ChessGame/M
    [
        (0x1053e2fbbb387ce9, 15328),
        (0x5b25dd28edb2497d, 18806),
        (0x313bbc436cbe9f87, 16969),
        (0x692666ed4caae292, 18112),
        (0xa36abe18b7b12b07, 15500),
        (0x37ea0825d031c52f, 13334),
        (0xcc674595f26d2b6f, 14811),
        (0x163f8f2b3d3974f5, 20604),
    ],
    // OCR/M
    [
        (0x35d3052fdfaabebf, 2664),
        (0xcd4a9afd4f703889, 2553),
        (0xde940ef2816d00bc, 2701),
        (0x1234845fa94737e9, 2886),
        (0xc344f9ec065616fd, 2627),
        (0x30832f999fd5a05f, 2664),
        (0x37b1c1b890448ba1, 2442),
        (0x4ed66c7a8e2d62d0, 2590),
    ],
    // OCR/L
    [
        (0x4418b9b55524308f, 6401),
        (0xca13144ebf910370, 6253),
        (0x37542e7dfe405118, 6401),
        (0xd826141fed485cfe, 6660),
        (0x4e77434369a60c1a, 6327),
        (0x89b6195a605220b2, 6290),
        (0xd641bc5f8cba78b5, 6253),
        (0x1c3afe8a60671800, 6438),
    ],
    // Linpack/S
    [
        (0xa5366b930dcf47ce, 354133),
        (0xe0f3e68d7f720cc7, 354133),
        (0xb4425307ec3433ad, 354133),
        (0x8f7dc964a7c92ba5, 354133),
        (0xa6b0b1652a10549c, 354133),
        (0x2d0a674bd4de5056, 354133),
        (0x1d93c054051ba126, 354133),
        (0x2f3685d2500b84dd, 354133),
    ],
    // Linpack/M
    [
        (0x86a6768715a24bed, 1868533),
        (0x01d091e05af46276, 1868533),
        (0x2e575597f67b69ba, 1868533),
        (0x22f2f68e47fdf209, 1868533),
        (0xc591bb9f3c2b219b, 1868533),
        (0x71ecfc6781516db5, 1868533),
        (0x978559c3159759f6, 1868533),
        (0x05a72428221a5928, 1868533),
    ],
    // VirusScan/S
    [
        (0xcac333fdd7d12b62, 15428),
        (0x22d4377679efdd98, 14563),
        (0x3029bf35182bfa10, 15204),
        (0x2cf5e841bfc9e11b, 18169),
        (0x79b21b993084c0a1, 15125),
        (0x4fb4bf1a2a6c2d7f, 15336),
        (0x53f6697a4c7a98fe, 17949),
        (0x5733cd3924d77529, 16241),
    ],
    // VirusScan/L
    [
        (0x0e3a6f931966346c, 131895),
        (0x0694fb98e1e1a66b, 126610),
        (0x028f3c4098ec6eb3, 134439),
        (0xf6c0c6fde90eed5f, 132265),
        (0x61cd8bce9ae0d894, 136116),
        (0xe3715d231811859d, 120986),
        (0x1490a18d8bc8b2d9, 133226),
        (0x0170ae5458c8e8aa, 128619),
    ],
];

#[test]
fn print_golden_table() {
    for kind in WorkloadKind::ALL {
        for size in [SizeClass::Small, SizeClass::Medium] {
            let out = execute_kernel(kind, size, GOLDEN_SEED);
            println!(
                "    (WorkloadKind::{:?}, SizeClass::{:?}, 0x{:016x}),",
                kind, size, out.checksum
            );
        }
    }
    for (kind, size) in POOL_CELLS {
        println!("    // {}/{}", kind.label(), size.label());
        println!("    [");
        for seed in POOL_SEEDS {
            let out = execute_kernel(kind, size, seed);
            println!("        (0x{:016x}, {}),", out.checksum, out.work_units);
        }
        println!("    ],");
    }
}

#[test]
fn outputs_match_committed_checksums() {
    for (kind, size, want) in GOLDEN {
        let got = execute_kernel(kind, size, GOLDEN_SEED).checksum;
        assert_eq!(got, want, "{}/{}", kind.label(), size.label());
    }
}

#[test]
fn serve_pool_outputs_match_committed_goldens() {
    for ((kind, size), row) in POOL_CELLS.into_iter().zip(POOL_GOLDEN) {
        for (seed, want) in POOL_SEEDS.into_iter().zip(row) {
            let out = execute_kernel(kind, size, seed);
            assert_eq!(
                (out.checksum, out.work_units),
                want,
                "{}/{} seed {seed:#x}: {}",
                kind.label(),
                size.label(),
                out.detail
            );
        }
    }
}
