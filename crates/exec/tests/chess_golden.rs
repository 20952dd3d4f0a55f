//! A fold of every chess search the exec kernel runs, over many seeds.
//!
//! `kernel_goldens.rs` pins chess at one seed per size plus the eight
//! serve-pool seeds. This file widens that to 200 seeds at Small and
//! Medium and 20 at Large. Per seed it folds the search result of the
//! kernel's position (best move, score, node count, completed depth)
//! and `execute_kernel`'s checksum and work units. A faster search has
//! to leave every fold as it is. Regenerate only on a deliberate change
//! of observable output (print the table with
//! `cargo test --release -p exec --test chess_golden -- --nocapture`).
//!
//! A debug build searches tens of times slower, so it checks only the
//! fold of the first few seeds of each size (none at Large); a release
//! build checks both folds.

use exec::{execute_kernel, SizeClass};
use simkit::SimRng;
use workloads::chess::{self, Board, ChessRequest};
use workloads::WorkloadKind;

/// The first kernel-input seed; seed `i` of a size is `FIRST_SEED + i`.
/// The benchmark's eight serve-pool seeds lie among the first 40.
const FIRST_SEED: u64 = 0x5EED_0000;

/// Chess search depth of each size class (`exec::workset`'s params).
fn depth(size: SizeClass) -> u32 {
    match size {
        SizeClass::Small => 3,
        SizeClass::Medium => 4,
        SizeClass::Large => 5,
    }
}

/// `(size, seeds checked in debug, fold over them, seeds checked in
/// release, fold over them)`.
#[rustfmt::skip]
const GOLDEN: [(SizeClass, u64, u64, u64, u64); 3] = [
    (SizeClass::Small, 10, 0xed02ab3cd54f0731, 200, 0xc73ac2a23bb898e5),
    (SizeClass::Medium, 2, 0x70f99c8a648935d7, 200, 0x9e03d91a3025fed3),
    (SizeClass::Large, 0, 0xcbf29ce484222325, 20, 0x2a49c00c2129d9e8),
];

/// FNV-1a over 64-bit words.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The position `execute_kernel` searches at `seed`: six seeded random
/// legal plies from the start.
fn position(seed: u64) -> Board {
    let mut rng = SimRng::new(seed);
    let mut board = Board::start();
    for _ in 0..6 {
        let moves = chess::legal_moves(&board);
        if moves.is_empty() {
            break;
        }
        let mv = moves[rng.uniform_u64(0, moves.len() as u64 - 1) as usize];
        board = chess::apply_move(&board, mv);
    }
    board
}

/// Fold the first `seeds` seeds of `size`.
fn fold(size: SizeClass, seeds: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for seed in FIRST_SEED..FIRST_SEED + seeds {
        let req = ChessRequest {
            fen: position(seed).to_fen(),
            depth: depth(size),
        };
        let r = chess::execute(&req).expect("valid FEN");
        for b in r.best_move.map(|m| m.uci()).unwrap_or_default().bytes() {
            h = mix(h, u64::from(b));
        }
        h = mix(h, r.score as i64 as u64);
        h = mix(h, r.nodes);
        h = mix(h, u64::from(r.depth));
        let out = execute_kernel(WorkloadKind::ChessGame, size, seed);
        assert_eq!(out.work_units, r.nodes, "{} seed {seed:#x}", size.label());
        h = mix(h, out.checksum);
        h = mix(h, out.work_units);
    }
    h
}

/// Checks every fold, printing the table it computed on the way.
#[test]
fn searches_match_committed_folds() {
    let release = !cfg!(debug_assertions);
    let got: Vec<_> = GOLDEN
        .iter()
        .map(|&(size, few, _, many, _)| {
            let (small, full) = (fold(size, few), if release { fold(size, many) } else { 0 });
            println!("    (SizeClass::{size:?}, {few}, 0x{small:016x}, {many}, 0x{full:016x}),");
            (small, full)
        })
        .collect();
    for ((small, full), (size, few, want_small, many, want_full)) in got.into_iter().zip(GOLDEN) {
        assert_eq!(small, want_small, "{}, {few} seeds", size.label());
        if release {
            assert_eq!(full, want_full, "{}, {many} seeds", size.label());
        }
    }
}
