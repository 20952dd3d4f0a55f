//! Property tests for the workload kernels — each implementation is
//! checked against a reference model or an algebraic invariant.

use proptest::prelude::*;
use simkit::SimRng;
use workloads::chess::{apply_move, legal_moves, Board, Color, PieceKind};
use workloads::linpack::{lu_factor, lu_solve, Matrix};
use workloads::ocr::{recognize, render_text};
use workloads::virusscan::AhoCorasick;

/// Naive multi-pattern search as the Aho–Corasick reference.
fn naive_find_all(patterns: &[Vec<u8>], hay: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (pi, pat) in patterns.iter().enumerate() {
        if pat.is_empty() {
            continue;
        }
        for end in pat.len()..=hay.len() {
            if &hay[end - pat.len()..end] == pat.as_slice() {
                out.push((pi, end));
            }
        }
    }
    out.sort_unstable();
    out
}

proptest! {
    /// Aho–Corasick finds exactly what the naive scan finds, for any
    /// patterns and haystack.
    #[test]
    fn aho_corasick_matches_naive(
        patterns in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..6), 1..8),
        hay in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let ac = AhoCorasick::build(&patterns);
        let mut got: Vec<(usize, usize)> =
            ac.find_all(&hay).iter().map(|m| (m.pattern, m.end)).collect();
        got.sort_unstable();
        prop_assert_eq!(got, naive_find_all(&patterns, &hay));
    }

    /// The same over a two- or three-letter alphabet, with an empty and
    /// a repeated pattern: prefixes are shared and failure chains run
    /// deep, which any-byte patterns almost never reach.
    #[test]
    fn aho_corasick_matches_naive_on_a_small_alphabet(
        letters in 2u8..=3,
        words in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..7), 1..10),
        hay in prop::collection::vec(any::<u8>(), 0..300),
        repeat in any::<usize>(),
    ) {
        let spell = |w: &[u8]| w.iter().map(|&b| b'a' + b % letters).collect::<Vec<u8>>();
        let mut patterns: Vec<Vec<u8>> = words.iter().map(|w| spell(w)).collect();
        patterns.push(patterns[repeat % patterns.len()].clone());
        patterns.push(Vec::new());
        let hay = spell(&hay);
        let ac = AhoCorasick::build(&patterns);
        let mut got: Vec<(usize, usize)> =
            ac.find_all(&hay).iter().map(|m| (m.pattern, m.end)).collect();
        got.sort_unstable();
        prop_assert_eq!(got, naive_find_all(&patterns, &hay));
    }

    /// Random legal game walks preserve chess invariants: exactly one
    /// king per side, pawn counts never grow, FEN round-trips.
    #[test]
    fn chess_random_walk_invariants(seed in any::<u64>(), plies in 1usize..40) {
        let mut rng = SimRng::new(seed);
        let mut board = Board::start();
        for _ in 0..plies {
            let moves = legal_moves(&board);
            if moves.is_empty() {
                break; // mate or stalemate
            }
            let mv = moves[rng.uniform_u64(0, moves.len() as u64 - 1) as usize];
            board = apply_move(&board, mv);
            for color in [Color::White, Color::Black] {
                let own = || board.pieces().filter(move |(_, p)| p.color == color);
                let kings = own().filter(|(_, p)| p.kind == PieceKind::King).count();
                prop_assert_eq!(kings, 1, "exactly one {:?} king", color);
                let pawns = own().filter(|(_, p)| p.kind == PieceKind::Pawn).count();
                prop_assert!(pawns <= 8);
                prop_assert!(own().count() <= 16);
            }
            let fen = board.to_fen();
            prop_assert_eq!(Board::from_fen(&fen).unwrap().to_fen(), fen);
        }
    }

    /// The side NOT to move is never in check (kings can't be captured).
    #[test]
    fn chess_opponent_never_left_in_check(seed in any::<u64>(), plies in 1usize..30) {
        let mut rng = SimRng::new(seed);
        let mut board = Board::start();
        for _ in 0..plies {
            let moves = legal_moves(&board);
            if moves.is_empty() {
                break;
            }
            let mv = moves[rng.uniform_u64(0, moves.len() as u64 - 1) as usize];
            board = apply_move(&board, mv);
            prop_assert!(
                !workloads::chess::in_check(&board, board.side.opponent()),
                "mover left their king hanging after {}",
                mv.uci()
            );
        }
    }

    /// LU solve: A·x recovers b for random well-conditioned systems.
    #[test]
    fn linpack_solves_random_systems(seed in any::<u64>(), n in 2usize..40) {
        let mut rng = SimRng::new(seed);
        let mut a = Matrix::random(n, &mut rng);
        // Diagonal dominance guarantees nonsingularity.
        for i in 0..n {
            let v = a.get(i, i) + n as f64;
            a.set(i, i, v);
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.5).collect();
        let b = a.mul_vec(&x_true);
        let mut lu = a.clone();
        let piv = lu_factor(&mut lu).expect("diagonally dominant");
        let x = lu_solve(&lu, &piv, &b);
        for (got, want) in x.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    /// OCR round-trips any clean text over its alphabet.
    #[test]
    fn ocr_clean_roundtrip(words in prop::collection::vec("[A-Z0-9]{1,8}", 1..5)) {
        let text = words.join(" ");
        let img = render_text(&text);
        let r = recognize(&img);
        prop_assert_eq!(r.text, text);
        prop_assert!(r.confidence > 0.99);
    }
}
