//! The search's exact shortcuts, each checked against the computation
//! it replaces on positions reached by seeded random legal walks:
//! captures-only generation against the filtered full list, the running
//! score against a scan of the pieces, and the legality shortcut against
//! an attack scan of every child.

use super::board::Board;
use super::eval::{evaluate, scanned};
use super::movegen::{apply_move, generate, is_attacked, legal_child, legal_moves};
use super::movegen::{pseudo_legal_moves, King, Move};
use proptest::prelude::*;
use simkit::SimRng;

/// Where walks start: the opening, then four positions rich in
/// castling, pins, en passant and promotions.
const STARTS: [&str; 5] = [
    "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1",
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
    "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
    "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1",
    "rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8",
];

/// Every position of a `plies`-long random legal walk from
/// `STARTS[start]`, the start included, with its pseudo-legal moves
/// and the mover's king square.
fn walk(start: usize, seed: u64, plies: usize) -> Vec<(Board, Vec<Move>, King)> {
    let mut rng = SimRng::new(seed);
    let mut board = Board::from_fen(STARTS[start]).unwrap();
    let mut seen = Vec::new();
    for _ in 0..=plies {
        let mut moves = Vec::new();
        let king = King::new(pseudo_legal_moves(&board, &mut moves));
        let legal = legal_moves(&board);
        seen.push((board.clone(), moves, king));
        if legal.is_empty() {
            break;
        }
        board = apply_move(
            &board,
            legal[rng.uniform_u64(0, legal.len() as u64 - 1) as usize],
        );
    }
    seen
}

proptest! {
    /// Captures-only generation lists exactly the full list's moves onto
    /// an enemy piece, in the same order, and finds the same king.
    #[test]
    fn captures_only_is_the_filtered_full_list(
        start in 0usize..5, seed in any::<u64>(), plies in 0usize..60,
    ) {
        for (board, mut moves, king) in walk(start, seed, plies) {
            moves.retain(|m| board.piece_at(m.to).is_some());
            let mut captures = Vec::new();
            let captures_king = generate(&board, true, &mut captures);
            prop_assert_eq!(&captures, &moves, "{}", board.to_fen());
            prop_assert_eq!(captures_king, king.square);
        }
    }

    /// The score `set_piece` keeps equals a scan of the pieces after
    /// every pseudo-legal move of every position on the walk.
    #[test]
    fn running_score_equals_a_scan(
        start in 0usize..5, seed in any::<u64>(), plies in 0usize..60,
    ) {
        for (board, moves, _) in walk(start, seed, plies) {
            prop_assert_eq!(evaluate(&board), scanned(&board), "{}", board.to_fen());
            for mv in moves {
                let child = apply_move(&board, mv);
                prop_assert_eq!(evaluate(&child), scanned(&child), "{} {}", board.to_fen(), mv.uci());
            }
        }
    }

    /// `legal_child` keeps exactly the pseudo-legal moves after which an
    /// attack scan finds the mover's king safe.
    #[test]
    fn legality_shortcut_agrees_with_the_attack_scan(
        start in 0usize..5, seed in any::<u64>(), plies in 0usize..60,
    ) {
        for (board, moves, mut king) in walk(start, seed, plies) {
            for mv in moves {
                let safe = king.square.is_none_or(|k| {
                    let k = if k == mv.from { mv.to } else { k };
                    !is_attacked(&apply_move(&board, mv), k, board.side.opponent())
                });
                let kept = legal_child(&board, &mut king, mv).is_some();
                prop_assert_eq!(kept, safe, "{} {}", board.to_fen(), mv.uci());
            }
        }
    }
}
