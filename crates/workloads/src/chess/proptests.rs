//! The search's exact shortcuts, each checked against the computation
//! it replaces on positions reached by seeded random legal walks: the
//! square tables' generation and attack test against the offset walk,
//! captures-only generation against the filtered full list, the running
//! score and the per-kind bits against a scan of the pieces, the
//! legality shortcut against an attack scan of every child, and the
//! lazy any-legal test against the full legal list.

use super::board::{Board, Color, PieceKind, Square};
use super::eval::{evaluate, scanned};
use super::movegen::{any_legal, apply_move, generate, is_attacked, is_legal, legal_child};
use super::movegen::{legal_moves, pseudo_legal_moves, King, Move};
use super::reference;
use proptest::prelude::*;
use simkit::SimRng;

/// Where walks start: the opening, then four positions rich in
/// castling, pins, en passant and promotions, and one whose en-passant
/// capture uncovers a diagonal to the mover's king.
const STARTS: [&str; 6] = [
    "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1",
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
    "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
    "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1",
    "rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8",
    "6b1/8/8/3pP3/8/8/K7/7k w - d6 0 1",
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

const KINDS: [PieceKind; 6] = [
    PieceKind::Pawn,
    PieceKind::Knight,
    PieceKind::Bishop,
    PieceKind::Rook,
    PieceKind::Queen,
    PieceKind::King,
];

proptest! {
    /// The tables' generator emits the offset walk's moves in the same
    /// order, full and captures-only, and finds the same king.
    #[test]
    fn table_generation_is_the_offset_walk(
        start in 0usize..6, seed in any::<u64>(), plies in 0usize..60,
    ) {
        for (board, moves, king) in walk(start, seed, plies) {
            let (walked, walked_king) = reference::generate(&board, false);
            prop_assert_eq!(&moves, &walked, "{}", board.to_fen());
            prop_assert_eq!(king.square, walked_king);
            let mut captures = Vec::new();
            generate(&board, true, &mut captures);
            prop_assert_eq!(captures, reference::generate(&board, true).0, "{}", board.to_fen());
        }
    }

    /// The bitboard attack test agrees with the offset walk on every
    /// square, for both colours.
    #[test]
    fn table_attacks_are_the_offset_walk(
        start in 0usize..6, seed in any::<u64>(), plies in 0usize..60,
    ) {
        for (board, _, _) in walk(start, seed, plies) {
            for sq in (0..64).map(Square) {
                for by in [Color::White, Color::Black] {
                    prop_assert_eq!(
                        is_attacked(&board, sq, by),
                        reference::is_attacked(&board, sq, by),
                        "{} {} {:?}", board.to_fen(), sq.name(), by
                    );
                }
            }
        }
    }

    /// The per-kind bits `set_piece` keeps equal a scan of the squares
    /// after every pseudo-legal move of every position on the walk.
    #[test]
    fn kind_bits_equal_a_scan(
        start in 0usize..6, seed in any::<u64>(), plies in 0usize..60,
    ) {
        for (board, moves, _) in walk(start, seed, plies) {
            let children = moves.iter().map(|&mv| apply_move(&board, mv));
            for b in std::iter::once(board.clone()).chain(children) {
                for color in [Color::White, Color::Black] {
                    for kind in KINDS {
                        let scan = b
                            .pieces()
                            .filter(|(_, p)| p.color == color && p.kind == kind)
                            .fold(0u64, |bits, (sq, _)| bits | 1 << sq.0);
                        prop_assert_eq!(b.bits(color, kind), scan, "{} {:?}", b.to_fen(), kind);
                    }
                }
            }
        }
    }

    /// `is_legal` answers as `legal_child` does, move by move.
    #[test]
    fn is_legal_is_legal_child(
        start in 0usize..6, seed in any::<u64>(), plies in 0usize..60,
    ) {
        for (board, moves, king) in walk(start, seed, plies) {
            let (mut a, mut b) = (king, king);
            for mv in moves {
                prop_assert_eq!(
                    is_legal(&board, &mut a, mv),
                    legal_child(&board, &mut b, mv).is_some(),
                    "{} {}", board.to_fen(), mv.uci()
                );
            }
        }
    }

    /// The lazy any-legal test answers whether the legal list is empty,
    /// and leaves the list it appends to as it found it.
    #[test]
    fn any_legal_is_a_nonempty_legal_list(
        start in 0usize..6, seed in any::<u64>(), plies in 0usize..60,
    ) {
        for (board, moves, mut king) in walk(start, seed, plies) {
            let mut list = moves.clone();
            let found = any_legal(&board, &mut king, &mut list);
            prop_assert_eq!(found, !legal_moves(&board).is_empty(), "{}", board.to_fen());
            prop_assert_eq!(list, moves);
        }
    }

    /// Captures-only generation lists exactly the full list's moves onto
    /// an enemy piece, in the same order, and finds the same king.
    #[test]
    fn captures_only_is_the_filtered_full_list(
        start in 0usize..6, seed in any::<u64>(), plies in 0usize..60,
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
        start in 0usize..6, seed in any::<u64>(), plies in 0usize..60,
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
        start in 0usize..6, seed in any::<u64>(), plies in 0usize..60,
    ) {
        for (board, moves, mut king) in walk(start, seed, plies) {
            for mv in moves {
                let safe = king.square.is_none_or(|k| {
                    let k = if k == mv.from { mv.to } else { k };
                    !reference::is_attacked(&apply_move(&board, mv), k, board.side.opponent())
                });
                let kept = legal_child(&board, &mut king, mv).is_some();
                prop_assert_eq!(kept, safe, "{} {}", board.to_fen(), mv.uci());
            }
        }
    }
}
