//! The offset-walk move generator and attack test the square tables
//! replaced, kept as oracles: every step is a bounds-checked
//! [`Square::offset`] and a mailbox read. The proptests hold the table
//! code to these, move for move and in order.

use super::board::{Board, Color, Piece, PieceKind, Square};
use super::movegen::Move;
use super::tables::{DIRS, KING_DELTAS, KNIGHT_DELTAS};

const BISHOP_DIRS: &[(i8, i8)] = DIRS.split_at(4).0;
const ROOK_DIRS: &[(i8, i8)] = DIRS.split_at(4).1;

/// Is `sq` attacked by any piece of `by`?
pub(super) fn is_attacked(board: &Board, sq: Square, by: Color) -> bool {
    // Pawns: a pawn of `by` on sq - forward ± 1 file attacks sq.
    let back = -by.forward();
    for df in [-1i8, 1] {
        if let Some(p) = sq.offset(df, back).and_then(|s| board.piece_at(s)) {
            if p.color == by && p.kind == PieceKind::Pawn {
                return true;
            }
        }
    }
    for (df, dr) in KNIGHT_DELTAS {
        if let Some(p) = sq.offset(df, dr).and_then(|s| board.piece_at(s)) {
            if p.color == by && p.kind == PieceKind::Knight {
                return true;
            }
        }
    }
    for (df, dr) in KING_DELTAS {
        if let Some(p) = sq.offset(df, dr).and_then(|s| board.piece_at(s)) {
            if p.color == by && p.kind == PieceKind::King {
                return true;
            }
        }
    }
    for (dirs, kinds) in [
        (BISHOP_DIRS, [PieceKind::Bishop, PieceKind::Queen]),
        (ROOK_DIRS, [PieceKind::Rook, PieceKind::Queen]),
    ] {
        for &(df, dr) in dirs {
            let mut cur = sq;
            while let Some(next) = cur.offset(df, dr) {
                cur = next;
                if let Some(p) = board.piece_at(cur) {
                    if p.color == by && kinds.contains(&p.kind) {
                        return true;
                    }
                    break;
                }
            }
        }
    }
    false
}

fn push_pawn_moves(board: &Board, from: Square, captures_only: bool, moves: &mut Vec<Move>) {
    let color = board.side;
    let fwd = color.forward();
    let last_rank = if color == Color::White { 7 } else { 0 };
    let start_rank = if color == Color::White { 1 } else { 6 };

    let add = |to: Square, moves: &mut Vec<Move>| {
        if to.rank() == last_rank {
            for kind in [
                PieceKind::Queen,
                PieceKind::Rook,
                PieceKind::Bishop,
                PieceKind::Knight,
            ] {
                moves.push(Move {
                    from,
                    to,
                    promotion: Some(kind),
                });
            }
        } else {
            moves.push(Move::new(from, to));
        }
    };

    // Single and double push.
    if let Some(one) = from.offset(0, fwd).filter(|_| !captures_only) {
        if board.piece_at(one).is_none() {
            add(one, moves);
            if from.rank() == start_rank {
                if let Some(two) = from.offset(0, 2 * fwd) {
                    if board.piece_at(two).is_none() {
                        moves.push(Move::new(from, two));
                    }
                }
            }
        }
    }
    // Captures (incl. en passant, which lands on an empty square).
    for df in [-1i8, 1] {
        if let Some(to) = from.offset(df, fwd) {
            match board.piece_at(to) {
                Some(p) if p.color != color => add(to, moves),
                None if !captures_only && board.en_passant == Some(to) => {
                    moves.push(Move::new(from, to))
                }
                _ => {}
            }
        }
    }
}

fn push_leaper_moves(
    board: &Board,
    from: Square,
    deltas: &[(i8, i8)],
    captures_only: bool,
    moves: &mut Vec<Move>,
) {
    let color = board.side;
    for &(df, dr) in deltas {
        if let Some(to) = from.offset(df, dr) {
            match board.piece_at(to) {
                Some(p) if p.color == color => {}
                None if captures_only => {}
                _ => moves.push(Move::new(from, to)),
            }
        }
    }
}

fn push_slider_moves(
    board: &Board,
    from: Square,
    dirs: &[(i8, i8)],
    captures_only: bool,
    moves: &mut Vec<Move>,
) {
    let color = board.side;
    for &(df, dr) in dirs {
        let mut cur = from;
        while let Some(to) = cur.offset(df, dr) {
            cur = to;
            match board.piece_at(to) {
                None if captures_only => {}
                None => moves.push(Move::new(from, to)),
                Some(p) => {
                    if p.color != color {
                        moves.push(Move::new(from, to));
                    }
                    break;
                }
            }
        }
    }
}

fn push_castling(board: &Board, moves: &mut Vec<Move>) {
    let color = board.side;
    let rank = if color == Color::White { 0 } else { 7 };
    let (king_side, queen_side) = match color {
        Color::White => (board.castling.white_king, board.castling.white_queen),
        Color::Black => (board.castling.black_king, board.castling.black_queen),
    };
    let own = |file, kind| board.piece_at(Square::at(file, rank)) == Some(Piece { color, kind });
    let empty = |files: &[u8]| {
        files
            .iter()
            .all(|&f| board.piece_at(Square::at(f, rank)).is_none())
    };
    let king_side = king_side && empty(&[5, 6]) && own(7, PieceKind::Rook);
    let queen_side = queen_side && empty(&[3, 2, 1]) && own(0, PieceKind::Rook);
    let king_sq = Square::at(4, rank);
    if !(king_side || queen_side) || !own(4, PieceKind::King) {
        return;
    }
    let enemy = color.opponent();
    let safe = |file| !is_attacked(board, Square::at(file, rank), enemy);
    if !safe(4) {
        return;
    }
    if king_side && safe(5) && safe(6) {
        moves.push(Move::new(king_sq, Square::at(6, rank)));
    }
    if queen_side && safe(3) && safe(2) {
        moves.push(Move::new(king_sq, Square::at(2, rank)));
    }
}

/// The pseudo-legal moves (or with `captures_only` the captures) for the
/// side to move, and the first king of that side found.
pub(super) fn generate(board: &Board, captures_only: bool) -> (Vec<Move>, Option<Square>) {
    let mut moves = Vec::new();
    let mut king = None;
    for (from, piece) in board.pieces().filter(|(_, p)| p.color == board.side) {
        match piece.kind {
            PieceKind::Pawn => push_pawn_moves(board, from, captures_only, &mut moves),
            PieceKind::Knight => {
                push_leaper_moves(board, from, &KNIGHT_DELTAS, captures_only, &mut moves)
            }
            PieceKind::King => {
                king.get_or_insert(from);
                push_leaper_moves(board, from, &KING_DELTAS, captures_only, &mut moves);
            }
            PieceKind::Bishop => {
                push_slider_moves(board, from, BISHOP_DIRS, captures_only, &mut moves)
            }
            PieceKind::Rook => push_slider_moves(board, from, ROOK_DIRS, captures_only, &mut moves),
            PieceKind::Queen => {
                push_slider_moves(board, from, BISHOP_DIRS, captures_only, &mut moves);
                push_slider_moves(board, from, ROOK_DIRS, captures_only, &mut moves);
            }
        }
    }
    if !captures_only {
        push_castling(board, &mut moves);
    }
    (moves, king)
}
