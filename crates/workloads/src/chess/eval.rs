//! Static position evaluation: material plus piece-square tables.

use super::board::{Board, Color, PieceKind, Square};

/// Centipawn value of a piece.
pub const fn piece_value(kind: PieceKind) -> i32 {
    match kind {
        PieceKind::Pawn => 100,
        PieceKind::Knight => 320,
        PieceKind::Bishop => 330,
        PieceKind::Rook => 500,
        PieceKind::Queen => 900,
        PieceKind::King => 0, // king safety handled positionally
    }
}

// Piece-square tables from the classic "simplified evaluation function",
// oriented for White (rank 0 at the bottom of each array = rank 1).
#[rustfmt::skip]
const PAWN_PST: [i32; 64] = [
     0,  0,  0,  0,  0,  0,  0,  0,
     5, 10, 10,-20,-20, 10, 10,  5,
     5, -5,-10,  0,  0,-10, -5,  5,
     0,  0,  0, 20, 20,  0,  0,  0,
     5,  5, 10, 25, 25, 10,  5,  5,
    10, 10, 20, 30, 30, 20, 10, 10,
    50, 50, 50, 50, 50, 50, 50, 50,
     0,  0,  0,  0,  0,  0,  0,  0,
];

#[rustfmt::skip]
const KNIGHT_PST: [i32; 64] = [
    -50,-40,-30,-30,-30,-30,-40,-50,
    -40,-20,  0,  5,  5,  0,-20,-40,
    -30,  5, 10, 15, 15, 10,  5,-30,
    -30,  0, 15, 20, 20, 15,  0,-30,
    -30,  5, 15, 20, 20, 15,  5,-30,
    -30,  0, 10, 15, 15, 10,  0,-30,
    -40,-20,  0,  0,  0,  0,-20,-40,
    -50,-40,-30,-30,-30,-30,-40,-50,
];

#[rustfmt::skip]
const BISHOP_PST: [i32; 64] = [
    -20,-10,-10,-10,-10,-10,-10,-20,
    -10,  5,  0,  0,  0,  0,  5,-10,
    -10, 10, 10, 10, 10, 10, 10,-10,
    -10,  0, 10, 10, 10, 10,  0,-10,
    -10,  5,  5, 10, 10,  5,  5,-10,
    -10,  0,  5, 10, 10,  5,  0,-10,
    -10,  0,  0,  0,  0,  0,  0,-10,
    -20,-10,-10,-10,-10,-10,-10,-20,
];

#[rustfmt::skip]
const ROOK_PST: [i32; 64] = [
     0,  0,  0,  5,  5,  0,  0,  0,
    -5,  0,  0,  0,  0,  0,  0, -5,
    -5,  0,  0,  0,  0,  0,  0, -5,
    -5,  0,  0,  0,  0,  0,  0, -5,
    -5,  0,  0,  0,  0,  0,  0, -5,
    -5,  0,  0,  0,  0,  0,  0, -5,
     5, 10, 10, 10, 10, 10, 10,  5,
     0,  0,  0,  0,  0,  0,  0,  0,
];

#[rustfmt::skip]
const QUEEN_PST: [i32; 64] = [
    -20,-10,-10, -5, -5,-10,-10,-20,
    -10,  0,  5,  0,  0,  0,  0,-10,
    -10,  5,  5,  5,  5,  5,  0,-10,
      0,  0,  5,  5,  5,  5,  0, -5,
     -5,  0,  5,  5,  5,  5,  0, -5,
    -10,  0,  5,  5,  5,  5,  0,-10,
    -10,  0,  0,  0,  0,  0,  0,-10,
    -20,-10,-10, -5, -5,-10,-10,-20,
];

#[rustfmt::skip]
const KING_PST: [i32; 64] = [
     20, 30, 10,  0,  0, 10, 30, 20,
     20, 20,  0,  0,  0,  0, 20, 20,
    -10,-20,-20,-20,-20,-20,-20,-10,
    -20,-30,-30,-40,-40,-30,-30,-20,
    -30,-40,-40,-50,-50,-40,-40,-30,
    -30,-40,-40,-50,-50,-40,-40,-30,
    -30,-40,-40,-50,-50,-40,-40,-30,
    -30,-40,-40,-50,-50,-40,-40,-30,
];

const fn pst(kind: PieceKind, sq: Square, color: Color) -> i32 {
    let idx = match color {
        Color::White => sq.0 as usize,
        // Mirror vertically for black.
        Color::Black => (sq.0 ^ 56) as usize,
    };
    match kind {
        PieceKind::Pawn => PAWN_PST[idx],
        PieceKind::Knight => KNIGHT_PST[idx],
        PieceKind::Bishop => BISHOP_PST[idx],
        PieceKind::Rook => ROOK_PST[idx],
        PieceKind::Queen => QUEEN_PST[idx],
        PieceKind::King => KING_PST[idx],
    }
}

/// What a piece adds to White's score, `TERMS[colour][kind][square]`:
/// its value plus its piece-square term, negated for Black.
/// [`Board::set_piece`] keeps the board's running sum of these.
pub(crate) const TERMS: [[[i32; 64]; 6]; 2] = {
    use PieceKind::*;
    let mut t = [[[0; 64]; 6]; 2];
    let kinds = [Pawn, Knight, Bishop, Rook, Queen, King];
    let mut k = 0;
    while k < 6 {
        let mut i = 0;
        while i < 64 {
            let (kind, sq) = (kinds[k], Square(i as u8));
            t[0][k][i] = piece_value(kind) + pst(kind, sq, Color::White);
            t[1][k][i] = -(piece_value(kind) + pst(kind, sq, Color::Black));
            i += 1;
        }
        k += 1;
    }
    t
};

/// Evaluate `board` in centipawns from the **side-to-move** perspective
/// (positive = good for the player to move), as negamax search expects.
pub fn evaluate(board: &Board) -> i32 {
    match board.side {
        Color::White => board.score(),
        Color::Black => -board.score(),
    }
}

/// [`evaluate`] from scratch: a scan of every piece on the board.
#[cfg(test)]
pub(super) fn scanned(board: &Board) -> i32 {
    let sign = |color| if color == board.side { 1 } else { -1 };
    board
        .pieces()
        .map(|(sq, p)| sign(p.color) * (piece_value(p.kind) + pst(p.kind, sq, p.color)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_position_is_balanced() {
        let b = Board::start();
        assert_eq!(evaluate(&b), 0, "symmetric position evaluates to zero");
    }

    #[test]
    fn extra_queen_dominates() {
        let b = Board::from_fen("4k3/8/8/8/8/8/8/3QK3 w - - 0 1").unwrap();
        assert!(evaluate(&b) > 800, "white queen up: {}", evaluate(&b));
        let b_black_view = Board::from_fen("4k3/8/8/8/8/8/8/3QK3 b - - 0 1").unwrap();
        assert!(
            evaluate(&b_black_view) < -800,
            "same position from black's view"
        );
    }

    #[test]
    fn central_knight_beats_corner_knight() {
        let central = Board::from_fen("4k3/8/8/8/4N3/8/8/4K3 w - - 0 1").unwrap();
        let corner = Board::from_fen("4k3/8/8/8/8/8/8/N3K3 w - - 0 1").unwrap();
        assert!(evaluate(&central) > evaluate(&corner));
    }

    #[test]
    fn pst_is_colour_mirrored() {
        // A white pawn on e4 and a black pawn on e5 are the same shape.
        assert_eq!(
            pst(PieceKind::Pawn, Square::parse("e4").unwrap(), Color::White),
            pst(PieceKind::Pawn, Square::parse("e5").unwrap(), Color::Black)
        );
    }

    #[test]
    fn piece_values_ordered() {
        assert!(piece_value(PieceKind::Queen) > piece_value(PieceKind::Rook));
        assert!(piece_value(PieceKind::Rook) > piece_value(PieceKind::Bishop));
        assert!(piece_value(PieceKind::Bishop) >= piece_value(PieceKind::Knight));
        assert!(piece_value(PieceKind::Knight) > piece_value(PieceKind::Pawn));
    }
}
