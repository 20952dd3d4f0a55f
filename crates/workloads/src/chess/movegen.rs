//! Legal move generation, make/unmake, and perft validation.

use super::board::{Board, Castling, Color, Piece, PieceKind, Square};

/// A chess move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Move {
    /// Origin square.
    pub from: Square,
    /// Destination square.
    pub to: Square,
    /// Promotion piece kind, when a pawn reaches the last rank.
    pub promotion: Option<PieceKind>,
}

impl Move {
    /// Plain move constructor.
    pub fn new(from: Square, to: Square) -> Move {
        Move {
            from,
            to,
            promotion: None,
        }
    }

    /// UCI text, e.g. `e2e4` or `e7e8q`.
    pub fn uci(&self) -> String {
        let mut s = format!("{}{}", self.from.name(), self.to.name());
        if let Some(p) = self.promotion {
            s.push(match p {
                PieceKind::Queen => 'q',
                PieceKind::Rook => 'r',
                PieceKind::Bishop => 'b',
                PieceKind::Knight => 'n',
                _ => '?',
            });
        }
        s
    }

    /// Parse UCI text against no particular position.
    #[cfg(test)]
    fn parse_uci(s: &str) -> Option<Move> {
        if s.len() < 4 {
            return None;
        }
        let from = Square::parse(&s[0..2])?;
        let to = Square::parse(&s[2..4])?;
        let promotion = match s.as_bytes().get(4) {
            None => None,
            Some(b'q') => Some(PieceKind::Queen),
            Some(b'r') => Some(PieceKind::Rook),
            Some(b'b') => Some(PieceKind::Bishop),
            Some(b'n') => Some(PieceKind::Knight),
            _ => return None,
        };
        Some(Move {
            from,
            to,
            promotion,
        })
    }
}

const KNIGHT_DELTAS: [(i8, i8); 8] = [
    (1, 2),
    (2, 1),
    (2, -1),
    (1, -2),
    (-1, -2),
    (-2, -1),
    (-2, 1),
    (-1, 2),
];
const KING_DELTAS: [(i8, i8); 8] = [
    (0, 1),
    (1, 1),
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, -1),
    (-1, 0),
    (-1, 1),
];
const BISHOP_DIRS: [(i8, i8); 4] = [(1, 1), (1, -1), (-1, -1), (-1, 1)];
const ROOK_DIRS: [(i8, i8); 4] = [(0, 1), (1, 0), (0, -1), (-1, 0)];

/// Is `sq` attacked by any piece of `by`?
pub fn is_attacked(board: &Board, sq: Square, by: Color) -> bool {
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
        for (df, dr) in dirs {
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

/// Is the side to move in check?
pub fn in_check(board: &Board, color: Color) -> bool {
    match board.king_square(color) {
        Some(k) => is_attacked(board, k, color.opponent()),
        None => false,
    }
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

/// Castling for the side to move. The cheap tests (rights, the king
/// and rook on their squares, an empty path) come before any attack
/// test; the moves pushed are the same either way.
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

/// Append every pseudo-legal move for the side to move to `moves` and
/// return the mover's king square, found on the way. A pseudo-legal
/// move may leave that king attacked; [`legal_moves`] drops those.
pub fn pseudo_legal_moves(board: &Board, moves: &mut Vec<Move>) -> Option<Square> {
    generate(board, false, moves)
}

/// [`pseudo_legal_moves`], or with `captures_only` just the moves that
/// land on an enemy piece: the same moves the full list holds there, in
/// the same order (promotion captures included, no en passant, no
/// castling).
pub(crate) fn generate(
    board: &Board,
    captures_only: bool,
    moves: &mut Vec<Move>,
) -> Option<Square> {
    let mut king = None;
    for (from, piece) in board.pieces_of(board.side) {
        match piece.kind {
            PieceKind::Pawn => push_pawn_moves(board, from, captures_only, moves),
            PieceKind::Knight => {
                push_leaper_moves(board, from, &KNIGHT_DELTAS, captures_only, moves)
            }
            PieceKind::King => {
                king.get_or_insert(from);
                push_leaper_moves(board, from, &KING_DELTAS, captures_only, moves);
            }
            PieceKind::Bishop => push_slider_moves(board, from, &BISHOP_DIRS, captures_only, moves),
            PieceKind::Rook => push_slider_moves(board, from, &ROOK_DIRS, captures_only, moves),
            PieceKind::Queen => {
                push_slider_moves(board, from, &BISHOP_DIRS, captures_only, moves);
                push_slider_moves(board, from, &ROOK_DIRS, captures_only, moves);
            }
        }
    }
    if !captures_only {
        push_castling(board, moves);
    }
    king
}

/// Apply `mv` to a copy of `board`, returning the successor position.
/// The move must be at least pseudo-legal.
pub fn apply_move(board: &Board, mv: Move) -> Board {
    let mut b = board.clone();
    let piece = b.piece_at(mv.from).expect("move has a piece on its origin");
    let color = piece.color;
    let captured = b.piece_at(mv.to);

    // En-passant capture removes the pawn behind the target square.
    if piece.kind == PieceKind::Pawn && Some(mv.to) == b.en_passant && captured.is_none() {
        let victim = mv
            .to
            .offset(0, -color.forward())
            .expect("ep victim on board");
        b.set_piece(victim, None);
    }

    // Castling: move the rook as well.
    if piece.kind == PieceKind::King && (mv.to.file() as i8 - mv.from.file() as i8).abs() == 2 {
        let rank = mv.from.rank();
        let (rook_from, rook_to) = if mv.to.file() == 6 {
            (Square::at(7, rank), Square::at(5, rank))
        } else {
            (Square::at(0, rank), Square::at(3, rank))
        };
        let rook = b.piece_at(rook_from);
        b.set_piece(rook_from, None);
        b.set_piece(rook_to, rook);
    }

    b.set_piece(mv.from, None);
    let placed = match mv.promotion {
        Some(kind) => Piece { color, kind },
        None => piece,
    };
    b.set_piece(mv.to, Some(placed));

    // En-passant availability.
    b.en_passant = if piece.kind == PieceKind::Pawn
        && (mv.to.rank() as i8 - mv.from.rank() as i8).abs() == 2
    {
        mv.from.offset(0, color.forward())
    } else {
        None
    };

    // Castling-rights updates.
    let mut c = b.castling;
    let touch = |c: &mut Castling, sq: Square| match (sq.file(), sq.rank()) {
        (4, 0) => {
            c.white_king = false;
            c.white_queen = false;
        }
        (0, 0) => c.white_queen = false,
        (7, 0) => c.white_king = false,
        (4, 7) => {
            c.black_king = false;
            c.black_queen = false;
        }
        (0, 7) => c.black_queen = false,
        (7, 7) => c.black_king = false,
        _ => {}
    };
    touch(&mut c, mv.from);
    touch(&mut c, mv.to);
    b.castling = c;

    // Clocks.
    if piece.kind == PieceKind::Pawn || captured.is_some() {
        b.halfmove_clock = 0;
    } else {
        b.halfmove_clock += 1;
    }
    if color == Color::Black {
        b.fullmove += 1;
    }
    b.side = color.opponent();
    b
}

/// What a node knows about its mover's king: the square
/// [`pseudo_legal_moves`] returned and, once a move has asked, whether
/// the king stands in check.
#[derive(Debug, Clone, Copy)]
pub(crate) struct King {
    pub(crate) square: Option<Square>,
    in_check: Option<bool>,
}

impl King {
    pub(crate) fn new(square: Option<Square>) -> King {
        King {
            square,
            in_check: None,
        }
    }

    /// Whether the mover's king is attacked in `board`, its position.
    pub(crate) fn in_check(&mut self, board: &Board) -> bool {
        let square = self.square;
        *self.in_check.get_or_insert_with(|| {
            square.is_some_and(|k| is_attacked(board, k, board.side.opponent()))
        })
    }
}

/// Whether `a` and `b` share a rank, a file or a diagonal.
fn aligned(a: Square, b: Square) -> bool {
    let df = a.file().abs_diff(b.file());
    let dr = a.rank().abs_diff(b.rank());
    df == 0 || dr == 0 || df == dr
}

/// The position after the pseudo-legal `mv`, or `None` if it leaves the
/// mover's king attacked.
///
/// A king that is not in check can only be exposed by a king move, by
/// en passant (which empties a second square) or by a piece leaving a
/// line through the king. Any other move is legal without scanning the
/// child for attacks.
pub(crate) fn legal_child(board: &Board, king: &mut King, mv: Move) -> Option<Board> {
    let child = apply_move(board, mv);
    let Some(k) = king.square else {
        return Some(child);
    };
    if k != mv.from
        && board.en_passant != Some(mv.to)
        && !aligned(k, mv.from)
        && !king.in_check(board)
    {
        return Some(child);
    }
    let k = if k == mv.from { mv.to } else { k };
    (!is_attacked(&child, k, board.side.opponent())).then_some(child)
}

/// All strictly legal moves for the side to move, in generation order.
pub fn legal_moves(board: &Board) -> Vec<Move> {
    let mut moves = Vec::with_capacity(48);
    let mut king = King::new(pseudo_legal_moves(board, &mut moves));
    moves.retain(|&mv| legal_child(board, &mut king, mv).is_some());
    moves
}

/// Count leaf nodes of the move tree to `depth` — the standard
/// correctness oracle for move generators.
pub fn perft(board: &Board, depth: u32) -> u64 {
    if depth == 0 {
        return 1;
    }
    let moves = legal_moves(board);
    if depth == 1 {
        return moves.len() as u64;
    }
    moves
        .iter()
        .map(|&mv| perft(&apply_move(board, mv), depth - 1))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perft_from_start_position() {
        // Known values: 20, 400, 8902, 197281.
        let b = Board::start();
        assert_eq!(perft(&b, 1), 20);
        assert_eq!(perft(&b, 2), 400);
        assert_eq!(perft(&b, 3), 8_902);
    }

    #[test]
    fn perft_kiwipete_catches_castling_and_ep_bugs() {
        // "Kiwipete": the classic stress position. Depth 1 = 48, 2 = 2039.
        let b =
            Board::from_fen("r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1")
                .unwrap();
        assert_eq!(perft(&b, 1), 48);
        assert_eq!(perft(&b, 2), 2_039);
    }

    #[test]
    fn perft_position3_en_passant_heavy() {
        // CPW position 3: depth 1 = 14, 2 = 191, 3 = 2812.
        let b = Board::from_fen("8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1").unwrap();
        assert_eq!(perft(&b, 1), 14);
        assert_eq!(perft(&b, 2), 191);
        assert_eq!(perft(&b, 3), 2_812);
    }

    #[test]
    fn perft_promotion_position() {
        // CPW position 5: depth 1 = 44, 2 = 1486.
        let b =
            Board::from_fen("rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8").unwrap();
        assert_eq!(perft(&b, 1), 44);
        assert_eq!(perft(&b, 2), 1_486);
    }

    #[test]
    fn en_passant_capture_removes_victim() {
        let b = Board::from_fen("8/8/8/3pP3/8/8/8/k1K5 w - d6 0 1").unwrap();
        let ep = Move::new(Square::parse("e5").unwrap(), Square::parse("d6").unwrap());
        assert!(legal_moves(&b).contains(&ep));
        let after = apply_move(&b, ep);
        assert_eq!(
            after.piece_at(Square::parse("d5").unwrap()),
            None,
            "victim pawn gone"
        );
        assert_eq!(
            after.piece_at(Square::parse("d6").unwrap()).unwrap().kind,
            PieceKind::Pawn
        );
    }

    #[test]
    fn castling_moves_rook_and_clears_rights() {
        let b = Board::from_fen("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1").unwrap();
        let oo = Move::new(Square::parse("e1").unwrap(), Square::parse("g1").unwrap());
        assert!(legal_moves(&b).contains(&oo));
        let after = apply_move(&b, oo);
        assert_eq!(
            after.piece_at(Square::parse("f1").unwrap()).unwrap().kind,
            PieceKind::Rook
        );
        assert_eq!(after.piece_at(Square::parse("h1").unwrap()), None);
        assert!(!after.castling.white_king && !after.castling.white_queen);
        assert!(after.castling.black_king, "black rights untouched");
    }

    #[test]
    fn cannot_castle_through_check() {
        // Black rook on f8 covers f1.
        let b = Board::from_fen("5r2/8/8/8/8/8/8/R3K2R w KQ - 0 1").unwrap();
        let oo = Move::new(Square::parse("e1").unwrap(), Square::parse("g1").unwrap());
        assert!(
            !legal_moves(&b).contains(&oo),
            "castling through f1 is illegal"
        );
        let ooo = Move::new(Square::parse("e1").unwrap(), Square::parse("c1").unwrap());
        assert!(legal_moves(&b).contains(&ooo), "queenside is fine");
    }

    #[test]
    fn pinned_piece_cannot_move() {
        // White knight on e4 pinned to the king by a rook on e8.
        let b = Board::from_fen("4r3/8/8/8/4N3/8/8/4K3 w - - 0 1").unwrap();
        let knight_moves: Vec<_> = legal_moves(&b)
            .into_iter()
            .filter(|m| m.from == Square::parse("e4").unwrap())
            .collect();
        assert!(knight_moves.is_empty(), "pinned knight must stay");
    }

    #[test]
    fn promotion_generates_four_pieces() {
        let b = Board::from_fen("8/P7/8/8/8/8/8/k1K5 w - - 0 1").unwrap();
        let promos: Vec<_> = legal_moves(&b)
            .into_iter()
            .filter(|m| m.from == Square::parse("a7").unwrap())
            .collect();
        assert_eq!(promos.len(), 4);
        assert!(promos.iter().all(|m| m.promotion.is_some()));
        let after = apply_move(&b, promos[0]);
        assert_eq!(
            after.piece_at(Square::parse("a8").unwrap()).unwrap().kind,
            PieceKind::Queen
        );
    }

    #[test]
    fn checkmate_has_no_legal_moves() {
        // Fool's mate final position; white is mated.
        let b = Board::from_fen("rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/RNBQKBNR w KQkq - 1 3")
            .unwrap();
        assert!(in_check(&b, Color::White));
        assert!(legal_moves(&b).is_empty());
    }

    #[test]
    fn stalemate_has_no_moves_but_no_check() {
        let b = Board::from_fen("7k/5Q2/6K1/8/8/8/8/8 b - - 0 1").unwrap();
        assert!(!in_check(&b, Color::Black));
        assert!(legal_moves(&b).is_empty());
    }

    #[test]
    fn uci_round_trip() {
        for s in ["e2e4", "e7e8q", "a1h8", "b7b8n"] {
            assert_eq!(Move::parse_uci(s).unwrap().uci(), s);
        }
        assert!(Move::parse_uci("e2").is_none());
        assert!(Move::parse_uci("e2e4x").is_none());
    }
}
