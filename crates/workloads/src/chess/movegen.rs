//! Legal move generation, make/unmake, and perft validation.

use super::board::{Board, Color, Piece, PieceKind, Square};
use super::tables::{farthest, nearest, step, Leaps, DIAGONALS, KING, KNIGHT, LINES};
use super::tables::{PAWN_ATTACKS, RAYS};

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

/// Promotion kinds, in the order the generator emits them.
const PROMOTIONS: [PieceKind; 4] = [
    PieceKind::Queen,
    PieceKind::Rook,
    PieceKind::Bishop,
    PieceKind::Knight,
];
/// Each colour's pawn start rank and promotion rank, as bits.
const START_RANK: [u64; 2] = [0xff << 8, 0xff << 48];
const LAST_RANK: [u64; 2] = [0xff << 56, 0xff];

/// Is `sq` attacked by any piece of `by`?
pub fn is_attacked(board: &Board, sq: Square, by: Color) -> bool {
    let s = sq.0 as usize;
    if PAWN_ATTACKS[by.opponent() as usize][s] & board.bits(by, PieceKind::Pawn) != 0
        || KNIGHT[s].bits & board.bits(by, PieceKind::Knight) != 0
        || KING[s].bits & board.bits(by, PieceKind::King) != 0
    {
        return true;
    }
    let queens = board.bits(by, PieceKind::Queen);
    let diagonal = board.bits(by, PieceKind::Bishop) | queens;
    let line = board.bits(by, PieceKind::Rook) | queens;
    let occupied = board.occupancy();
    diagonal != 0
        && (hits::<0>(s, diagonal, occupied)
            || hits::<1>(s, diagonal, occupied)
            || hits::<2>(s, diagonal, occupied)
            || hits::<3>(s, diagonal, occupied))
        || line != 0
            && (hits::<4>(s, line, occupied)
                || hits::<5>(s, line, occupied)
                || hits::<6>(s, line, occupied)
                || hits::<7>(s, line, occupied))
}

/// Whether the first piece from `sq` along `DIRS[D]` is one of `sliders`.
#[inline(always)]
fn hits<const D: usize>(sq: usize, sliders: u64, occupied: u64) -> bool {
    let ray = RAYS[sq][D];
    // A ray holding a slider is not empty, so it has a nearest piece.
    ray & sliders != 0 && sliders >> nearest(D, ray & occupied) & 1 != 0
}

/// Is the side to move in check?
pub fn in_check(board: &Board, color: Color) -> bool {
    match board.king_square(color) {
        Some(k) => is_attacked(board, k, color.opponent()),
        None => false,
    }
}

/// One position's move generator: the side to move's squares, the
/// enemy's, and the squares a move may land on.
struct Gen<'a> {
    board: &'a Board,
    own: u64,
    enemy: u64,
    captures_only: bool,
    /// The enemy's squares, or with quiet moves too, every square the
    /// mover does not hold.
    targets: u64,
    /// The squares a pawn may capture on: the enemy's, and with quiet
    /// moves the en-passant square when it is empty.
    pawn_targets: u64,
}

impl<'a> Gen<'a> {
    fn new(board: &'a Board, captures_only: bool) -> Self {
        let own = board.occupied(board.side);
        let enemy = board.occupied(board.side.opponent());
        let (targets, pawn_targets) = match board.en_passant {
            _ if captures_only => (enemy, enemy),
            Some(ep) => (!own, enemy | (1 << ep.0) & !own & !enemy),
            None => (!own, enemy),
        };
        Gen {
            board,
            own,
            enemy,
            captures_only,
            targets,
            pawn_targets,
        }
    }

    /// Append the moves of the piece on `from`.
    #[inline]
    fn piece(&self, from: usize, moves: &mut Vec<Move>) {
        let Some(piece) = self.board.piece_at(Square(from as u8)) else {
            return;
        };
        match piece.kind {
            PieceKind::Pawn => self.pawn(from, moves),
            PieceKind::Knight => self.leaps(from, &KNIGHT[from], moves),
            PieceKind::King => self.leaps(from, &KING[from], moves),
            PieceKind::Bishop => self.diagonals(from, moves),
            PieceKind::Rook => self.lines(from, moves),
            PieceKind::Queen => {
                self.diagonals(from, moves);
                self.lines(from, moves);
            }
        }
    }

    fn pawn(&self, from: usize, moves: &mut Vec<Move>) {
        let color = self.board.side as usize;
        let fwd = 8 * self.board.side.forward() as isize;
        let one = from as isize + fwd;
        if !(0..64).contains(&one) {
            return;
        }
        // Every move of a pawn one step from its last rank promotes.
        let promotes = LAST_RANK[color] >> one & 1 != 0;
        let empty = !(self.own | self.enemy);
        // Single and double push.
        if !self.captures_only && empty >> one & 1 != 0 {
            pawn_move(from, one as usize, promotes, moves);
            let two = (one + fwd) as usize;
            if START_RANK[color] >> from & 1 != 0 && empty >> two & 1 != 0 {
                moves.push(Move::new(Square(from as u8), Square(two as u8)));
            }
        }
        // Captures, the lower square first (incl. en passant, which
        // lands on an empty square).
        let mut targets = PAWN_ATTACKS[color][from] & self.pawn_targets;
        while targets != 0 {
            let to = targets.trailing_zeros() as usize;
            targets &= targets - 1;
            if self.enemy >> to & 1 != 0 {
                pawn_move(from, to, promotes, moves);
            } else {
                moves.push(Move::new(Square(from as u8), Square(to as u8)));
            }
        }
    }

    fn leaps(&self, from: usize, leaps: &Leaps, moves: &mut Vec<Move>) {
        if leaps.bits & self.targets == 0 {
            return;
        }
        for &to in &leaps.to[..leaps.len as usize] {
            if self.targets >> to & 1 != 0 {
                moves.push(Move::new(Square(from as u8), Square(to)));
            }
        }
    }

    /// The bishop's rays, then the rook's: each outward from `from`,
    /// its empty squares and then its first piece if that is an enemy.
    #[inline]
    fn diagonals(&self, from: usize, moves: &mut Vec<Move>) {
        if DIAGONALS[from] & self.targets == 0 {
            return;
        }
        self.ray::<0>(from, moves);
        self.ray::<1>(from, moves);
        self.ray::<2>(from, moves);
        self.ray::<3>(from, moves);
    }

    #[inline]
    fn lines(&self, from: usize, moves: &mut Vec<Move>) {
        if LINES[from] & self.targets == 0 {
            return;
        }
        self.ray::<4>(from, moves);
        self.ray::<5>(from, moves);
        self.ray::<6>(from, moves);
        self.ray::<7>(from, moves);
    }

    /// The ray along `DIRS[D]`, a constant, so the step and the bit
    /// scan that finds its nearest piece are fixed at compile time.
    #[inline(always)]
    fn ray<const D: usize>(&self, from: usize, moves: &mut Vec<Move>) {
        let ray = RAYS[from][D];
        let blockers = ray & (self.own | self.enemy);
        let end = if blockers != 0 {
            nearest(D, blockers)
        } else if ray != 0 && !self.captures_only {
            farthest(D, ray)
        } else {
            return;
        };
        if !self.captures_only {
            let mut to = from.wrapping_add_signed(step(D));
            while to != end {
                moves.push(Move::new(Square(from as u8), Square(to as u8)));
                to = to.wrapping_add_signed(step(D));
            }
        }
        if self.own >> end & 1 == 0 {
            moves.push(Move::new(Square(from as u8), Square(end as u8)));
        }
    }
}

/// A pawn's move to `to`, as the four promotions Q, R, B, N when it
/// `promotes`.
#[inline(always)]
fn pawn_move(from: usize, to: usize, promotes: bool, moves: &mut Vec<Move>) {
    let mv = Move::new(Square(from as u8), Square(to as u8));
    if promotes {
        for kind in PROMOTIONS {
            moves.push(Move {
                promotion: Some(kind),
                ..mv
            });
        }
    } else {
        moves.push(mv);
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
/// return the mover's king square. A pseudo-legal move may leave that
/// king attacked; [`legal_moves`] drops those.
pub fn pseudo_legal_moves(board: &Board, moves: &mut Vec<Move>) -> Option<Square> {
    generate(board, false, moves)
}

/// [`pseudo_legal_moves`], or with `captures_only` just the moves that
/// land on an enemy piece: the same moves the full list holds there, in
/// the same order (promotion captures included, no en passant, no
/// castling).
///
/// The order: own pieces by ascending square; a pawn's push, double
/// push, then its captures by ascending square; a knight's or king's
/// targets in delta order; a slider's rays in [`DIRS`](super::tables::DIRS)
/// order, each outward; promotions Q, R, B, N; castling last.
pub(crate) fn generate(
    board: &Board,
    captures_only: bool,
    moves: &mut Vec<Move>,
) -> Option<Square> {
    let gen = Gen::new(board, captures_only);
    let mut own = gen.own;
    while own != 0 {
        gen.piece(own.trailing_zeros() as usize, moves);
        own &= own - 1;
    }
    if !captures_only {
        push_castling(board, moves);
    }
    board.king_square(board.side)
}

/// Whether the side to move has a legal move. Each piece's moves are
/// listed after the end of `moves` in turn, and the test stops at the
/// first legal one; `moves` is left as it came. `king` is the mover's.
///
/// The king comes last: its moves need an attack scan of the child,
/// while another piece's move off the king's lines is legal unless the
/// king stands in check.
pub(crate) fn any_legal(board: &Board, king: &mut King, moves: &mut Vec<Move>) -> bool {
    let base = moves.len();
    let mut legal = |moves: &mut Vec<Move>| {
        let found = moves[base..].iter().any(|&mv| is_legal(board, king, mv));
        moves.truncate(base);
        found
    };
    let gen = Gen::new(board, false);
    let kings = board.bits(board.side, PieceKind::King);
    for mut own in [gen.own & !kings, kings] {
        while own != 0 {
            gen.piece(own.trailing_zeros() as usize, moves);
            own &= own - 1;
            if legal(moves) {
                return true;
            }
        }
    }
    push_castling(board, moves);
    legal(moves)
}

/// Apply `mv` to a copy of `board`, returning the successor position.
/// The move must be at least pseudo-legal.
#[inline]
pub fn apply_move(board: &Board, mv: Move) -> Board {
    let mut b = board.clone();
    make(&mut b, mv);
    b
}

/// The corners and the kings' squares: a move from or to one of them
/// may take castling rights away.
const CASTLING_SQUARES: u64 = 0x91 | 0x91 << 56;

/// [`apply_move`] in place: `b` becomes the position after `mv`. Kept
/// out of line: inlined into [`apply_move`], it timed ≈ 10 ns a call
/// slower (37 against 27 ns).
#[inline(never)]
fn make(b: &mut Board, mv: Move) {
    let piece = b.piece_at(mv.from).expect("move has a piece on its origin");
    let color = piece.color;
    let captured = b.piece_at(mv.to);

    // En-passant capture removes the pawn behind the target square.
    if piece.kind == PieceKind::Pawn && Some(mv.to) == b.en_passant && captured.is_none() {
        let victim = mv.to.0 as i8 - 8 * color.forward();
        b.set_piece(Square(victim as u8), None);
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
        Some(Square((mv.from.0 as i8 + 8 * color.forward()) as u8))
    } else {
        None
    };

    // Castling-rights updates.
    if (CASTLING_SQUARES >> mv.from.0 | CASTLING_SQUARES >> mv.to.0) & 1 != 0 {
        let c = &mut b.castling;
        for sq in [mv.from, mv.to] {
            match (sq.file(), sq.rank()) {
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
            }
        }
    }

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

/// Where the mover's king stands after the pseudo-legal `mv` if an
/// attack scan of the child must decide whether `mv` is legal; `None`
/// if it is legal whatever the child holds.
///
/// A king that is not in check can only be exposed by a king move, by
/// en passant (which empties a second square) or by a piece leaving a
/// line through the king. Any other move is legal without scanning the
/// child for attacks.
fn exposed(board: &Board, king: &mut King, mv: Move) -> Option<Square> {
    let k = king.square?;
    if k != mv.from
        && board.en_passant != Some(mv.to)
        && !aligned(k, mv.from)
        && !king.in_check(board)
    {
        return None;
    }
    Some(if k == mv.from { mv.to } else { k })
}

/// The position after the pseudo-legal `mv`, or `None` if it leaves the
/// mover's king attacked.
#[inline]
pub(crate) fn legal_child(board: &Board, king: &mut King, mv: Move) -> Option<Board> {
    let child = apply_move(board, mv);
    match exposed(board, king, mv) {
        Some(k) if is_attacked(&child, k, board.side.opponent()) => None,
        _ => Some(child),
    }
}

/// Whether the pseudo-legal `mv` is legal: `legal_child(..).is_some()`,
/// building the child only when [`exposed`] leaves it to a scan.
pub(crate) fn is_legal(board: &Board, king: &mut King, mv: Move) -> bool {
    exposed(board, king, mv)
        .is_none_or(|k| !is_attacked(&apply_move(board, mv), k, board.side.opponent()))
}

/// All strictly legal moves for the side to move, in generation order.
pub fn legal_moves(board: &Board) -> Vec<Move> {
    let mut moves = Vec::with_capacity(48);
    let mut king = King::new(pseudo_legal_moves(board, &mut moves));
    moves.retain(|&mv| is_legal(board, &mut king, mv));
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
        assert_eq!(perft(&b, 3), 97_862);
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
    fn perft_position4_promotions_and_pins() {
        // CPW position 4: depth 1 = 6, 2 = 264, 3 = 9467.
        let b = Board::from_fen("r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1")
            .unwrap();
        assert_eq!(perft(&b, 1), 6);
        assert_eq!(perft(&b, 2), 264);
        assert_eq!(perft(&b, 3), 9_467);
    }

    #[test]
    fn perft_promotion_position() {
        // CPW position 5: depth 1 = 44, 2 = 1486, 3 = 62379.
        let b =
            Board::from_fen("rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8").unwrap();
        assert_eq!(perft(&b, 1), 44);
        assert_eq!(perft(&b, 2), 1_486);
        assert_eq!(perft(&b, 3), 62_379);
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
    fn en_passant_that_uncovers_a_diagonal_is_illegal() {
        // exd6 removes the d5 pawn from the g8 bishop's diagonal to the
        // king on a2; the capturing pawn is on none of the king's lines.
        let b = Board::from_fen("6b1/8/8/3pP3/8/8/K7/7k w - d6 0 1").unwrap();
        let ep = Move::new(Square::parse("e5").unwrap(), Square::parse("d6").unwrap());
        let mut moves = Vec::new();
        pseudo_legal_moves(&b, &mut moves);
        assert!(moves.contains(&ep));
        assert!(!legal_moves(&b).contains(&ep));
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
    fn any_legal_finds_the_quiet_move_or_none() {
        let mut moves = Vec::new();
        for (fen, expected) in [
            // Mate and stalemate: nothing is legal.
            (
                "rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/RNBQKBNR w KQkq - 1 3",
                false,
            ),
            ("7k/5Q2/6K1/8/8/8/8/8 b - - 0 1", false),
            // The only capture (Nxd4) is illegal, the knight pinned by
            // the rook on e8; a king step is legal.
            ("k3r3/8/8/8/3p4/8/4N3/4K3 w - - 0 1", true),
            // In check from a knight: only a king step saves it.
            ("k7/8/8/8/8/3n4/8/4K3 w - - 0 1", true),
        ] {
            let b = Board::from_fen(fen).unwrap();
            let mut king = King::new(b.king_square(b.side));
            assert_eq!(any_legal(&b, &mut king, &mut moves), expected, "{fen}");
            assert_eq!(expected, !legal_moves(&b).is_empty(), "{fen}");
            assert!(moves.is_empty());
        }
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
