//! Chess board representation (8×8 mailbox) with FEN support.
//!
//! The ChessGame benchmark is an Android port of the CuckooChess
//! engine; this module is the board layer of our from-scratch engine.

use super::eval::TERMS;
use std::fmt;

/// Piece colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Color {
    /// White to move first.
    White,
    /// Black.
    Black,
}

impl Color {
    /// The opposing colour.
    pub const fn opponent(self) -> Color {
        match self {
            Color::White => Color::Black,
            Color::Black => Color::White,
        }
    }

    /// Pawn push direction (+1 rank for white, −1 for black).
    pub const fn forward(self) -> i8 {
        match self {
            Color::White => 1,
            Color::Black => -1,
        }
    }
}

/// Piece type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PieceKind {
    /// Pawn.
    Pawn,
    /// Knight.
    Knight,
    /// Bishop.
    Bishop,
    /// Rook.
    Rook,
    /// Queen.
    Queen,
    /// King.
    King,
}

/// A coloured piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Piece {
    /// Owner.
    pub color: Color,
    /// Kind.
    pub kind: PieceKind,
}

impl Piece {
    /// FEN character for the piece.
    fn to_char(self) -> char {
        let c = match self.kind {
            PieceKind::Pawn => 'p',
            PieceKind::Knight => 'n',
            PieceKind::Bishop => 'b',
            PieceKind::Rook => 'r',
            PieceKind::Queen => 'q',
            PieceKind::King => 'k',
        };
        match self.color {
            Color::White => c.to_ascii_uppercase(),
            Color::Black => c,
        }
    }

    /// Parse a FEN piece character.
    fn from_char(c: char) -> Option<Piece> {
        let color = if c.is_ascii_uppercase() {
            Color::White
        } else {
            Color::Black
        };
        let kind = match c.to_ascii_lowercase() {
            'p' => PieceKind::Pawn,
            'n' => PieceKind::Knight,
            'b' => PieceKind::Bishop,
            'r' => PieceKind::Rook,
            'q' => PieceKind::Queen,
            'k' => PieceKind::King,
            _ => return None,
        };
        Some(Piece { color, kind })
    }
}

/// A square index 0..64 (a1 = 0, h1 = 7, a8 = 56).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Square(pub u8);

impl Square {
    /// Build from file (0..8) and rank (0..8).
    pub fn at(file: u8, rank: u8) -> Square {
        debug_assert!(file < 8 && rank < 8);
        Square(rank * 8 + file)
    }

    /// File 0..8 (a..h).
    pub const fn file(self) -> u8 {
        self.0 % 8
    }

    /// Rank 0..8 (1..8).
    pub const fn rank(self) -> u8 {
        self.0 / 8
    }

    /// Offset by (df, dr); `None` if off the board.
    pub fn offset(self, df: i8, dr: i8) -> Option<Square> {
        let f = self.file() as i8 + df;
        let r = self.rank() as i8 + dr;
        if (0..8).contains(&f) && (0..8).contains(&r) {
            Some(Square::at(f as u8, r as u8))
        } else {
            None
        }
    }

    /// Algebraic name, e.g. `"e4"`.
    pub fn name(self) -> String {
        format!("{}{}", (b'a' + self.file()) as char, self.rank() + 1)
    }

    /// Parse algebraic notation.
    pub fn parse(s: &str) -> Option<Square> {
        let bytes = s.as_bytes();
        if bytes.len() != 2 {
            return None;
        }
        let file = bytes[0].checked_sub(b'a')?;
        let rank = bytes[1].checked_sub(b'1')?;
        if file < 8 && rank < 8 {
            Some(Square::at(file, rank))
        } else {
            None
        }
    }
}

/// Castling availability flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Castling {
    /// White may castle kingside.
    pub white_king: bool,
    /// White may castle queenside.
    pub white_queen: bool,
    /// Black may castle kingside.
    pub black_king: bool,
    /// Black may castle queenside.
    pub black_queen: bool,
}

/// Full game position.
///
/// [`Board::set_piece`] is the only writer of the squares, and it keeps
/// three summaries of them in step: each colour's occupancy bits, each
/// kind's occupancy bits and the evaluation's running score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Board {
    squares: [Option<Piece>; 64],
    /// Bit `i` of `occupied[colour]` is set when that colour holds square `i`.
    occupied: [u64; 2],
    /// Bit `i` of `kinds[kind]` is set when a piece of that kind, of
    /// either colour, stands on square `i`.
    kinds: [u64; 6],
    /// White's material and piece-square terms minus Black's.
    score: i32,
    /// Side to move.
    pub side: Color,
    /// Castling rights.
    pub castling: Castling,
    /// En-passant target square, if the last move was a double push.
    pub en_passant: Option<Square>,
    /// Halfmove clock for the 50-move rule.
    pub halfmove_clock: u32,
    /// Fullmove number.
    pub fullmove: u32,
}

/// Errors from FEN parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FenError(pub String);

impl fmt::Display for FenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid FEN: {}", self.0)
    }
}

impl std::error::Error for FenError {}

impl Board {
    /// An empty board, white to move.
    pub fn empty() -> Self {
        Board {
            squares: [None; 64],
            occupied: [0; 2],
            kinds: [0; 6],
            score: 0,
            side: Color::White,
            castling: Castling::default(),
            en_passant: None,
            halfmove_clock: 0,
            fullmove: 1,
        }
    }

    /// The standard starting position.
    pub fn start() -> Self {
        Board::from_fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1")
            .expect("start FEN is valid")
    }

    /// Piece at a square.
    #[inline]
    pub fn piece_at(&self, sq: Square) -> Option<Piece> {
        self.squares[sq.0 as usize]
    }

    /// Place (or clear) a piece.
    #[inline]
    pub fn set_piece(&mut self, sq: Square, piece: Option<Piece>) {
        let i = sq.0 as usize;
        if let Some(old) = self.squares[i] {
            self.occupied[old.color as usize] &= !(1 << i);
            self.kinds[old.kind as usize] &= !(1 << i);
            self.score -= TERMS[old.color as usize][old.kind as usize][i];
        }
        if let Some(new) = piece {
            self.occupied[new.color as usize] |= 1 << i;
            self.kinds[new.kind as usize] |= 1 << i;
            self.score += TERMS[new.color as usize][new.kind as usize][i];
        }
        self.squares[i] = piece;
    }

    /// White's material and piece-square score minus Black's.
    #[inline]
    pub(crate) fn score(&self) -> i32 {
        self.score
    }

    /// The squares `color` holds, as bits.
    #[inline]
    pub(crate) fn occupied(&self, color: Color) -> u64 {
        self.occupied[color as usize]
    }

    /// The squares any piece holds, as bits.
    #[inline]
    pub(crate) fn occupancy(&self) -> u64 {
        self.occupied[0] | self.occupied[1]
    }

    /// The squares `color`'s pieces of `kind` hold, as bits.
    #[inline]
    pub(crate) fn bits(&self, color: Color, kind: PieceKind) -> u64 {
        self.occupied[color as usize] & self.kinds[kind as usize]
    }

    /// Find the king of `color` (the lowest square, should there be two).
    pub fn king_square(&self, color: Color) -> Option<Square> {
        let kings = self.bits(color, PieceKind::King);
        (kings != 0).then(|| Square(kings.trailing_zeros() as u8))
    }

    /// Every `(square, piece)` on the board, ascending square.
    pub fn pieces(&self) -> impl Iterator<Item = (Square, Piece)> + '_ {
        let mut bits = self.occupancy();
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.squares[i].map(|p| (Square(i as u8), p))
        })
    }

    /// Parse a FEN string.
    pub fn from_fen(fen: &str) -> Result<Board, FenError> {
        let fields: Vec<&str> = fen.split_whitespace().collect();
        if fields.len() < 4 {
            return Err(FenError(format!(
                "expected ≥4 fields, got {}",
                fields.len()
            )));
        }
        let mut board = Board::empty();
        let ranks: Vec<&str> = fields[0].split('/').collect();
        if ranks.len() != 8 {
            return Err(FenError(format!("expected 8 ranks, got {}", ranks.len())));
        }
        for (i, rank_str) in ranks.iter().enumerate() {
            let rank = 7 - i as u8;
            let mut file = 0u8;
            for c in rank_str.chars() {
                if let Some(skip) = c.to_digit(10) {
                    file += skip as u8;
                } else {
                    let piece =
                        Piece::from_char(c).ok_or_else(|| FenError(format!("bad piece '{c}'")))?;
                    if file >= 8 {
                        return Err(FenError(format!("rank {} overflows", rank + 1)));
                    }
                    board.set_piece(Square::at(file, rank), Some(piece));
                    file += 1;
                }
            }
            if file != 8 {
                return Err(FenError(format!("rank {} has {file} files", rank + 1)));
            }
        }
        board.side = match fields[1] {
            "w" => Color::White,
            "b" => Color::Black,
            other => return Err(FenError(format!("bad side '{other}'"))),
        };
        board.castling = Castling {
            white_king: fields[2].contains('K'),
            white_queen: fields[2].contains('Q'),
            black_king: fields[2].contains('k'),
            black_queen: fields[2].contains('q'),
        };
        board.en_passant = match fields[3] {
            "-" => None,
            sq => Some(Square::parse(sq).ok_or_else(|| FenError(format!("bad ep '{sq}'")))?),
        };
        board.halfmove_clock = fields.get(4).and_then(|s| s.parse().ok()).unwrap_or(0);
        board.fullmove = fields.get(5).and_then(|s| s.parse().ok()).unwrap_or(1);
        Ok(board)
    }

    /// Serialize to FEN.
    pub fn to_fen(&self) -> String {
        let mut out = String::new();
        for rank in (0..8).rev() {
            let mut empty = 0;
            for file in 0..8 {
                match self.piece_at(Square::at(file, rank)) {
                    Some(p) => {
                        if empty > 0 {
                            out.push_str(&empty.to_string());
                            empty = 0;
                        }
                        out.push(p.to_char());
                    }
                    None => empty += 1,
                }
            }
            if empty > 0 {
                out.push_str(&empty.to_string());
            }
            if rank > 0 {
                out.push('/');
            }
        }
        out.push(' ');
        out.push(match self.side {
            Color::White => 'w',
            Color::Black => 'b',
        });
        out.push(' ');
        let c = &self.castling;
        if !(c.white_king || c.white_queen || c.black_king || c.black_queen) {
            out.push('-');
        } else {
            if c.white_king {
                out.push('K');
            }
            if c.white_queen {
                out.push('Q');
            }
            if c.black_king {
                out.push('k');
            }
            if c.black_queen {
                out.push('q');
            }
        }
        out.push(' ');
        match self.en_passant {
            Some(sq) => out.push_str(&sq.name()),
            None => out.push('-'),
        }
        out.push_str(&format!(" {} {}", self.halfmove_clock, self.fullmove));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_position_layout() {
        let b = Board::start();
        assert_eq!(
            b.piece_at(Square::parse("e1").unwrap()),
            Some(Piece {
                color: Color::White,
                kind: PieceKind::King
            })
        );
        assert_eq!(
            b.piece_at(Square::parse("d8").unwrap()),
            Some(Piece {
                color: Color::Black,
                kind: PieceKind::Queen
            })
        );
        assert_eq!(b.piece_at(Square::parse("e4").unwrap()), None);
        for color in [Color::White, Color::Black] {
            assert_eq!(b.pieces().filter(|(_, p)| p.color == color).count(), 16);
        }
    }

    #[test]
    fn fen_round_trip() {
        let fens = [
            "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1",
            "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
            "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
            "rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8",
        ];
        for fen in fens {
            let b = Board::from_fen(fen).unwrap();
            assert_eq!(b.to_fen(), fen);
        }
    }

    #[test]
    fn fen_errors() {
        assert!(Board::from_fen("").is_err());
        assert!(Board::from_fen("8/8/8/8/8/8/8 w - -").is_err(), "7 ranks");
        assert!(
            Board::from_fen("9/8/8/8/8/8/8/8 w - -").is_err(),
            "bad file count"
        );
        assert!(
            Board::from_fen("x7/8/8/8/8/8/8/8 w - -").is_err(),
            "bad piece"
        );
        assert!(
            Board::from_fen("8/8/8/8/8/8/8/8 z - -").is_err(),
            "bad side"
        );
    }

    #[test]
    fn square_algebra() {
        let e4 = Square::parse("e4").unwrap();
        assert_eq!(e4.name(), "e4");
        assert_eq!(e4.file(), 4);
        assert_eq!(e4.rank(), 3);
        assert_eq!(e4.offset(0, 1), Square::parse("e5"));
        assert_eq!(e4.offset(-4, 0), Square::parse("a4"));
        assert_eq!(Square::parse("a1").unwrap().offset(-1, 0), None);
        assert_eq!(Square::parse("h8").unwrap().offset(1, 1), None);
        assert_eq!(Square::parse("i9"), None);
        assert_eq!(Square::parse(""), None);
    }

    #[test]
    fn king_lookup() {
        let b = Board::start();
        assert_eq!(b.king_square(Color::White), Square::parse("e1"));
        assert_eq!(b.king_square(Color::Black), Square::parse("e8"));
        assert_eq!(Board::empty().king_square(Color::White), None);
    }

    #[test]
    fn color_helpers() {
        assert_eq!(Color::White.opponent(), Color::Black);
        assert_eq!(Color::White.forward(), 1);
        assert_eq!(Color::Black.forward(), -1);
    }
}
