//! Zobrist hashing and a transposition table — the search accelerator a
//! real CuckooChess-class engine relies on.

use super::board::{Board, Color, PieceKind};
use super::movegen::Move;

/// Deterministic pseudo-random table built with SplitMix64 so every
/// build of the engine hashes identically.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn piece_index(kind: PieceKind) -> usize {
    match kind {
        PieceKind::Pawn => 0,
        PieceKind::Knight => 1,
        PieceKind::Bishop => 2,
        PieceKind::Rook => 3,
        PieceKind::Queen => 4,
        PieceKind::King => 5,
    }
}

/// Zobrist key material.
#[derive(Debug)]
pub struct Zobrist {
    /// [color][piece][square]
    pieces: [[[u64; 64]; 6]; 2],
    side_to_move: u64,
    castling: [u64; 4],
    en_passant_file: [u64; 8],
}

impl Zobrist {
    /// Build the shared table.
    pub fn new() -> Self {
        let mut seed = 0xC4E5_5E55_0B5E_55EDu64;
        let mut next = || {
            seed = splitmix(seed);
            seed
        };
        let mut pieces = [[[0u64; 64]; 6]; 2];
        for color in &mut pieces {
            for piece in color.iter_mut() {
                for sq in piece.iter_mut() {
                    *sq = next();
                }
            }
        }
        Zobrist {
            pieces,
            side_to_move: next(),
            castling: [next(), next(), next(), next()],
            en_passant_file: [
                next(),
                next(),
                next(),
                next(),
                next(),
                next(),
                next(),
                next(),
            ],
        }
    }

    /// Hash a full position.
    pub fn hash(&self, board: &Board) -> u64 {
        let mut h = 0u64;
        for (sq, piece) in board.pieces() {
            let ci = if piece.color == Color::White { 0 } else { 1 };
            h ^= self.pieces[ci][piece_index(piece.kind)][sq.0 as usize];
        }
        if board.side == Color::Black {
            h ^= self.side_to_move;
        }
        let c = board.castling;
        for (i, flag) in [c.white_king, c.white_queen, c.black_king, c.black_queen]
            .into_iter()
            .enumerate()
        {
            if flag {
                h ^= self.castling[i];
            }
        }
        if let Some(ep) = board.en_passant {
            h ^= self.en_passant_file[ep.file() as usize];
        }
        h
    }
}

impl Default for Zobrist {
    fn default() -> Self {
        Zobrist::new()
    }
}

/// Bound type of a stored score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Exact minimax value.
    Exact,
    /// Score is a lower bound (fail-high / beta cutoff).
    Lower,
    /// Score is an upper bound (fail-low).
    Upper,
}

/// One transposition-table entry.
#[derive(Debug, Clone, Copy)]
pub struct TtEntry {
    /// Full Zobrist key (verification against index collisions).
    pub key: u64,
    /// Remaining search depth the score was computed at.
    pub depth: u32,
    /// Stored score (centipawns).
    pub score: i32,
    /// Score bound.
    pub bound: Bound,
    /// Best move found at this node, if any.
    pub best: Option<Move>,
}

/// A fixed-size, always-replace transposition table.
#[derive(Debug)]
pub struct TranspositionTable {
    entries: Vec<Option<TtEntry>>,
    mask: usize,
    hits: u64,
    misses: u64,
    stores: u64,
}

impl TranspositionTable {
    /// A table with `capacity` slots, rounded up to a power of two.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(16);
        TranspositionTable {
            entries: vec![None; cap],
            mask: cap - 1,
            hits: 0,
            misses: 0,
            stores: 0,
        }
    }

    /// Probe for `key`; returns entries whose full key matches.
    pub fn probe(&mut self, key: u64) -> Option<TtEntry> {
        match self.entries[(key as usize) & self.mask] {
            Some(e) if e.key == key => {
                self.hits += 1;
                Some(e)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store an entry, preferring deeper searches on collision.
    pub fn store(&mut self, entry: TtEntry) {
        let idx = (entry.key as usize) & self.mask;
        let replace = match self.entries[idx] {
            Some(old) => old.key == entry.key || entry.depth >= old.depth,
            None => true,
        };
        if replace {
            self.entries[idx] = Some(entry);
            self.stores += 1;
        }
    }

    /// (hits, misses, stores) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.stores)
    }

    /// Slots in the table.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chess::movegen::{apply_move, legal_moves};

    #[test]
    fn hash_is_deterministic_across_instances() {
        let z1 = Zobrist::new();
        let z2 = Zobrist::new();
        let b = Board::start();
        assert_eq!(z1.hash(&b), z2.hash(&b));
    }

    #[test]
    fn transposition_same_position_same_hash() {
        // 1.Nf3 Nf6 2.Ng1 Ng8 returns to the start position (minus
        // move counters, which Zobrist ignores).
        let z = Zobrist::new();
        let b = Board::start();
        let h0 = z.hash(&b);
        let path = ["g1f3", "g8f6", "f3g1", "f6g8"];
        let mut cur = b;
        for uci in path {
            let mv = legal_moves(&cur)
                .into_iter()
                .find(|m| m.uci() == uci)
                .unwrap_or_else(|| panic!("{uci} is legal"));
            cur = apply_move(&cur, mv);
        }
        assert_eq!(z.hash(&cur), h0, "transposition back to start");
    }

    #[test]
    fn different_positions_different_hashes() {
        let z = Zobrist::new();
        let b = Board::start();
        let mut seen = std::collections::HashSet::new();
        seen.insert(z.hash(&b));
        for mv in legal_moves(&b) {
            let h = z.hash(&apply_move(&b, mv));
            assert!(seen.insert(h), "collision after {}", mv.uci());
        }
    }

    #[test]
    fn side_to_move_and_ep_affect_hash() {
        let z = Zobrist::new();
        let w = Board::from_fen("4k3/8/8/8/8/8/8/4K3 w - - 0 1").unwrap();
        let b = Board::from_fen("4k3/8/8/8/8/8/8/4K3 b - - 0 1").unwrap();
        assert_ne!(z.hash(&w), z.hash(&b));
        let ep = Board::from_fen("4k3/8/8/3pP3/8/8/8/4K3 w - d6 0 1").unwrap();
        let no_ep = Board::from_fen("4k3/8/8/3pP3/8/8/8/4K3 w - - 0 1").unwrap();
        assert_ne!(z.hash(&ep), z.hash(&no_ep));
    }

    #[test]
    fn castling_rights_affect_hash() {
        let z = Zobrist::new();
        let all = Board::from_fen("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1").unwrap();
        let none = Board::from_fen("r3k2r/8/8/8/8/8/8/R3K2R w - - 0 1").unwrap();
        assert_ne!(z.hash(&all), z.hash(&none));
    }

    #[test]
    fn tt_probe_store_cycle() {
        let mut tt = TranspositionTable::new(1024);
        assert!(tt.probe(42).is_none());
        tt.store(TtEntry {
            key: 42,
            depth: 3,
            score: 17,
            bound: Bound::Exact,
            best: None,
        });
        let e = tt.probe(42).expect("stored");
        assert_eq!(e.score, 17);
        assert_eq!(e.bound, Bound::Exact);
        let (hits, misses, stores) = tt.stats();
        assert_eq!((hits, misses, stores), (1, 1, 1));
    }

    #[test]
    fn tt_collision_keeps_deeper_entry() {
        let mut tt = TranspositionTable::new(16);
        // Two keys landing in the same slot (same low bits).
        let a = 0x10u64;
        let b = a + tt.capacity() as u64;
        tt.store(TtEntry {
            key: a,
            depth: 6,
            score: 1,
            bound: Bound::Exact,
            best: None,
        });
        tt.store(TtEntry {
            key: b,
            depth: 2,
            score: 2,
            bound: Bound::Exact,
            best: None,
        });
        assert!(
            tt.probe(a).is_some(),
            "deeper entry survives a shallow challenger"
        );
        assert!(tt.probe(b).is_none());
        tt.store(TtEntry {
            key: b,
            depth: 9,
            score: 2,
            bound: Bound::Exact,
            best: None,
        });
        assert!(tt.probe(b).is_some(), "deeper challenger replaces");
    }

    #[test]
    fn tt_verifies_full_key() {
        let mut tt = TranspositionTable::new(16);
        let a = 0x20u64;
        let aliased = a + tt.capacity() as u64; // same slot, different key
        tt.store(TtEntry {
            key: a,
            depth: 1,
            score: 5,
            bound: Bound::Exact,
            best: None,
        });
        assert!(
            tt.probe(aliased).is_none(),
            "index collision must not alias"
        );
    }
}
