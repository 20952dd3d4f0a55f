//! ChessGame — the interactive, network-chatty benchmark (§III-A).
//!
//! An Android port of the CuckooChess engine in the paper; here a
//! from-scratch legal-move engine with alpha-beta search. The offloaded
//! unit of work is "given this FEN, find the best move to depth d".

pub mod board;
pub mod eval;
pub mod movegen;
pub mod search;
mod tables;
pub mod zobrist;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod reference;

pub use board::{Board, Color, Piece, PieceKind, Square};
pub use movegen::{apply_move, in_check, legal_moves, perft, Move};
pub use search::{best_move, SearchResult, Searcher};
pub use zobrist::{Bound, TranspositionTable, TtEntry, Zobrist};

/// One offloadable chess request: position + search depth.
#[derive(Debug, Clone)]
pub struct ChessRequest {
    /// Position to analyse, as FEN.
    pub fen: String,
    /// Search depth.
    pub depth: u32,
}

/// Execute a chess request (the code that would run inside the Cloud
/// Android Container). Returns the UCI best move, score and node count.
pub fn execute(req: &ChessRequest) -> Result<SearchResult, board::FenError> {
    let b = Board::from_fen(&req.fen)?;
    Ok(best_move(&b, req.depth))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_end_to_end() {
        let req = ChessRequest {
            fen: Board::start().to_fen(),
            depth: 2,
        };
        let r = execute(&req).unwrap();
        assert!(r.best_move.is_some());
        assert!(r.nodes > 20);
    }

    #[test]
    fn execute_rejects_bad_fen() {
        let req = ChessRequest {
            fen: "not a fen".into(),
            depth: 2,
        };
        assert!(execute(&req).is_err());
    }
}
