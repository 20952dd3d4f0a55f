//! Negamax alpha-beta search with iterative deepening and a quiescence
//! stage — the compute kernel the ChessGame workload offloads.

use super::board::Board;
use super::eval::{evaluate, piece_value};
use super::movegen::{any_legal, apply_move, generate, in_check, is_legal, legal_child};
use super::movegen::{legal_moves, pseudo_legal_moves, King, Move};
use super::zobrist::{Bound, TranspositionTable, TtEntry, Zobrist};

/// Score representing a forced mate (offset by ply so nearer mates win).
pub const MATE_SCORE: i32 = 100_000;

/// Result of a search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Best move found, `None` if the position is terminal.
    pub best_move: Option<Move>,
    /// Score in centipawns from the side to move's perspective.
    pub score: i32,
    /// Leaf + interior nodes visited.
    pub nodes: u64,
    /// Depth actually completed.
    pub depth: u32,
}

/// Alpha-beta searcher with a node budget (the offloading framework
/// bounds work per request rather than wall time, keeping the
/// simulation deterministic).
#[derive(Debug)]
pub struct Searcher {
    nodes: u64,
    node_budget: u64,
    table: Option<(Zobrist, TranspositionTable)>,
    /// The pseudo-legal moves of every open node, innermost last. A node
    /// appends its list and leaves it; its caller truncates back once it
    /// returns. So a search allocates no move list per node.
    moves: Vec<Move>,
    /// Scratch for [`order`]: the sort keys of the list being ordered.
    keys: Vec<i32>,
}

/// The value of what `mv` captures, if anything.
fn victim(board: &Board, mv: &Move) -> Option<i32> {
    board.piece_at(mv.to).map(|p| piece_value(p.kind))
}

/// Search order: `first` (the table's move), then captures of big
/// victims, then the rest, each group in generation order. Legality is
/// checked per move just before it is searched: skipping the illegal
/// moves of a stable-sorted list visits the same sequence as sorting
/// the legal ones.
///
/// A stable insertion sort on keys computed once a move: most of a list
/// is quiet moves with equal keys, which stay where they are.
fn order(board: &Board, moves: &mut [Move], first: Option<Move>, keys: &mut Vec<i32>) {
    keys.clear();
    for i in 0..moves.len() {
        let mv = moves[i];
        let bonus = if Some(mv) == first { 100_000 } else { 0 };
        let key = bonus + victim(board, &mv).unwrap_or(-1);
        keys.push(key);
        let mut j = i;
        while j > 0 && keys[j - 1] < key {
            moves[j] = moves[j - 1];
            keys[j] = keys[j - 1];
            j -= 1;
        }
        moves[j] = mv;
        keys[j] = key;
    }
}

impl Searcher {
    /// A searcher allowed to visit at most `node_budget` nodes.
    pub fn new(node_budget: u64) -> Self {
        Searcher {
            nodes: 0,
            node_budget,
            table: None,
            // A few hundred are open at once on a deep capture line.
            moves: Vec::with_capacity(1 << 10),
            // More than a legal position's 218 moves at most.
            keys: Vec::with_capacity(1 << 8),
        }
    }

    /// Enable a transposition table with `slots` entries.
    pub fn with_table(mut self, slots: usize) -> Self {
        self.table = Some((Zobrist::new(), TranspositionTable::new(slots)));
        self
    }

    fn out_of_budget(&self) -> bool {
        self.nodes >= self.node_budget
    }

    /// Quiescence: resolve captures so the horizon effect doesn't
    /// dominate the static eval. `listed` is `(base, king)` when the
    /// caller has already appended this position's captures from
    /// `self.moves[base]`; otherwise they are generated here, once
    /// stand-pat has had its chance to cut.
    fn quiesce(
        &mut self,
        board: &Board,
        mut alpha: i32,
        beta: i32,
        listed: Option<(usize, King)>,
    ) -> i32 {
        self.nodes += 1;
        let stand_pat = evaluate(board);
        if stand_pat >= beta {
            return beta;
        }
        alpha = alpha.max(stand_pat);
        if self.out_of_budget() {
            return alpha;
        }
        let (base, mut king) = listed.unwrap_or_else(|| {
            let base = self.moves.len();
            (base, King::new(generate(board, true, &mut self.moves)))
        });
        let end = self.moves.len();
        // Biggest victim first.
        order(board, &mut self.moves[base..], None, &mut self.keys);
        for i in base..end {
            let mv = self.moves[i];
            let Some(child) = legal_child(board, &mut king, mv) else {
                continue;
            };
            let score = -self.quiesce(&child, -beta, -alpha, None);
            self.moves.truncate(end);
            if score >= beta {
                return beta;
            }
            alpha = alpha.max(score);
            if self.out_of_budget() {
                break;
            }
        }
        alpha
    }

    /// The score of a position with no legal move.
    fn terminal(&mut self, board: &Board, king: &mut King, ply: i32) -> i32 {
        self.nodes += 1;
        if king.in_check(board) {
            -(MATE_SCORE - ply) // mated: worse when nearer
        } else {
            0 // stalemate
        }
    }

    /// A depth-0 node: [`Self::terminal`] if no move is legal, else its
    /// quiescence score. Quiescence searches only captures, and none
    /// when standing pat reaches `beta`. So a leaf lists its captures
    /// only when standing pat is below `beta`, and a legal one shows it
    /// is not terminal; failing that, [`any_legal`] decides, one piece
    /// at a time.
    fn leaf(&mut self, board: &Board, alpha: i32, beta: i32, ply: i32) -> i32 {
        let base = self.moves.len();
        let mut king = King::new(board.king_square(board.side));
        let listed = evaluate(board) < beta;
        if listed {
            generate(board, true, &mut self.moves);
        }
        if !(self.moves[base..]
            .iter()
            .any(|&mv| is_legal(board, &mut king, mv))
            || any_legal(board, &mut king, &mut self.moves))
        {
            return self.terminal(board, &mut king, ply);
        }
        self.quiesce(board, alpha, beta, listed.then_some((base, king)))
    }

    fn negamax(&mut self, board: &Board, depth: u32, mut alpha: i32, beta: i32, ply: i32) -> i32 {
        if depth == 0 {
            return self.leaf(board, alpha, beta, ply);
        }
        let base = self.moves.len();
        let mut king = King::new(pseudo_legal_moves(board, &mut self.moves));
        // Whether the position is terminal needs only its first legal move.
        if !self.moves[base..]
            .iter()
            .any(|&mv| is_legal(board, &mut king, mv))
        {
            return self.terminal(board, &mut king, ply);
        }
        self.nodes += 1;
        let alpha_orig = alpha;

        // Transposition-table probe: a deep-enough stored score can
        // answer the node outright; its best move improves ordering.
        let key = self.table.as_ref().map(|(z, _)| z.hash(board));
        let mut tt_move: Option<Move> = None;
        if let (Some(key), Some((_, tt))) = (key, self.table.as_mut()) {
            if let Some(e) = tt.probe(key) {
                tt_move = e.best;
                // Mate scores are ply-relative; skip the cutoff for them
                // to avoid distance distortion, but keep the move hint.
                if e.depth >= depth && e.score.abs() < MATE_SCORE - 1000 {
                    match e.bound {
                        Bound::Exact => return e.score,
                        Bound::Lower if e.score >= beta => return e.score,
                        Bound::Upper if e.score <= alpha => return e.score,
                        _ => {}
                    }
                }
            }
        }

        order(board, &mut self.moves[base..], tt_move, &mut self.keys);
        let end = self.moves.len();
        let mut best = -MATE_SCORE - 1;
        let mut best_move = None;
        for i in base..end {
            let mv = self.moves[i];
            let Some(child) = legal_child(board, &mut king, mv) else {
                continue;
            };
            let score = -self.negamax(&child, depth - 1, -beta, -alpha, ply + 1);
            self.moves.truncate(end);
            if score > best {
                best = score;
                best_move = Some(mv);
            }
            alpha = alpha.max(score);
            if alpha >= beta || self.out_of_budget() {
                break;
            }
        }

        if let (Some(key), Some((_, tt))) = (key, self.table.as_mut()) {
            let bound = if best <= alpha_orig {
                Bound::Upper
            } else if best >= beta {
                Bound::Lower
            } else {
                Bound::Exact
            };
            tt.store(TtEntry {
                key,
                depth,
                score: best,
                bound,
                best: best_move,
            });
        }
        best
    }

    /// Iterative-deepening search to `max_depth`.
    pub fn search(&mut self, board: &Board, max_depth: u32) -> SearchResult {
        let moves = legal_moves(board);
        if moves.is_empty() {
            let score = if in_check(board, board.side) {
                -MATE_SCORE
            } else {
                0
            };
            return SearchResult {
                best_move: None,
                score,
                nodes: 1,
                depth: 0,
            };
        }
        let mut best_move = moves[0];
        let mut best_score = 0;
        let mut completed = 0;
        for depth in 1..=max_depth {
            let mut iter_best = moves[0];
            let mut iter_score = -MATE_SCORE - 1;
            let mut alpha = -MATE_SCORE - 1;
            for &mv in &moves {
                let score = -self.negamax(
                    &apply_move(board, mv),
                    depth - 1,
                    -MATE_SCORE - 1,
                    -alpha,
                    1,
                );
                self.moves.clear();
                if score > iter_score {
                    iter_score = score;
                    iter_best = mv;
                }
                alpha = alpha.max(score);
                if self.out_of_budget() {
                    break;
                }
            }
            if self.out_of_budget() && depth > 1 {
                break; // keep the last fully trusted iteration
            }
            best_move = iter_best;
            best_score = iter_score;
            completed = depth;
            if self.out_of_budget() {
                break;
            }
        }
        SearchResult {
            best_move: Some(best_move),
            score: best_score,
            nodes: self.nodes,
            depth: completed,
        }
    }
}

/// Convenience: search `board` to `depth` with a large node budget.
pub fn best_move(board: &Board, depth: u32) -> SearchResult {
    Searcher::new(u64::MAX).search(board, depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chess::board::Square;

    #[test]
    fn finds_mate_in_one() {
        // Back-rank mate: Ra8#.
        let b = Board::from_fen("6k1/5ppp/8/8/8/8/8/R5K1 w - - 0 1").unwrap();
        let r = best_move(&b, 3);
        assert_eq!(r.best_move.unwrap().uci(), "a1a8");
        assert!(r.score > MATE_SCORE - 100, "mate score, got {}", r.score);
    }

    #[test]
    fn takes_the_hanging_queen() {
        // White rook can capture an undefended queen on d8… from d1.
        let b = Board::from_fen("3q2k1/8/8/8/8/8/8/3R2K1 w - - 0 1").unwrap();
        let r = best_move(&b, 3);
        assert_eq!(r.best_move.unwrap().to, Square::parse("d8").unwrap());
    }

    #[test]
    fn avoids_losing_the_queen_for_nothing() {
        // Queen attacked by a pawn; depth-2 search must move it away
        // rather than shuffle the king.
        let b = Board::from_fen("6k1/8/8/3p4/4Q3/8/8/6K1 w - - 0 1").unwrap();
        let r = best_move(&b, 3);
        let mv = r.best_move.unwrap();
        if mv.from == Square::parse("e4").unwrap() {
            // Queen moved: must not be capturable by the pawn.
            assert_ne!(
                mv.to.name(),
                "d5".to_string() /* defended? no – d5 capture is fine */
            );
        }
        // Whatever it chose, the score must not reflect a lost queen.
        assert!(r.score > -400, "score {}", r.score);
    }

    #[test]
    fn terminal_positions_report_correctly() {
        let mate = Board::from_fen("rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/RNBQKBNR w KQkq - 1 3")
            .unwrap();
        let r = best_move(&mate, 2);
        assert_eq!(r.best_move, None);
        assert_eq!(r.score, -MATE_SCORE);

        let stale = Board::from_fen("7k/5Q2/6K1/8/8/8/8/8 b - - 0 1").unwrap();
        let r = best_move(&stale, 2);
        assert_eq!(r.best_move, None);
        assert_eq!(r.score, 0);
    }

    #[test]
    fn deeper_search_visits_more_nodes() {
        let b = Board::start();
        let shallow = best_move(&b, 1);
        let deep = best_move(&b, 3);
        assert!(
            deep.nodes > 10 * shallow.nodes,
            "{} vs {}",
            deep.nodes,
            shallow.nodes
        );
        assert_eq!(deep.depth, 3);
    }

    #[test]
    fn node_budget_caps_work() {
        let b = Board::start();
        let mut s = Searcher::new(500);
        let r = s.search(&b, 12);
        assert!(r.nodes <= 1_000, "budget roughly respected: {}", r.nodes);
        assert!(r.best_move.is_some(), "still returns a move");
        assert!(r.depth < 12, "cannot complete depth 12 in 500 nodes");
    }

    #[test]
    fn tt_search_agrees_with_plain_search() {
        for fen in [
            "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
            "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1",
            "3q2k1/8/8/8/8/8/8/3R2K1 w - - 0 1",
        ] {
            let b = Board::from_fen(fen).unwrap();
            let plain = Searcher::new(u64::MAX).search(&b, 3);
            let with_tt = Searcher::new(u64::MAX).with_table(1 << 14).search(&b, 3);
            assert_eq!(with_tt.best_move, plain.best_move, "{fen}");
            assert_eq!(with_tt.score, plain.score, "{fen}");
        }
    }

    #[test]
    fn tt_reduces_node_count_at_depth() {
        let b =
            Board::from_fen("r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1")
                .unwrap();
        let plain = Searcher::new(u64::MAX).search(&b, 4);
        let mut tt_searcher = Searcher::new(u64::MAX).with_table(1 << 16);
        let with_tt = tt_searcher.search(&b, 4);
        assert!(
            with_tt.nodes < plain.nodes,
            "TT should prune: {} vs {}",
            with_tt.nodes,
            plain.nodes
        );
        let (hits, _, stores) = tt_searcher.table.as_ref().unwrap().1.stats();
        assert!(hits > 0, "table was consulted");
        assert!(stores > 0, "table was populated");
    }

    #[test]
    fn search_is_deterministic() {
        let b =
            Board::from_fen("r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1")
                .unwrap();
        let a = best_move(&b, 3);
        let c = best_move(&b, 3);
        assert_eq!(a, c);
    }
}
