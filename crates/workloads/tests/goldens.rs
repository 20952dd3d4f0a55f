//! Pinned outputs of the chess search and the OCR matcher.
//!
//! A faster kernel must do the same work: the same best move, score,
//! node count and completed depth on every search path (plain, with a
//! transposition table, under a node budget), and the same text,
//! comparison count and confidence *bits* from the matcher, including
//! on an image whose glyph boxes the bottom edge clips. Regenerate only
//! on a deliberate change of observable output (print the tables with
//! `cargo test -p workloads --test goldens -- --nocapture`).

use simkit::SimRng;
use workloads::chess::{perft, Board, Searcher};
use workloads::ocr::{add_noise, recognize, render_text, GrayImage};

const START: &str = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1";
const KIWIPETE: &str = "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1";
const CPW3: &str = "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1";
const CPW4: &str = "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1";
const CPW5: &str = "rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8";

const FENS: [&str; 5] = [START, KIWIPETE, CPW3, CPW4, CPW5];

/// The ways a search can be configured. The 5 000-node budget runs out
/// inside Kiwipete's first iteration; the 1 000-node one inside a later
/// iteration of three other positions.
const SEARCHERS: [&str; 4] = ["plain", "table", "budget", "budget1k"];

fn searcher(kind: &str) -> Searcher {
    match kind {
        "plain" => Searcher::new(u64::MAX),
        "table" => Searcher::new(u64::MAX).with_table(1 << 14),
        "budget" => Searcher::new(5_000),
        "budget1k" => Searcher::new(1_000),
        _ => unreachable!("{kind}"),
    }
}

/// `(best move, score, nodes, depth)` of a depth-3 search, per
/// [`FENS`] row × [`SEARCHERS`] column.
const SEARCH_GOLDEN: [[(&str, i32, u64, u32); 4]; 5] = [
    [
        ("b1c3", 50, 1137, 3),
        ("b1c3", 50, 683, 3),
        ("b1c3", 50, 1137, 3),
        ("b1c3", 0, 1000, 2),
    ],
    [
        ("e2a6", 50, 43791, 3),
        ("e2a6", 50, 38664, 3),
        ("a1d1", -140, 5000, 1),
        ("a1c1", -235, 1000, 1),
    ],
    [
        ("b4f4", 110, 788, 3),
        ("b4f4", 110, 697, 3),
        ("b4f4", 110, 788, 3),
        ("b4f4", 110, 788, 3),
    ],
    [
        ("c4c5", -375, 4652, 3),
        ("c4c5", -375, 4652, 3),
        ("c4c5", -375, 4652, 3),
        ("c4c5", -375, 1000, 1),
    ],
    [
        ("d7c8q", 560, 4223, 3),
        ("d7c8q", 560, 3967, 3),
        ("d7c8q", 560, 4223, 3),
        ("d7c8q", 560, 1000, 1),
    ],
];

fn search(fen: &str, kind: &str) -> (String, i32, u64, u32) {
    let board = Board::from_fen(fen).unwrap();
    let r = searcher(kind).search(&board, 3);
    let mv = r.best_move.map(|m| m.uci()).unwrap_or_default();
    (mv, r.score, r.nodes, r.depth)
}

/// A noisy line whose bottom rows are cropped away at `height`, so every
/// glyph box runs off the image and only its top part can be compared.
fn clipped(height: usize, seed: u64) -> GrayImage {
    let mut img = render_text("CLIPPED 42 XYZ");
    add_noise(&mut img, 25.0, 0.01, &mut SimRng::new(seed));
    img.pixels.truncate(img.width * height);
    img.height = height;
    img
}

/// Heights to crop at: a whole glyph-row boundary (rows 6..24 of the
/// 6..27 box) and one that cuts a scaled glyph row in half.
const CLIP_HEIGHTS: [usize; 2] = [24, 14];

/// `(text, comparisons, confidence bits)` per [`CLIP_HEIGHTS`] entry.
const CLIP_GOLDEN: [(&str, u64, u64); 2] = [
    ("CLIPPED 42 XYZ", 518, 0x3fefdb285d307db3),
    ("CLIBBEB 42 XYZ", 518, 0x3fefd41d41d41d43),
];

#[test]
fn print_tables() {
    for fen in FENS {
        println!("    [");
        for kind in SEARCHERS {
            let (mv, score, nodes, depth) = search(fen, kind);
            println!("        ({mv:?}, {score}, {nodes}, {depth}),");
        }
        println!("    ],");
    }
    for height in CLIP_HEIGHTS {
        let r = recognize(&clipped(height, height as u64));
        println!(
            "    ({:?}, {}, 0x{:016x}),",
            r.text,
            r.comparisons,
            r.confidence.to_bits()
        );
    }
}

#[test]
fn searches_match_committed_results() {
    for (fen, row) in FENS.into_iter().zip(SEARCH_GOLDEN) {
        for (kind, (mv, score, nodes, depth)) in SEARCHERS.into_iter().zip(row) {
            assert_eq!(
                search(fen, kind),
                (mv.to_string(), score, nodes, depth),
                "{kind} search of {fen}"
            );
        }
    }
}

#[test]
fn clipped_glyph_boxes_match_committed_results() {
    for (height, (text, comparisons, bits)) in CLIP_HEIGHTS.into_iter().zip(CLIP_GOLDEN) {
        let r = recognize(&clipped(height, height as u64));
        assert_eq!(
            (r.text.as_str(), r.comparisons, r.confidence.to_bits()),
            (text, comparisons, bits),
            "cropped to {height} rows"
        );
    }
}

#[test]
fn perft_kiwipete_depth_3() {
    assert_eq!(perft(&Board::from_fen(KIWIPETE).unwrap(), 3), 97_862);
}

#[test]
fn perft_cpw_position_3_depth_4() {
    assert_eq!(perft(&Board::from_fen(CPW3).unwrap(), 4), 43_238);
}

#[test]
fn perft_cpw_position_4_depth_3() {
    assert_eq!(perft(&Board::from_fen(CPW4).unwrap(), 3), 9_467);
}

#[test]
fn perft_cpw_position_5_depth_3() {
    assert_eq!(perft(&Board::from_fen(CPW5).unwrap(), 3), 62_379);
}
