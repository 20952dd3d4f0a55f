//! Pinned outputs of the chess search and the OCR matcher, and of the
//! seeded input builders they run on.
//!
//! A faster kernel must do the same work: the same best move, score,
//! node count and completed depth on every search path (plain, with a
//! transposition table, under a node budget), and the same text,
//! comparison count and confidence *bits* from the matcher, including
//! on an image whose glyph boxes the bottom edge clips. The matcher
//! reads a pixel only as `< 128`, so it cannot see a changed gray
//! level: the noisy pages themselves are folded byte by byte, as is
//! [`add_noise`] over a ramp of every gray level, and the integer draws
//! `SimRng::uniform_u64` makes at the spans the input builders use and
//! at spans that reject often. Regenerate only on a deliberate change
//! of observable output (print the tables with
//! `cargo test --release -p workloads --test goldens -- --nocapture`).
//!
//! A debug build builds pages tens of times slower, so it folds only
//! the first few pages of each size; a release build checks both folds.

use simkit::SimRng;
use workloads::chess::{perft, Board, Searcher};
use workloads::ocr::{self, add_noise, recognize, render_text, GrayImage};

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

/// FNV-1a over 64-bit words.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold an image's dimensions and every pixel.
fn fold_image(h: u64, img: &GrayImage) -> u64 {
    let h = mix(mix(h, img.width as u64), img.height as u64);
    img.pixels.iter().fold(h, |h, &p| mix(h, u64::from(p)))
}

/// The first page seed; page `i` is built at `FIRST_SEED + i`, as the
/// exec kernel builds its inputs.
const FIRST_SEED: u64 = 0x5EED_0000;

/// `(words on the page, pages folded in debug, fold over them, pages
/// folded in release, fold over them)` for OCR S, M and L
/// (`exec::workset`'s word counts).
#[rustfmt::skip]
const PAGE_GOLDEN: [(usize, u64, u64, u64, u64); 3] = [
    (4, 8, 0xc1208537240c6023, 200, 0xedfa57fde58ded9f),
    (10, 4, 0x498f33609587a50d, 200, 0x5c90925822f4eef6),
    (24, 2, 0x237b909235738d7b, 200, 0xa7b2bed965c6ef71),
];

/// Fold the first `pages` noisy OCR pages of `words` words.
fn fold_pages(words: usize, pages: u64) -> u64 {
    (FIRST_SEED..FIRST_SEED + pages).fold(FNV_OFFSET, |h, seed| {
        fold_image(
            h,
            &ocr::generate_request(words, &mut SimRng::new(seed)).image,
        )
    })
}

/// Rows of the ramp image; each row holds every gray level once.
const RAMP_ROWS: usize = 32;
/// Seeds the ramp is noised at, per `(sigma, salt)` cell.
const RAMP_SEEDS: u64 = 16;

/// `(sigma, salt-and-pepper fraction, fold)` of [`add_noise`] over the
/// ramp.
const RAMP_GOLDEN: [(f64, f64, u64); 6] = [
    (25.0, 0.0, 0x67af67ee4db866b0),
    (25.0, 0.01, 0x6671a6f05975b2b0),
    (25.0, 0.3, 0x6e28172c85d244dd),
    (120.0, 0.0, 0x933c7b64d6c31b5d),
    (120.0, 0.01, 0x3d275e580e0fefd2),
    (120.0, 0.3, 0x5aa00cb274b651bb),
];

/// Fold [`add_noise`] over the ramp at [`RAMP_SEEDS`] seeds.
fn fold_ramp(sigma: f64, salt: f64) -> u64 {
    (0..RAMP_SEEDS).fold(FNV_OFFSET, |h, seed| {
        let mut img = GrayImage {
            width: 256,
            height: RAMP_ROWS,
            pixels: (0..256 * RAMP_ROWS).map(|i| i as u8).collect(),
        };
        add_noise(&mut img, sigma, salt, &mut SimRng::new(seed));
        fold_image(h, &img)
    })
}

/// Draws folded per `uniform_u64` range.
const UNIFORM_DRAWS: u64 = 20_000;

/// `(lo, hi, fold)` of [`UNIFORM_DRAWS`] draws of `uniform_u64(lo, hi)`
/// and the stream's next `u64`: spans 1, 2, 95 (a corpus byte),
/// 2³² + 1, 2⁶³ + 1 (about half of all words rejected), 3 · 2⁶²
/// (a quarter rejected, all of them above `MAX − span`) and the full
/// range.
#[rustfmt::skip]
const UNIFORM_GOLDEN: [(u64, u64, u64); 7] = [
    (3, 3, 0xe11840557f92c82f),
    (3, 4, 0xb00960dfd5457447),
    (32, 126, 0x74fcfbd26eabbb01),
    (3, 3 + (1 << 32), 0xedd1f5a4012ba039),
    (3, 3 + (1 << 63), 0xe0cc67ea76a156d6),
    (0, (3 << 62) - 1, 0xafb722557dbc3946),
    (0, u64::MAX, 0xe52c4b31e42b6c45),
];

/// Fold [`UNIFORM_DRAWS`] draws in `[lo, hi]`, then where the stream
/// stands.
fn fold_uniform(lo: u64, hi: u64) -> u64 {
    let mut rng = SimRng::new(lo ^ hi);
    let h = (0..UNIFORM_DRAWS).fold(FNV_OFFSET, |h, _| mix(h, rng.uniform_u64(lo, hi)));
    mix(h, rng.uniform_u64(0, u64::MAX))
}

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
    for (sigma, salt, _) in RAMP_GOLDEN {
        println!(
            "    ({sigma:?}, {salt:?}, 0x{:016x}),",
            fold_ramp(sigma, salt)
        );
    }
    for (lo, hi, _) in UNIFORM_GOLDEN {
        println!("    ({lo}, {hi}, 0x{:016x}),", fold_uniform(lo, hi));
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

/// Checks every page fold, printing the table it computed on the way.
#[test]
fn noisy_pages_match_committed_folds() {
    let release = !cfg!(debug_assertions);
    let got: Vec<_> = PAGE_GOLDEN
        .iter()
        .map(|&(words, few, _, many, _)| {
            let small = fold_pages(words, few);
            let full = if release { fold_pages(words, many) } else { 0 };
            println!("    ({words}, {few}, 0x{small:016x}, {many}, 0x{full:016x}),");
            (small, full)
        })
        .collect();
    for ((small, full), (words, few, want_small, many, want_full)) in
        got.into_iter().zip(PAGE_GOLDEN)
    {
        assert_eq!(small, want_small, "{words}-word pages, {few} seeds");
        if release {
            assert_eq!(full, want_full, "{words}-word pages, {many} seeds");
        }
    }
}

#[test]
fn noise_over_every_gray_level_matches_committed_folds() {
    for (sigma, salt, want) in RAMP_GOLDEN {
        assert_eq!(fold_ramp(sigma, salt), want, "sigma {sigma}, salt {salt}");
    }
}

#[test]
fn uniform_integer_draws_match_committed_folds() {
    for (lo, hi, want) in UNIFORM_GOLDEN {
        assert_eq!(fold_uniform(lo, hi), want, "uniform_u64({lo}, {hi})");
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
