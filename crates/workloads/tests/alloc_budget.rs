//! Allocation budget of the two heavy kernels, of the page noise and
//! of the scanner's automaton.
//!
//! A search node allocates nothing: moves go on the searcher's one
//! move stack, legality is decided on the child board that is then
//! searched, and ordering is an in-place stable sort. A recognition
//! cell allocates nothing either: its glyph box is binarised into bit
//! words on the stack and the templates are scaled once per call. What
//! either kernel allocates is therefore a constant per call, whatever
//! the node or cell count — pinned here as a complexity test, so a
//! `Vec` per node (there were about ten allocations a node)
//! cannot come back unnoticed. Noising a page allocates nothing: it
//! rewrites the pixels in place, so a scratch buffer the size of the
//! page (24 bytes a pixel, 2.6 MB for an OCR L page) cannot come in
//! unnoticed. The scanner's automaton keeps a dense goto row at its
//! root only, so the bytes it requests follow the pattern bytes; a
//! 1 KiB row per state (about a megabyte a database) cannot come back
//! unnoticed either.

use simkit::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use workloads::chess::{self, ChessRequest};
use workloads::ocr::{self, recognize};
use workloads::virusscan::{generate_database, AhoCorasick};

/// The system allocator, counting allocations and the bytes they
/// request per thread (the test harness runs tests on parallel
/// threads; a run stays on its own).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread's last frees can come after its TLS is gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` contract is `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as `dealloc`; `new_size` is the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Bytes `f` requests on this thread (a `realloc` counts its new size).
fn bytes_requested<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

/// The position the exec kernel's Chess M cell searches at seed
/// `0x5EED_0006` (six seeded opening plies from the start).
const CHESS_M_FEN: &str = "r1bqkbnr/ppppp1p1/n4p1p/8/P5P1/7N/1PPPPP1P/RNBQKB1R w KQkq - 1 4";

#[test]
fn a_deeper_search_allocates_no_more() {
    let run = |depth| {
        let req = ChessRequest {
            fen: CHESS_M_FEN.into(),
            depth,
        };
        allocations(|| chess::execute(&req).unwrap())
    };
    let (shallow_allocs, shallow) = run(3);
    let (deep_allocs, deep) = run(4);
    println!(
        "depth 3: {shallow_allocs} allocations, {} nodes",
        shallow.nodes
    );
    println!("depth 4: {deep_allocs} allocations, {} nodes", deep.nodes);
    assert!(
        deep.nodes > 5 * shallow.nodes,
        "depth 4 searches more: {} vs {} nodes",
        deep.nodes,
        shallow.nodes
    );
    assert_eq!(
        deep_allocs, shallow_allocs,
        "{} nodes allocate as much as {}",
        deep.nodes, shallow.nodes
    );
    assert!(shallow_allocs <= 8, "{shallow_allocs} allocations a search");
}

#[test]
fn a_longer_page_allocates_no_more() {
    let page = |words| ocr::generate_request(words, &mut SimRng::new(7)).image;
    let (short, long) = (page(2), page(24));
    let (short_allocs, short) = allocations(|| recognize(&short));
    let (long_allocs, long) = allocations(|| recognize(&long));
    println!(
        "{short_allocs} / {long_allocs} allocations, {} / {} comparisons",
        short.comparisons, long.comparisons
    );
    assert!(long.comparisons > 5 * short.comparisons);
    assert_eq!(
        long_allocs, short_allocs,
        "{} comparisons allocate as much as {}",
        long.comparisons, short.comparisons
    );
    assert!(short_allocs <= 2, "{short_allocs} allocations a page");
}

#[test]
fn noising_a_page_allocates_nothing() {
    for words in [2, 24] {
        let text = vec!["CONTAINER"; words].join(" ");
        let mut page = ocr::render_text(&text);
        let (allocs, ()) = allocations(|| {
            ocr::add_noise(&mut page, 25.0, 0.01, &mut SimRng::new(7));
        });
        assert_eq!(
            allocs,
            0,
            "{words}-word page of {} pixels",
            page.pixels.len()
        );
    }
}

#[test]
fn the_scanner_automaton_stays_within_its_budget() {
    // The database the VirusScan kernel builds at pool seed 0x5EED_0000.
    let db = generate_database(64, &mut SimRng::new(0x5EED_0000));
    let patterns: Vec<&[u8]> = db.iter().map(|s| s.pattern.as_slice()).collect();
    let (bytes, ac) = bytes_requested(|| AhoCorasick::build(&patterns));
    // The root and one state per distinct pattern prefix: the same
    // automaton, however it is laid out.
    let prefixes: BTreeSet<&[u8]> = patterns
        .iter()
        .flat_map(|p| (1..=p.len()).map(move |len| &p[..len]))
        .collect();
    println!(
        "{} states, {} KiB requested",
        ac.state_count(),
        bytes / 1024
    );
    assert_eq!(ac.state_count(), prefixes.len() + 1);
    assert!(bytes <= 256 * 1024, "{bytes} bytes to build the automaton");
}
