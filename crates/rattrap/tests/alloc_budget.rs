//! Allocation budget of the paper engine's per-request path.
//!
//! A request's own path — arrival, access checks, placement, the
//! offload RPC, three completion checks, delivery — allocates nothing:
//! names are borrowed, the AID is an integer, completion checks drain
//! into a reused scratch. What a replay allocates is therefore set by
//! what it provisions (a runtime's processes, log ring and cgroup are a
//! few dozen allocations) and by its ten-second maintenance scans, not
//! by how many requests it serves — pinned here as a complexity test,
//! so a `format!` or a fresh `Vec` per request (there were six, at 6.4
//! allocations per request) cannot come back unnoticed.

use rattrap::{run_scenario, PlatformKind, ScenarioConfig};
use simkit::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use traces::TraceConfig;
use workloads::WorkloadKind;

/// The system allocator, counting allocations per thread (the test
/// harness runs tests on parallel threads; a run stays on its own).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread's last frees can come after its TLS is gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` contract is `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// The benchmark's `paper_replay` cell at a third of its users: one
/// LiveLab trace (Fig. 11's session parameters) on `platform`.
fn replay(platform: PlatformKind, horizon_s: u64) -> ScenarioConfig {
    let traffic = TraceConfig::fig11(24, SimDuration::from_secs(horizon_s), 7);
    let trace = traces::generate(&traffic);
    traces::replay_scenario(&traffic, &trace, platform, WorkloadKind::Ocr)
}

#[test]
fn a_longer_replay_allocates_per_provision_not_per_request() {
    for platform in PlatformKind::ALL {
        // Lazy statics (the shared Android image) belong to neither run.
        run_scenario(replay(platform, 600));
        let (short_cfg, long_cfg) = (replay(platform, 3600), replay(platform, 4 * 3600));
        let (short_allocs, short) = allocations(|| run_scenario(short_cfg));
        let (long_allocs, long) = allocations(|| run_scenario(long_cfg));
        let extra_requests = (long.requests.len() - short.requests.len()) as u64;
        assert!(
            extra_requests > 2_000,
            "the long replay serves more traffic"
        );
        let extra_allocs = long_allocs.saturating_sub(short_allocs);
        let per_request = extra_allocs as f64 / extra_requests as f64;
        println!("{platform:?}: {per_request:.2} per extra request");
        assert!(
            per_request <= 1.5,
            "{}: {extra_allocs} more allocations for {extra_requests} more requests \
             ({per_request:.2} each; {short_allocs} at 1 h, {long_allocs} at 4 h, \
             {} → {} provisions)",
            platform.label(),
            short.instances_provisioned,
            long.instances_provisioned,
        );
    }
}
