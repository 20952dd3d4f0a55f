//! Allocation budget of the fleet engine's per-request path.
//!
//! The engine's hot structures keep their allocations: the event
//! queue's slab and backlog, each host's instance table, the
//! executor's job table, the control plane's request table and route
//! scratch. What a run allocates must therefore be set by its shape
//! (hosts, users, instances ever provisioned), not by how many
//! requests it serves — pinned here as a complexity test, so a map
//! that allocates a node per 0 → 1 transition (five did, at 5.0
//! allocations per request) cannot come back unnoticed.

use fleet::{run_fleet, FleetConfig};
use simkit::{EventQueue, FairShareExecutor, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// A 2-host fleet in steady state: every host always has work, nothing
/// sheds or scales, and instances are never reclaimed — so no
/// provisioning (a few hundred allocations each) happens past the
/// warm-up, whatever the horizon.
fn warm_fleet(horizon_s: u64) -> FleetConfig {
    let mut cfg = FleetConfig::paper_default(2, 7);
    cfg.traffic.users = 120;
    cfg.traffic.duration = SimDuration::from_secs(horizon_s);
    cfg.pool.idle_teardown = SimDuration::from_secs(100_000);
    cfg
}

#[test]
fn a_longer_run_allocates_per_shape_not_per_request() {
    // Lazy statics (the shared Android image) belong to neither run.
    run_fleet(&warm_fleet(60));
    let (short_allocs, short) = allocations(|| run_fleet(&warm_fleet(900)));
    let (long_allocs, long) = allocations(|| run_fleet(&warm_fleet(3600)));
    let extra_requests = long.summary.submitted - short.summary.submitted;
    assert!(extra_requests > 2_000, "the long run serves more traffic");
    assert_eq!(long.summary.completed_remote, long.summary.submitted);
    // What still grows with the horizon is per control-loop scan (three
    // small sets every 10 s) and per user (trace vectors doubling):
    // 0.2 per extra request at this density. One allocation anywhere
    // on a request's path — route, hand-off, instance table, job
    // table, completion — would add 1.0.
    let extra_allocs = long_allocs.saturating_sub(short_allocs);
    let per_request = extra_allocs as f64 / extra_requests as f64;
    assert!(
        per_request <= 0.5,
        "{extra_allocs} more allocations for {extra_requests} more requests \
         ({per_request:.2} each; {short_allocs} at 900 s, {long_allocs} at 3600 s)"
    );
}

#[test]
fn executor_steady_state_allocates_nothing() {
    let mut cpu: FairShareExecutor<u32> = FairShareExecutor::new(4.0, 1.0);
    cpu.eager_check_cancel();
    let mut queue: EventQueue<u64> = EventQueue::new();
    // A warm instance's compute phase, over and over: the job table
    // goes 0 → 2 → 1 → 0 every round.
    let cycle = |cpu: &mut FairShareExecutor<u32>, queue: &mut EventQueue<u64>, rounds: u32| {
        let mut done = 0;
        for tag in 0..rounds {
            let now = queue.now();
            cpu.submit(now, 0.002, tag);
            cpu.submit(now, 0.003 + f64::from(tag % 7) * 1e-4, tag);
            cpu.reschedule(now, queue, |epoch| epoch);
            while let Some((now, epoch)) = queue.pop() {
                assert!(
                    cpu.poll_with(now, epoch, |_, _| done += 1),
                    "no stale check"
                );
                cpu.reschedule(now, queue, |epoch| epoch);
            }
            assert!(cpu.is_idle());
        }
        done
    };
    cycle(&mut cpu, &mut queue, 8); // the table and the slab reach their size
    let (allocs, done) = allocations(|| cycle(&mut cpu, &mut queue, 10_000));
    assert_eq!(done, 20_000, "every job completes in its round");
    assert_eq!(allocs, 0, "submit → poll → reschedule is allocation-free");
}
