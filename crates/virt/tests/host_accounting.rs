//! The host's running totals against a recount, and its kernel tables
//! against the live population.
//!
//! `CloudHost::total_disk_usage` is read after every simulated event, so
//! it adds a maintained sum instead of walking the instances; a host
//! that has churned through thousands of runtimes must provision the
//! next one as cheaply as its tenth. Both are properties of state, not
//! of time, and are pinned as such.

use hostkernel::HostSpec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use virt::{CloudHost, InstanceId, RuntimeClass};

/// The system allocator, counting allocations per thread (the test
/// harness runs tests on parallel threads; a host stays on its own).
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

fn host() -> CloudHost {
    CloudHost::new(HostSpec::paper_server())
}

/// Disk in use, recounted from the instances.
fn recounted_disk(h: &CloudHost) -> u64 {
    let exclusive = |id: InstanceId| h.instance(id).unwrap().exclusive_disk_bytes();
    h.shared_layer_bytes() + h.instance_ids().into_iter().map(exclusive).sum::<u64>()
}

proptest! {
    /// Any interleaving of provision / teardown / load_app leaves the
    /// maintained disk total equal to the recount.
    #[test]
    fn disk_total_equals_the_recount(ops in prop::collection::vec((0u8..3, 0usize..64), 1..60)) {
        let mut h = host();
        for (op, pick) in ops {
            let live = h.instance_ids();
            match op {
                0 => {
                    // Forty VMs do not fit: a refused provision adds nothing.
                    let _ = h.provision(RuntimeClass::ALL[pick % 3]);
                }
                1 if !live.is_empty() => h.teardown(live[pick % live.len()]).unwrap(),
                2 if !live.is_empty() => {
                    h.load_app(live[pick % live.len()], "com.bench.ocr", 1 << 20).unwrap();
                }
                _ => {}
            }
            prop_assert_eq!(h.total_disk_usage(), recounted_disk(&h));
        }
        for id in h.instance_ids() {
            h.teardown(id).unwrap();
        }
        prop_assert_eq!(h.total_disk_usage(), h.shared_layer_bytes());
    }
}

#[test]
fn an_aged_host_provisions_like_a_fresh_one() {
    for class in RuntimeClass::ALL {
        let mut h = host();
        // Three residents stay for the whole run; one slot churns.
        for _ in 0..3 {
            h.provision(class).unwrap();
        }
        let cost_of_cycle = |h: &mut CloudHost| {
            let before = ALLOCS.with(Cell::get);
            let (id, _) = h.provision(class).unwrap();
            let allocs = ALLOCS.with(Cell::get) - before;
            let tables = (
                h.kernel.cgroups.len(),
                h.kernel.processes.len(),
                h.kernel.namespace_count(),
            );
            h.teardown(id).unwrap();
            (allocs, tables)
        };
        let mut costs = Vec::new();
        for _ in 0..2_000 {
            costs.push(cost_of_cycle(&mut h));
        }
        assert_eq!(
            h.kernel.cgroups.len(),
            h.instance_count(),
            "{class:?}: one cgroup per live instance, none left behind"
        );
        let (tenth, last) = (costs[9], costs[1_999]);
        assert_eq!(
            tenth.1, last.1,
            "{class:?}: kernel tables (cgroups, processes, namespaces) hold the live population"
        );
        // (Names that embed the id — `cac-2002`, private file paths —
        // outgrow a `String`'s first capacity; nothing else may differ.)
        assert!(
            last.0 <= tenth.0 + 4,
            "{class:?}: provision #2000 allocates {} times, #10 {} times",
            last.0,
            tenth.0
        );
    }
}
