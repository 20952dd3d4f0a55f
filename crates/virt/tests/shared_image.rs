//! The Android image is built once per process, however many hosts come
//! up and whichever thread gets there first. This file holds a single
//! test so that its process really does see the first use.

use hostkernel::HostSpec;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use virt::{CloudHost, RuntimeClass};

fn timed_host() -> (Duration, CloudHost) {
    let t = Instant::now();
    let host = CloudHost::new(HostSpec::paper_server());
    (t.elapsed(), host)
}

#[test]
fn first_use_builds_the_image_once_even_from_two_threads() {
    // The benches run independent fleets on parallel threads, so the
    // first two constructions may race. Each racer reports how long its
    // construction took and what its host accounts.
    let gate = Barrier::new(2);
    let racers: Vec<(Duration, u64, u64)> = std::thread::scope(|s| {
        let spawned: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    gate.wait();
                    let (t, mut host) = timed_host();
                    let layer = host.shared_layer_bytes();
                    assert_eq!(host.total_disk_usage(), layer);
                    let (id, _) = host.provision(RuntimeClass::CacOptimized).unwrap();
                    let private = host.instance(id).unwrap().exclusive_disk_bytes();
                    (t, layer, host.total_disk_usage() - private)
                })
            })
            .collect();
        spawned
            .into_iter()
            .map(|r| r.join().expect("construction does not panic"))
            .collect()
    });

    // Both racers got the complete image, and each pays for the layer
    // on its own disk.
    assert_eq!(racers[0].1, racers[1].1);
    assert!(racers.iter().all(|&(_, layer, disk)| disk == layer));

    // Whoever lost the race waited for the winner's image, so the slower
    // of the two paid for one full build. Every later host is a pointer
    // copy: at least 20× cheaper (measured: 2.3 ms vs 2 µs).
    let first = racers[0].0.max(racers[1].0);
    let later = (0..16).map(|_| timed_host().0).min().expect("non-empty");
    assert!(
        later * 20 <= first,
        "first construction {first:?}, a later one {later:?}"
    );
}
