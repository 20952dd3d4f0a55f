//! Quickstart: bring up a Rattrap cloud host, provision a Cloud Android
//! Container, and serve one offloaded chess request end-to-end — with
//! the *real* chess engine doing the work.
//!
//! Run with: `cargo run --release --example quickstart`

use hostkernel::HostSpec;
use rattrap::{aid_of, AppWarehouse};
use virt::{CloudHost, RuntimeClass};
use workloads::chess::{execute, Board, ChessRequest};
use workloads::WorkloadKind;

fn main() {
    println!("=== Rattrap quickstart ===\n");

    // 1. A stock cloud server…
    let mut host = CloudHost::new(HostSpec::paper_server());
    println!(
        "host: {} cores @ {:.2} GHz, {} GiB DRAM",
        host.host_spec().cores,
        host.host_spec().clock_ghz,
        host.host_spec().memory_bytes >> 30
    );

    // 2. …extended at runtime with the Android Container Driver.
    let insmod = host.kernel.load_android_container_driver();
    println!(
        "android container driver loaded in {insmod} ({} KiB kernel memory)",
        host.kernel.kernel_memory() / 1024
    );

    // 3. Provision an optimized Cloud Android Container.
    let (cac, setup) = host
        .provision(RuntimeClass::CacOptimized)
        .expect("room on a fresh host");
    println!(
        "cloud android container ready in {} (vs 28.72s for an Android VM)",
        setup
    );
    let inst = host.instance(cac).expect("provisioned");
    println!(
        "container #{} — namespace {}, private disk {} KiB, zygote pid {}",
        inst.id.0,
        inst.namespace,
        inst.exclusive_disk_bytes() / 1024,
        inst.zygote_pid.expect("containers have a zygote")
    );

    // 4. First request: the chess app's code is transferred once and
    //    cached in the App Warehouse.
    let mut warehouse = AppWarehouse::new(512 << 20);
    let app = WorkloadKind::ChessGame.app_id();
    let aid = aid_of(app);
    let profile = WorkloadKind::ChessGame.profile();
    if !warehouse.lookup(&aid) {
        println!(
            "\ncode cache MISS for {app} (AID {}) — uploading {} KiB APK",
            aid,
            profile.app_code_bytes / 1024
        );
        warehouse.insert(aid, app, profile.app_code_bytes);
    }
    let load = host
        .load_app(cac, app, profile.app_code_bytes)
        .expect("container is live");
    warehouse.note_loaded(&aid, cac);
    println!("classloader took {load}");

    // 5. Execute the offloaded computation — a real alpha-beta search.
    let req = ChessRequest {
        fen: Board::start().to_fen(),
        depth: 4,
    };
    let result = execute(&req).expect("valid FEN");
    println!(
        "\noffloaded search: best move {} (score {} cp, {} nodes, depth {})",
        result.best_move.expect("start position has moves").uci(),
        result.score,
        result.nodes,
        result.depth
    );

    // 6. Second request from any device: cache HIT, no code transfer,
    //    and the dispatcher can route straight to container CID 0.
    assert!(warehouse.lookup(&aid));
    println!(
        "second request: cache HIT — {} KiB of upload avoided, CID hint = {:?}",
        warehouse.stats().bytes_saved / 1024,
        warehouse
            .containers_with(&aid)
            .iter()
            .map(|c| c.0)
            .collect::<Vec<_>>()
    );

    host.teardown(cac).expect("clean teardown");
    println!(
        "\ncontainer torn down; host memory in use: {} bytes",
        host.memory_reserved()
    );
}
