//! Criterion benches of Rattrap's individual mechanisms: the code
//! cache, the union filesystem, binder IPC, and the access controller.

use containerfs::{android_x86_44_image, customize, FileEntry, LayerStore, UnionMount};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hostkernel::binder::BinderContext;
use rattrap::{aid_of, AccessController, Action, AppWarehouse};
use std::hint::black_box;
use virt::InstanceId;

fn bench_warehouse(c: &mut Criterion) {
    let mut group = c.benchmark_group("code_cache");
    group.bench_function("lookup_hit", |b| {
        let mut w = AppWarehouse::new(512 << 20);
        let aid = aid_of("com.bench.chessgame");
        w.insert(aid, "com.bench.chessgame", 2 << 20);
        b.iter(|| black_box(w.lookup(&aid)))
    });
    group.bench_function("insert_evict_under_pressure", |b| {
        b.iter_batched(
            || AppWarehouse::new(16 << 20),
            |mut w| {
                for i in 0..32u32 {
                    let app = format!("app{i}");
                    w.insert(aid_of(&app), &app, 1 << 20);
                }
                w
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("aid_derivation", |b| {
        b.iter(|| black_box(aid_of("com.example.very.long.package.name")))
    });
    group.finish();
}

fn bench_unionfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_fs");
    // The real shared resource layer: ~5000 files.
    let mut store = LayerStore::new();
    let (custom, _) = customize(&android_x86_44_image());
    let layer = store.publish("shared", custom);
    let mount = UnionMount::new(&mut store, vec![layer]);
    group.bench_function("lookup_through_shared_layer", |b| {
        b.iter(|| black_box(mount.lookup(&store, "/system/framework/framework30.jar")))
    });
    group.bench_function("publish_customized_image", |b| {
        b.iter_batched(
            || customize(&android_x86_44_image()).0,
            |img| {
                let mut s = LayerStore::new();
                black_box(s.publish("shared", img));
                s
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("copy_up_write", |b| {
        b.iter_batched(
            || {
                let mut s = LayerStore::new();
                let (img, _) = customize(&android_x86_44_image());
                let l = s.publish("shared", img);
                let m = UnionMount::new(&mut s, vec![l]);
                (s, m)
            },
            |(s, mut m)| {
                m.write(
                    &s,
                    "/system/framework/framework00.jar",
                    FileEntry::new(1, containerfs::FileCategory::OffloadData),
                );
                (s, m)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_binder(c: &mut Criterion) {
    let mut group = c.benchmark_group("binder_ipc");
    let mut ctx = BinderContext::new();
    for (i, svc) in ["activity", "package", "offloadcontroller", "media", "input"]
        .iter()
        .enumerate()
    {
        ctx.register_service(svc, i as u32 + 1)
            .expect("unique names");
    }
    group.bench_function("transact", |b| {
        b.iter(|| black_box(ctx.transact("offloadcontroller", 256)))
    });
    group.bench_function("lookup_service", |b| {
        b.iter(|| black_box(ctx.lookup("media")))
    });
    group.finish();
}

fn bench_access_controller(c: &mut Criterion) {
    let mut group = c.benchmark_group("access_control");
    let mut ac = AccessController::new(10);
    ac.admit("com.bench.ocr", 280 << 10);
    let action = Action::FsWrite { bytes: 100 << 10 };
    group.bench_function("filter_check", |b| {
        b.iter(|| black_box(ac.check("com.bench.ocr", &action)))
    });
    group.finish();
}

fn bench_noop_marker(_c: &mut Criterion) {
    // Keeps the group list explicit; InstanceId used to silence import.
    let _ = InstanceId(0);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_warehouse, bench_unionfs, bench_binder, bench_access_controller, bench_noop_marker
}
criterion_main!(benches);
