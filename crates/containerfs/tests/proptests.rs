//! Property tests for the union filesystem invariants.

use containerfs::{FileCategory, FileEntry, FsImage, LayerStore, UnionMount};
use proptest::prelude::*;

/// An arbitrary operation against a union mount.
#[derive(Debug, Clone)]
enum Op {
    Write { path: u8, size: u64 },
    Delete { path: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1u64..10_000).prop_map(|(path, size)| Op::Write { path, size }),
        any::<u8>().prop_map(|path| Op::Delete { path }),
    ]
}

fn base_image(paths: &[u8]) -> FsImage {
    let mut img = FsImage::new();
    for &p in paths {
        img.insert(
            format!("/file/{p}"),
            FileEntry::new(100 + p as u64, FileCategory::Framework),
        );
    }
    img
}

proptest! {
    /// A reference model (plain map) agrees with the union mount for
    /// any operation sequence, and the lower layer never changes.
    #[test]
    fn union_mount_matches_reference_model(
        base_paths in prop::collection::btree_set(any::<u8>(), 0..30),
        ops in prop::collection::vec(op_strategy(), 0..60),
    ) {
        let base_paths: Vec<u8> = base_paths.into_iter().collect();
        let mut store = LayerStore::new();
        let base = base_image(&base_paths);
        let base_bytes = base.total_bytes();
        let layer = store.publish("base", base);
        let mut mount = UnionMount::new(&mut store, vec![layer]);

        // Reference: path → size.
        let mut model: std::collections::BTreeMap<String, u64> = base_paths
            .iter()
            .map(|&p| (format!("/file/{p}"), 100 + p as u64))
            .collect();

        for op in &ops {
            match op {
                Op::Write { path, size } => {
                    let p = format!("/file/{path}");
                    mount.write(&store, &p, FileEntry::new(*size, FileCategory::OffloadData));
                    model.insert(p, *size);
                }
                Op::Delete { path } => {
                    let p = format!("/file/{path}");
                    let deleted = mount.delete(&store, &p);
                    let expected = model.remove(&p).is_some();
                    prop_assert_eq!(deleted, expected, "delete {}", p);
                }
            }
        }

        // Lookups agree with the model on every possible path.
        for p in 0..=u8::MAX {
            let path = format!("/file/{p}");
            let got = mount.lookup(&store, &path).map(|e| e.size);
            prop_assert_eq!(got, model.get(&path).copied(), "path {}", path);
        }
        // Logical bytes equal the model's sum.
        prop_assert_eq!(mount.logical_bytes(&store), model.values().sum::<u64>());
        // The shared layer is immutable.
        prop_assert_eq!(store.layer_bytes(layer), Some(base_bytes));
    }

    /// Publishing then fleet-mounting keeps disk accounting additive:
    /// store bytes + Σ exclusive upper bytes.
    #[test]
    fn fleet_accounting_additive(n_mounts in 1usize..8, writes in 0u64..20) {
        let mut store = LayerStore::new();
        let layer = store.publish("base", base_image(&[1, 2, 3]));
        let shared = store.total_shared_bytes();
        let mut mounts = Vec::new();
        for m in 0..n_mounts {
            let mut mnt = UnionMount::new(&mut store, vec![layer]);
            for w in 0..writes {
                mnt.write(
                    &store,
                    &format!("/private/{m}/{w}"),
                    FileEntry::new(10, FileCategory::InstanceConfig),
                );
            }
            mounts.push(mnt);
        }
        let refs: Vec<&UnionMount> = mounts.iter().collect();
        prop_assert_eq!(
            containerfs::fleet_disk_usage(&store, &refs),
            shared + n_mounts as u64 * writes * 10
        );
    }
}
