//! Layered union filesystem with copy-on-write — the AUFS-style storage
//! under Cloud Android Containers (§IV-C).
//!
//! A [`LayerStore`] owns immutable, reference-counted layers (system
//! images, the Shared Resource Layer). Each container gets a
//! [`UnionMount`]: an ordered stack of shared read-only layers plus a
//! private writable upper layer. Writes copy-up, deletes leave
//! whiteouts, and disk accounting counts every shared layer **once** —
//! which is precisely where Rattrap's "at least 79 % disk savings" comes
//! from.

use crate::entry::FileEntry;
use crate::image::FsImage;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Identifier of a read-only layer in a [`LayerStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayerId(u32);

#[derive(Debug)]
struct StoredLayer {
    name: String,
    /// Immutable once published, so stores may share one allocation
    /// and `bytes`, its total, is summed once rather than per query.
    files: Arc<FsImage>,
    bytes: u64,
    refs: u32,
}

/// Owner of the shared read-only layers.
#[derive(Debug, Default)]
pub struct LayerStore {
    layers: BTreeMap<u32, StoredLayer>,
    next_id: u32,
}

impl LayerStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish an image as a shared read-only layer, accounted as this
    /// store's own bytes even when other stores share the allocation.
    pub fn publish(&mut self, name: &str, files: impl Into<Arc<FsImage>>) -> LayerId {
        let id = self.next_id;
        self.next_id += 1;
        let files = files.into();
        self.layers.insert(
            id,
            StoredLayer {
                name: name.to_string(),
                bytes: files.total_bytes(),
                files,
                refs: 0,
            },
        );
        LayerId(id)
    }

    /// Drop an unreferenced layer; returns `false` if it is still in use
    /// or unknown.
    pub fn remove(&mut self, id: LayerId) -> bool {
        match self.layers.get(&id.0) {
            Some(l) if l.refs == 0 => {
                self.layers.remove(&id.0);
                true
            }
            _ => false,
        }
    }

    fn get(&self, id: LayerId) -> Option<&StoredLayer> {
        self.layers.get(&id.0)
    }

    /// Name of a layer.
    pub fn name(&self, id: LayerId) -> Option<&str> {
        self.get(id).map(|l| l.name.as_str())
    }

    /// Bytes of one layer.
    pub fn layer_bytes(&self, id: LayerId) -> Option<u64> {
        self.get(id).map(|l| l.bytes)
    }

    /// Mount reference count of a layer.
    pub fn refs(&self, id: LayerId) -> Option<u32> {
        self.get(id).map(|l| l.refs)
    }

    /// Total bytes on disk: every stored layer counted once, regardless
    /// of how many mounts reference it.
    pub fn total_shared_bytes(&self) -> u64 {
        self.layers.values().map(|l| l.bytes).sum()
    }

    fn incref(&mut self, id: LayerId) {
        if let Some(l) = self.layers.get_mut(&id.0) {
            l.refs += 1;
        }
    }

    fn decref(&mut self, id: LayerId) {
        if let Some(l) = self.layers.get_mut(&id.0) {
            l.refs = l.refs.saturating_sub(1);
        }
    }
}

/// Statistics of one mount's copy-on-write activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Files copied up into the upper layer.
    pub copy_ups: u64,
    /// Bytes copied up.
    pub copied_bytes: u64,
    /// Whiteouts created.
    pub whiteouts: u64,
}

/// A container's view: lower shared layers + a private upper layer.
#[derive(Debug)]
pub struct UnionMount {
    /// Bottom-to-top order; later layers shadow earlier ones.
    lowers: Vec<LayerId>,
    upper: FsImage,
    whiteouts: BTreeSet<String>,
    stats: CowStats,
}

impl UnionMount {
    /// Mount over the given lower layers (bottom → top).
    pub fn new(store: &mut LayerStore, lowers: Vec<LayerId>) -> Self {
        for &l in &lowers {
            store.incref(l);
        }
        UnionMount {
            lowers,
            upper: FsImage::new(),
            whiteouts: BTreeSet::new(),
            stats: CowStats::default(),
        }
    }

    /// Unmount, releasing the lower-layer references.
    pub fn unmount(self, store: &mut LayerStore) {
        for &l in &self.lowers {
            store.decref(l);
        }
    }

    /// Resolve `path` through the stack: upper first, then lowers top-down,
    /// honouring whiteouts.
    pub fn lookup<'a>(&'a self, store: &'a LayerStore, path: &str) -> Option<&'a FileEntry> {
        if self.whiteouts.contains(path) {
            return None;
        }
        if let Some(e) = self.upper.get(path) {
            return Some(e);
        }
        for &l in self.lowers.iter().rev() {
            if let Some(e) = store.get(l).and_then(|l| l.files.get(path)) {
                return Some(e);
            }
        }
        None
    }

    /// Write `entry` at `path`. If the path exists only in a lower
    /// layer, this is a copy-up (counted in [`CowStats`]).
    pub fn write(&mut self, store: &LayerStore, path: &str, entry: FileEntry) {
        if self.upper.get(path).is_none() {
            // Copy-up happens when modifying a lower file; the cost we
            // track is the bytes of the original being copied.
            let lower_size = self
                .lowers
                .iter()
                .rev()
                .find_map(|&l| store.get(l).and_then(|l| l.files.get(path)))
                .map(|e| e.size);
            if let Some(size) = lower_size {
                if !self.whiteouts.contains(path) {
                    self.stats.copy_ups += 1;
                    self.stats.copied_bytes += size;
                }
            }
        }
        self.whiteouts.remove(path);
        self.upper.insert(path.to_string(), entry);
    }

    /// Delete `path`. Files in lower layers are masked with a whiteout;
    /// upper-only files are simply removed.
    pub fn delete(&mut self, store: &LayerStore, path: &str) -> bool {
        let existed = self.lookup(store, path).is_some();
        if !existed {
            return false;
        }
        self.upper.remove(path);
        let in_lower = self.lowers.iter().any(|&l| {
            store
                .get(l)
                .map(|l| l.files.get(path).is_some())
                .unwrap_or(false)
        });
        if in_lower {
            self.whiteouts.insert(path.to_string());
            self.stats.whiteouts += 1;
        }
        true
    }

    /// Bytes private to this mount (the upper layer) — the container's
    /// *exclusive* disk usage, Table I's per-container figure.
    pub fn exclusive_bytes(&self) -> u64 {
        self.upper.total_bytes()
    }

    /// Bytes visible through the mount (logical size).
    pub fn logical_bytes(&self, store: &LayerStore) -> u64 {
        let mut seen = BTreeSet::new();
        let mut total = 0;
        for (p, f) in self.upper.iter() {
            seen.insert(p.to_string());
            total += f.size;
        }
        for &l in self.lowers.iter().rev() {
            if let Some(layer) = store.get(l) {
                for (p, f) in layer.files.iter() {
                    if !self.whiteouts.contains(p) && seen.insert(p.to_string()) {
                        total += f.size;
                    }
                }
            }
        }
        total
    }

    /// Copy-on-write statistics.
    pub fn stats(&self) -> CowStats {
        self.stats
    }

    /// Direct access to the private upper layer.
    pub fn upper(&self) -> &FsImage {
        &self.upper
    }

    /// Replace the private upper layer wholesale — checkpoint restore.
    /// The image *is* the writable layer's complete state, so any
    /// whiteouts of the previous life are cleared with it.
    pub fn restore_upper(&mut self, upper: FsImage) {
        self.upper = upper;
        self.whiteouts.clear();
    }
}

/// Aggregate physical disk use of a fleet: shared layers once + every
/// mount's private upper layer.
pub fn fleet_disk_usage(store: &LayerStore, mounts: &[&UnionMount]) -> u64 {
    store.total_shared_bytes() + mounts.iter().map(|m| m.exclusive_bytes()).sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::FileCategory as C;

    fn base_layer(store: &mut LayerStore) -> LayerId {
        let mut img = FsImage::new();
        img.insert(
            "/system/framework/core.jar",
            FileEntry::new(1000, C::Framework),
        );
        img.insert("/system/lib/libc.so", FileEntry::new(500, C::CoreLib));
        store.publish("shared-resource-layer", img)
    }

    #[test]
    fn lookup_resolves_top_down() {
        let mut store = LayerStore::new();
        let base = base_layer(&mut store);
        let mut over = FsImage::new();
        over.insert("/system/lib/libc.so", FileEntry::new(600, C::CoreLib));
        let patch = store.publish("patch", over);
        let m = UnionMount::new(&mut store, vec![base, patch]);
        assert_eq!(m.lookup(&store, "/system/lib/libc.so").unwrap().size, 600);
        assert_eq!(
            m.lookup(&store, "/system/framework/core.jar").unwrap().size,
            1000
        );
        assert!(m.lookup(&store, "/nope").is_none());
    }

    #[test]
    fn write_to_lower_file_copies_up() {
        let mut store = LayerStore::new();
        let base = base_layer(&mut store);
        let mut m = UnionMount::new(&mut store, vec![base]);
        m.write(
            &store,
            "/system/lib/libc.so",
            FileEntry::new(700, C::CoreLib),
        );
        assert_eq!(m.stats().copy_ups, 1);
        assert_eq!(m.stats().copied_bytes, 500);
        assert_eq!(m.lookup(&store, "/system/lib/libc.so").unwrap().size, 700);
        assert_eq!(m.exclusive_bytes(), 700);
        // Lower layer unchanged.
        assert_eq!(store.layer_bytes(base).unwrap(), 1500);
    }

    #[test]
    fn fresh_file_write_is_not_a_copy_up() {
        let mut store = LayerStore::new();
        let base = base_layer(&mut store);
        let mut m = UnionMount::new(&mut store, vec![base]);
        m.write(&store, "/data/new.bin", FileEntry::new(42, C::OffloadData));
        assert_eq!(m.stats().copy_ups, 0);
        assert_eq!(m.exclusive_bytes(), 42);
    }

    #[test]
    fn delete_lower_creates_whiteout() {
        let mut store = LayerStore::new();
        let base = base_layer(&mut store);
        let mut m = UnionMount::new(&mut store, vec![base]);
        assert!(m.delete(&store, "/system/lib/libc.so"));
        assert!(m.lookup(&store, "/system/lib/libc.so").is_none());
        assert_eq!(m.stats().whiteouts, 1);
        assert!(!m.delete(&store, "/system/lib/libc.so"), "already deleted");
        // Writing again removes the whiteout and is not a copy-up.
        m.write(&store, "/system/lib/libc.so", FileEntry::new(9, C::CoreLib));
        assert_eq!(m.lookup(&store, "/system/lib/libc.so").unwrap().size, 9);
        assert_eq!(m.stats().copy_ups, 0);
    }

    #[test]
    fn delete_upper_only_file_removes_outright() {
        let mut store = LayerStore::new();
        let base = base_layer(&mut store);
        let mut m = UnionMount::new(&mut store, vec![base]);
        m.write(&store, "/tmp/x", FileEntry::new(5, C::OffloadData));
        assert!(m.delete(&store, "/tmp/x"));
        assert_eq!(m.stats().whiteouts, 0);
        assert_eq!(m.exclusive_bytes(), 0);
    }

    #[test]
    fn logical_size_counts_shadowed_once_and_skips_whiteouts() {
        let mut store = LayerStore::new();
        let base = base_layer(&mut store);
        let mut m = UnionMount::new(&mut store, vec![base]);
        m.write(
            &store,
            "/system/lib/libc.so",
            FileEntry::new(700, C::CoreLib),
        );
        m.delete(&store, "/system/framework/core.jar");
        // Visible: only the copied-up libc (700).
        assert_eq!(m.logical_bytes(&store), 700);
    }

    #[test]
    fn shared_layers_counted_once_across_fleet() {
        let mut store = LayerStore::new();
        let base = base_layer(&mut store); // 1500 bytes shared
        let mut mounts = Vec::new();
        for i in 0..10 {
            let mut m = UnionMount::new(&mut store, vec![base]);
            m.write(
                &store,
                &format!("/etc/cfg{i}"),
                FileEntry::new(10, C::InstanceConfig),
            );
            mounts.push(m);
        }
        let refs: Vec<&UnionMount> = mounts.iter().collect();
        // 1500 shared + 10 × 10 private — NOT 10 × 1510.
        assert_eq!(fleet_disk_usage(&store, &refs), 1600);
        assert_eq!(store.refs(base), Some(10));
    }

    #[test]
    fn store_refuses_to_remove_referenced_layer() {
        let mut store = LayerStore::new();
        let base = base_layer(&mut store);
        let m = UnionMount::new(&mut store, vec![base]);
        assert!(!store.remove(base));
        m.unmount(&mut store);
        assert_eq!(store.refs(base), Some(0));
        assert!(store.remove(base));
        assert!(!store.remove(base), "already gone");
    }
}
