//! Filesystem images: flat path → entry maps with category accounting
//! and the access tracking used for Observation 4 (§III-E).

use crate::entry::{FileCategory, FileEntry};
use std::collections::{BTreeMap, BTreeSet};

/// A filesystem image — an immutable-ish set of files with sizes.
#[derive(Debug, Clone, Default)]
pub struct FsImage {
    files: BTreeMap<String, FileEntry>,
}

impl FsImage {
    /// Empty image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a file.
    pub fn insert(&mut self, path: impl Into<String>, entry: FileEntry) {
        self.files.insert(path.into(), entry);
    }

    /// Remove a file; returns it if present.
    pub fn remove(&mut self, path: &str) -> Option<FileEntry> {
        self.files.remove(path)
    }

    /// Look up a file.
    pub fn get(&self, path: &str) -> Option<&FileEntry> {
        self.files.get(path)
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(|f| f.size).sum()
    }

    /// Total bytes of files whose path starts with `prefix`.
    pub fn bytes_under(&self, prefix: &str) -> u64 {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(_, f)| f.size)
            .sum()
    }

    /// Iterate `(path, entry)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FileEntry)> {
        self.files.iter().map(|(p, f)| (p.as_str(), f))
    }

    /// Keep only files satisfying the predicate; returns `(files, bytes)`
    /// removed.
    pub fn retain(&mut self, mut keep: impl FnMut(&str, &FileEntry) -> bool) -> (usize, u64) {
        let mut removed_files = 0;
        let mut removed_bytes = 0;
        self.files.retain(|p, f| {
            if keep(p, f) {
                true
            } else {
                removed_files += 1;
                removed_bytes += f.size;
                false
            }
        });
        (removed_files, removed_bytes)
    }

    /// Split into `(matching, rest)` by predicate.
    pub fn partition(&self, mut pred: impl FnMut(&str, &FileEntry) -> bool) -> (FsImage, FsImage) {
        let mut yes = FsImage::new();
        let mut no = FsImage::new();
        for (p, f) in &self.files {
            if pred(p, f) {
                yes.insert(p.clone(), f.clone());
            } else {
                no.insert(p.clone(), f.clone());
            }
        }
        (yes, no)
    }
}

/// Records which paths of an image were touched during a workload —
/// how the paper measured that 68.4 % of the OS is never accessed.
#[derive(Debug, Clone, Default)]
pub struct AccessTracker {
    touched: BTreeSet<String>,
}

impl AccessTracker {
    /// Nothing touched yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an access to `path`.
    pub fn touch(&mut self, path: &str) {
        self.touched.insert(path.to_string());
    }

    /// Record accesses to every file of `image` in `category`.
    pub fn touch_category(&mut self, image: &FsImage, category: FileCategory) {
        for (p, f) in image.iter() {
            if f.category == category {
                self.touched.insert(p.to_string());
            }
        }
    }

    /// Bytes of `image` never touched.
    pub fn untouched_bytes(&self, image: &FsImage) -> u64 {
        image
            .iter()
            .filter(|(p, _)| !self.touched.contains(*p))
            .map(|(_, f)| f.size)
            .sum()
    }

    /// Fraction of `image` bytes never touched, in `[0, 1]`.
    pub fn untouched_fraction(&self, image: &FsImage) -> f64 {
        let total = image.total_bytes();
        if total == 0 {
            return 0.0;
        }
        self.untouched_bytes(image) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::FileCategory as C;

    fn sample() -> FsImage {
        let mut img = FsImage::new();
        img.insert(
            "/system/framework/core.jar",
            FileEntry::new(1000, C::Framework),
        );
        img.insert(
            "/system/app/Camera.apk",
            FileEntry::new(2000, C::BuiltinApp),
        );
        img.insert("/system/lib/libbinder.so", FileEntry::new(500, C::CoreLib));
        img.insert(
            "/data/dalvik-cache/boot.art",
            FileEntry::new(300, C::UserData),
        );
        img
    }

    #[test]
    fn totals_and_prefix_sums() {
        let img = sample();
        assert_eq!(img.file_count(), 4);
        assert_eq!(img.total_bytes(), 3800);
        assert_eq!(img.bytes_under("/system"), 3500);
        assert_eq!(img.bytes_under("/data"), 300);
        assert_eq!(img.bytes_under("/vendor"), 0);
    }

    #[test]
    fn retain_reports_removals() {
        let mut img = sample();
        let (files, bytes) = img.retain(|_, f| f.category.needed_for_offloading());
        assert_eq!(files, 1);
        assert_eq!(bytes, 2000);
        assert_eq!(img.file_count(), 3);
    }

    #[test]
    fn partition_splits_without_loss() {
        let img = sample();
        let (sys, rest) = img.partition(|p, _| p.starts_with("/system"));
        assert_eq!(sys.total_bytes() + rest.total_bytes(), img.total_bytes());
        assert_eq!(sys.file_count(), 3);
    }

    #[test]
    fn access_tracking() {
        let img = sample();
        let mut t = AccessTracker::new();
        t.touch("/system/framework/core.jar");
        t.touch("/system/lib/libbinder.so");
        assert_eq!(t.untouched_bytes(&img), 2300);
        assert!((t.untouched_fraction(&img) - 2300.0 / 3800.0).abs() < 1e-9);
        t.touch_category(&img, C::UserData);
        assert_eq!(t.untouched_bytes(&img), 2000);
    }

    #[test]
    fn empty_image_fraction_is_zero() {
        let t = AccessTracker::new();
        assert_eq!(t.untouched_fraction(&FsImage::new()), 0.0);
    }
}
