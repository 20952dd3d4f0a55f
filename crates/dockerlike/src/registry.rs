//! The image registry: push/pull with per-layer dedup and transfer
//! accounting.

use crate::image::{BlobStore, Digest, Layer, Manifest};
use std::collections::BTreeMap;

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No such `name:tag`.
    ManifestNotFound(String),
    /// A manifest references a blob the registry does not hold.
    MissingBlob(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::ManifestNotFound(r) => write!(f, "manifest not found: {r}"),
            RegistryError::MissingBlob(d) => write!(f, "missing blob: {d}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// What a pull had to move over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PullReceipt {
    /// Layers fetched.
    pub layers_fetched: usize,
    /// Layers already present locally (dedup hits).
    pub layers_cached: usize,
    /// Bytes transferred.
    pub bytes_transferred: u64,
}

/// An image registry.
#[derive(Debug, Default)]
pub struct Registry {
    manifests: BTreeMap<String, Manifest>,
    blobs: BlobStore,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push an image: manifest + its layer blobs.
    pub fn push(&mut self, manifest: Manifest, layers: Vec<Layer>) {
        debug_assert_eq!(manifest.layers.len(), layers.len());
        for l in layers {
            self.blobs.put(l);
        }
        self.manifests.insert(manifest.reference(), manifest);
    }

    /// Resolve a manifest by `name:tag`.
    pub fn manifest(&self, reference: &str) -> Result<&Manifest, RegistryError> {
        self.manifests
            .get(reference)
            .ok_or_else(|| RegistryError::ManifestNotFound(reference.to_string()))
    }

    /// Blob metadata lookup.
    pub fn blob(&self, digest: Digest) -> Result<&Layer, RegistryError> {
        self.blobs
            .get(digest)
            .ok_or_else(|| RegistryError::MissingBlob(digest.short()))
    }

    /// Pull `reference` into `local`, skipping blobs the local store
    /// already holds — Docker's layer-dedup fast path.
    pub fn pull(
        &self,
        reference: &str,
        local: &mut BlobStore,
    ) -> Result<(Manifest, PullReceipt), RegistryError> {
        let manifest = self.manifest(reference)?.clone();
        let mut receipt = PullReceipt::default();
        for &digest in &manifest.layers {
            if local.has(digest) {
                receipt.layers_cached += 1;
                // Take a reference so release() accounting stays sound.
                let layer = self.blob(digest)?.clone();
                local.put(layer);
            } else {
                let layer = self.blob(digest)?.clone();
                receipt.bytes_transferred += layer.size;
                receipt.layers_fetched += 1;
                local.put(layer);
            }
        }
        Ok((manifest, receipt))
    }

    /// Registry-side blob bytes (dedup across images).
    pub fn stored_bytes(&self) -> u64 {
        self.blobs.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{cloud_android_layers, layer_from_image};
    use containerfs::{FileCategory, FileEntry, FsImage};

    fn app_layer(name: &str, bytes: u64) -> Layer {
        let mut img = FsImage::new();
        img.insert(
            format!("/data/app/{name}.apk"),
            FileEntry::new(bytes, FileCategory::OffloadData),
        );
        layer_from_image(&format!("app {name}"), &img)
    }

    fn push_cloud_android(reg: &mut Registry) -> Manifest {
        let layers: Vec<Layer> = cloud_android_layers().into_iter().map(|(l, _)| l).collect();
        let m = Manifest::new("rattrap/cloud-android", "4.4-r2", &layers);
        reg.push(m.clone(), layers);
        m
    }

    #[test]
    fn push_pull_round_trip() {
        let mut reg = Registry::new();
        let m = push_cloud_android(&mut reg);
        let mut local = BlobStore::new();
        let (pulled, receipt) = reg.pull(&m.reference(), &mut local).unwrap();
        assert_eq!(pulled.config, m.config);
        assert_eq!(receipt.layers_fetched, 4);
        assert_eq!(receipt.layers_cached, 0);
        assert_eq!(receipt.bytes_transferred, reg.stored_bytes());
        assert_eq!(local.len(), 4);
    }

    #[test]
    fn second_pull_is_fully_cached() {
        let mut reg = Registry::new();
        let m = push_cloud_android(&mut reg);
        let mut local = BlobStore::new();
        reg.pull(&m.reference(), &mut local).unwrap();
        let (_, receipt) = reg.pull(&m.reference(), &mut local).unwrap();
        assert_eq!(receipt.layers_fetched, 0);
        assert_eq!(receipt.layers_cached, 4);
        assert_eq!(receipt.bytes_transferred, 0, "warm pull moves nothing");
    }

    #[test]
    fn derived_image_pulls_only_its_delta() {
        let mut reg = Registry::new();
        let base = push_cloud_android(&mut reg);
        // A derived image: base layers + one app layer.
        let base_layers: Vec<Layer> = base
            .layers
            .iter()
            .map(|&d| reg.blob(d).unwrap().clone())
            .collect();
        let app = app_layer("chessgame", 2 << 20);
        let mut all = base_layers.clone();
        all.push(app.clone());
        let derived = Manifest::new("rattrap/chessgame", "1.0", &all);
        reg.push(derived.clone(), all);

        let mut local = BlobStore::new();
        reg.pull(&base.reference(), &mut local).unwrap();
        let (_, receipt) = reg.pull(&derived.reference(), &mut local).unwrap();
        assert_eq!(receipt.layers_cached, 4, "base layers dedup");
        assert_eq!(receipt.layers_fetched, 1, "only the app layer moves");
        assert_eq!(receipt.bytes_transferred, app.size);
    }

    #[test]
    fn registry_dedups_across_images() {
        let mut reg = Registry::new();
        let before = {
            push_cloud_android(&mut reg);
            reg.stored_bytes()
        };
        // Pushing a derived image adds only the app layer's bytes.
        let base = reg
            .manifest("rattrap/cloud-android:4.4-r2")
            .unwrap()
            .clone();
        let base_layers: Vec<Layer> = base
            .layers
            .iter()
            .map(|&d| reg.blob(d).unwrap().clone())
            .collect();
        let app = app_layer("ocr", 1 << 20);
        let mut all = base_layers;
        all.push(app.clone());
        reg.push(Manifest::new("rattrap/ocr", "1.0", &all), all.clone());
        assert_eq!(reg.stored_bytes(), before + app.size);
        assert_eq!(reg.manifests.len(), 2);
    }

    #[test]
    fn missing_manifest_and_blob_errors() {
        let reg = Registry::new();
        let mut local = BlobStore::new();
        let err = reg.pull("nope:latest", &mut local).unwrap_err();
        assert!(matches!(err, RegistryError::ManifestNotFound(_)));
        assert!(reg.blob(crate::image::digest_of(b"ghost")).is_err());
    }
}
