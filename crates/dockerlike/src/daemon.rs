//! The container daemon: just-in-time provisioning of Cloud Android
//! Containers from registry images (§VIII future work), with three
//! startup strategies whose latency the experiment compares:
//!
//! * **Cold pull** — fetch every missing layer, unpack, start.
//! * **Warm cache** — layers already local: unpack metadata + start.
//! * **Lazy pull** (Slacker, FAST'16) — fetch only the manifest and the
//!   small fraction of the image a container actually reads at boot,
//!   faulting the rest in the background.

use crate::image::BlobStore;
use crate::registry::{PullReceipt, Registry, RegistryError};
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;
use virt::cac_optimized_boot;

/// How the daemon materializes image content at container start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullStrategy {
    /// Fetch all missing layers before starting.
    Eager,
    /// Start after fetching only the boot working set; page the rest
    /// lazily (Slacker measured ~6.4% of an image is read at startup).
    Lazy,
}

/// Fraction of image bytes a container reads during startup (Slacker's
/// measurement across 57 images: 6.4 %).
pub const STARTUP_WORKING_SET: f64 = 0.064;

/// A running just-in-time container.
#[derive(Debug)]
pub struct JitContainer {
    /// Container id.
    pub id: u32,
    /// Image reference it was created from.
    pub image: String,
    /// When it became ready.
    pub ready_at: SimTime,
    /// Bytes still to be faulted in (lazy strategy).
    pub lazy_remainder: u64,
}

/// Outcome of a `create` call.
#[derive(Debug)]
pub struct CreateReceipt {
    /// The new container's id.
    pub container: u32,
    /// Total creation latency (pull + unpack + boot).
    pub latency: SimDuration,
    /// What the pull transferred.
    pub pull: PullReceipt,
}

/// The daemon.
#[derive(Debug)]
pub struct Daemon {
    /// Local layer cache.
    pub cache: BlobStore,
    /// Link to the registry, bytes/second.
    pub registry_bandwidth: f64,
    /// Local unpack (untar + overlay mount) throughput, bytes/second.
    pub unpack_bandwidth: f64,
    containers: BTreeMap<u32, JitContainer>,
    next_id: u32,
}

impl Daemon {
    /// A daemon with a 1 Gbps registry link and NVMe-class unpack.
    pub fn new() -> Self {
        Daemon {
            cache: BlobStore::new(),
            registry_bandwidth: 125.0e6, // 1 Gbps
            unpack_bandwidth: 400.0e6,   // untar + mount
            containers: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Create a container from `reference` at time `now`.
    pub fn create(
        &mut self,
        registry: &Registry,
        reference: &str,
        strategy: PullStrategy,
        now: SimTime,
    ) -> Result<CreateReceipt, RegistryError> {
        let (manifest, pull) = registry.pull(reference, &mut self.cache)?;
        let image_bytes: u64 = manifest
            .layers
            .iter()
            .map(|&d| self.cache.get(d).map(|l| l.size).unwrap_or(0))
            .sum();

        let (transfer_bytes, unpack_bytes, lazy_remainder) = match strategy {
            PullStrategy::Eager => (pull.bytes_transferred, pull.bytes_transferred, 0),
            PullStrategy::Lazy => {
                // Only the startup working set of the *missing* bytes is
                // on the critical path; cached layers cost nothing.
                let ws = (pull.bytes_transferred as f64 * STARTUP_WORKING_SET) as u64;
                (ws, ws, pull.bytes_transferred - ws)
            }
        };
        let pull_time = SimDuration::from_secs_f64(transfer_bytes as f64 / self.registry_bandwidth);
        let unpack_time = SimDuration::from_secs_f64(unpack_bytes as f64 / self.unpack_bandwidth);
        // The container itself boots like an optimized CAC minus the
        // shared-layer mount stage — the overlay the unpack produced
        // already provides the rootfs.
        let boot = cac_optimized_boot()
            .stages()
            .iter()
            .filter(|s| !s.name.contains("mount"))
            .fold(SimDuration::ZERO, |acc, s| acc + s.duration);
        let latency = pull_time + unpack_time + boot;

        let id = self.next_id;
        self.next_id += 1;
        self.containers.insert(
            id,
            JitContainer {
                id,
                image: reference.to_string(),
                ready_at: now + latency,
                lazy_remainder,
            },
        );
        let _ = image_bytes;
        Ok(CreateReceipt {
            container: id,
            latency,
            pull,
        })
    }

    /// Remove a container, releasing its image layers from the cache
    /// reference counts.
    pub fn remove(&mut self, registry: &Registry, id: u32) -> bool {
        let Some(c) = self.containers.remove(&id) else {
            return false;
        };
        if let Ok(manifest) = registry.manifest(&c.image) {
            for &d in &manifest.layers {
                self.cache.release(d);
            }
        }
        true
    }

    /// A running container by id.
    pub fn container(&self, id: u32) -> Option<&JitContainer> {
        self.containers.get(&id)
    }
}

impl Default for Daemon {
    fn default() -> Self {
        Daemon::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{cloud_android_layers, Layer, Manifest};

    fn registry_with_image() -> (Registry, String) {
        let mut reg = Registry::new();
        let layers: Vec<Layer> = cloud_android_layers().into_iter().map(|(l, _)| l).collect();
        let m = Manifest::new("rattrap/cloud-android", "4.4-r2", &layers);
        let reference = m.reference();
        reg.push(m, layers);
        (reg, reference)
    }

    #[test]
    fn cold_eager_create_pays_the_full_pull() {
        let (reg, image) = registry_with_image();
        let mut d = Daemon::new();
        let r = d
            .create(&reg, &image, PullStrategy::Eager, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.pull.layers_fetched, 4);
        // ~273 MiB over 1 Gbps ≈ 2.3 s + unpack + 1.5 s boot.
        assert!(
            r.latency > SimDuration::from_secs(3),
            "cold eager: {}",
            r.latency
        );
        assert_eq!(d.containers.len(), 1);
    }

    #[test]
    fn warm_create_approaches_lxc_startup() {
        let (reg, image) = registry_with_image();
        let mut d = Daemon::new();
        d.create(&reg, &image, PullStrategy::Eager, SimTime::ZERO)
            .unwrap();
        let r = d
            .create(&reg, &image, PullStrategy::Eager, SimTime::ZERO)
            .unwrap();
        assert_eq!(r.pull.bytes_transferred, 0);
        // Warm start = container boot only (≈1.5 s).
        assert!(
            r.latency < SimDuration::from_millis(1_600),
            "warm: {}",
            r.latency
        );
    }

    #[test]
    fn lazy_cold_create_is_near_just_in_time() {
        let (reg, image) = registry_with_image();
        let mut eager = Daemon::new();
        let cold_eager = eager
            .create(&reg, &image, PullStrategy::Eager, SimTime::ZERO)
            .unwrap()
            .latency;
        let mut lazy = Daemon::new();
        let r = lazy
            .create(&reg, &image, PullStrategy::Lazy, SimTime::ZERO)
            .unwrap();
        assert!(
            r.latency.as_secs_f64() < cold_eager.as_secs_f64() * 0.55,
            "lazy {} vs eager {}",
            r.latency,
            cold_eager
        );
        let c = lazy.container(r.container).unwrap();
        assert!(c.lazy_remainder > 0, "most bytes fault in later");
        // The claim of §VIII: lazy Docker pull ≈ "real just-in-time
        // provision" — under 2× the warm boot.
        assert!(
            r.latency < SimDuration::from_millis(2_600),
            "lazy cold: {}",
            r.latency
        );
    }

    #[test]
    fn remove_releases_cache_references() {
        let (reg, image) = registry_with_image();
        let mut d = Daemon::new();
        let a = d
            .create(&reg, &image, PullStrategy::Eager, SimTime::ZERO)
            .unwrap();
        let b = d
            .create(&reg, &image, PullStrategy::Eager, SimTime::ZERO)
            .unwrap();
        assert!(d.cache.total_bytes() > 0);
        assert!(d.remove(&reg, a.container));
        assert!(d.cache.total_bytes() > 0, "b still pins the layers");
        assert!(d.remove(&reg, b.container));
        assert_eq!(d.cache.total_bytes(), 0, "last container frees the cache");
        assert!(!d.remove(&reg, 99));
    }

    #[test]
    fn unknown_image_errors() {
        let (reg, _) = registry_with_image();
        let mut d = Daemon::new();
        assert!(d
            .create(&reg, "ghost:latest", PullStrategy::Eager, SimTime::ZERO)
            .is_err());
    }
}
