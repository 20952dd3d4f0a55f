//! # containerfs — layered storage under Cloud Android Containers
//!
//! Models the storage stack of §III-E and §IV-C:
//! * [`image`] — filesystem images with category accounting and the
//!   access tracking behind Observation 4 (68.4 % of the OS is never
//!   touched by offloaded code).
//! * [`android`] — the Android-x86 4.4 image calibrated to the paper's
//!   byte counts, the §IV-B3 customization pass, and per-instance
//!   private files.
//! * [`layer`] — AUFS-style union mounts with copy-on-write, whiteouts
//!   and fleet-level disk accounting (shared layers counted once).
//!
//! The in-memory Sharing Offloading I/O layer is priced, not stored:
//! its bandwidth is `virt::spec::TMPFS_BANDWIDTH`, and the engines time
//! an exchange from it without keeping its bytes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod android;
pub mod entry;
pub mod image;
pub mod layer;

pub use android::{android_x86_44_image, customize, instance_private_files, CustomizationReport};
pub use entry::{FileCategory, FileEntry};
pub use image::{AccessTracker, FsImage};
pub use layer::{fleet_disk_usage, CowStats, LayerId, LayerStore, UnionMount};
