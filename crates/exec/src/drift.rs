//! Modeled-vs-real drift measurement.
//!
//! For every `(WorkloadKind, SizeClass)` cell this runs the real
//! kernel `reps` times on a [`RealBackend`] pool, takes the median
//! wall time, and compares it with what the cycle model would charge
//! for a task of that nominal size. The ratio `real / modeled` is the
//! calibration signal: 1.0 means the cycle profile prices the kernel
//! perfectly on this host; the committed
//! [`CalibrationMap`] is exactly these
//! ratios, recorded on the reference machine.

use crate::real::RealBackend;
use crate::replay::{CalEntry, CalibrationMap, HostClass};
use crate::workset::SizeClass;
use simkit::units::Megacycles;
use workloads::WorkloadKind;

/// Parameters of one drift sweep.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Size classes to sweep.
    pub sizes: Vec<SizeClass>,
    /// Repetitions per cell (median is reported).
    pub reps: usize,
    /// Simulated host clock the model prices against, GHz.
    pub ghz: f64,
    /// Runtime-class CPU efficiency the model prices against.
    pub efficiency: f64,
    /// Host class measurements are attributed to.
    pub host: HostClass,
    /// Base input seed; rep `i` of a cell uses `seed + i`.
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            sizes: SizeClass::ALL.to_vec(),
            reps: 5,
            // The paper's 2.66 GHz server with the Rattrap container
            // runtime class — the configuration every golden run uses.
            ghz: 2.66,
            efficiency: 0.995,
            host: HostClass::LOCALHOST,
            seed: 20_170_529,
        }
    }
}

/// One cell of the drift report.
#[derive(Debug, Clone)]
pub struct DriftRow {
    /// Workload.
    pub kind: WorkloadKind,
    /// Input size class.
    pub size: SizeClass,
    /// Modeled charge for a task of this nominal size, milliseconds.
    pub modeled_ms: f64,
    /// Median measured kernel wall time, milliseconds.
    pub real_ms: f64,
    /// `real_ms / modeled_ms` — the drift ratio.
    pub ratio: f64,
    /// Kernel output checksum at the base seed (verifiability anchor).
    pub checksum: u64,
    /// Repetitions behind the median.
    pub reps: usize,
}

/// Sweep every `(kind, size)` cell and report drift rows in
/// presentation order (kinds in paper order, sizes ascending).
pub fn measure_drift(backend: &RealBackend, cfg: &DriftConfig) -> Vec<DriftRow> {
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let mean_mc = kind.profile().compute_megacycles_mean;
        for &size in &cfg.sizes {
            let modeled_secs =
                Megacycles(mean_mc * size.compute_scale()).seconds_at(cfg.ghz, cfg.efficiency);
            let mut walls = Vec::with_capacity(cfg.reps);
            let mut checksum = 0;
            for rep in 0..cfg.reps.max(1) {
                let (out, wall) = backend.execute(kind, size, cfg.seed + rep as u64);
                if rep == 0 {
                    checksum = out.checksum;
                }
                walls.push(wall);
            }
            walls.sort_unstable();
            let real_ms = walls[walls.len() / 2] as f64 / 1e3;
            let modeled_ms = modeled_secs * 1e3;
            rows.push(DriftRow {
                kind,
                size,
                modeled_ms,
                real_ms,
                ratio: real_ms / modeled_ms,
                checksum,
                reps: cfg.reps.max(1),
            });
        }
    }
    rows
}

/// Fold drift rows into a calibration map keyed at the sweep's host
/// class (plus wildcard-host entries so any simulated host replays).
pub fn calibration_from_rows(rows: &[DriftRow], host: HostClass) -> CalibrationMap {
    let mut map = CalibrationMap::identity();
    for r in rows {
        let entry = CalEntry {
            ratio: r.ratio,
            wall_micros: (r.real_ms * 1e3).round() as u64,
            samples: r.reps as u64,
        };
        map.insert(CalibrationMap::key(r.kind, r.size, host), entry);
        map.insert(format!("{}/{}/*", r.kind.label(), r.size.label()), entry);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workset::execute_kernel;

    #[test]
    fn drift_covers_every_cell_once() {
        let backend = RealBackend::new(2);
        let cfg = DriftConfig {
            sizes: vec![SizeClass::Small],
            reps: 1,
            ..DriftConfig::default()
        };
        let rows = measure_drift(&backend, &cfg);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.modeled_ms > 0.0);
            assert!(row.ratio > 0.0);
            assert_eq!(
                row.checksum,
                execute_kernel(row.kind, row.size, cfg.seed).checksum
            );
        }
        let map = calibration_from_rows(&rows, cfg.host);
        assert_eq!(map.len(), 8); // exact + wildcard per cell
    }
}
