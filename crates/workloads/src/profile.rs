//! Offloading profiles of the four benchmarks.
//!
//! The discrete-event simulation does not ship real bitmaps over the
//! simulated network; it ships *calibrated task descriptors*. The
//! calibration is reverse-engineered from the paper's own measurements
//! (Table II totals over 5 devices × 20 requests, Fig. 3 data
//! composition, Fig. 1 phase durations), so the phase decompositions
//! the harness produces match the published workload behaviour. The
//! real compute kernels live next door ([`crate::ocr`], [`crate::chess`],
//! [`crate::virusscan`], [`crate::linpack`]) and are benchmarked with
//! Criterion to validate the relative compute weights.

use simkit::units::Megacycles;
use simkit::SimRng;

/// The four benchmark applications (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// Image tool: compute-intensive with file transfer.
    Ocr,
    /// Game: interactive, network-chatty, small bursts of compute.
    ChessGame,
    /// Anti-virus: I/O heavy.
    VirusScan,
    /// Mathematical tool: pure computation.
    Linpack,
}

impl WorkloadKind {
    /// All workloads, in the paper's presentation order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Ocr,
        WorkloadKind::ChessGame,
        WorkloadKind::VirusScan,
        WorkloadKind::Linpack,
    ];

    /// Display label.
    pub const fn label(self) -> &'static str {
        match self {
            WorkloadKind::Ocr => "OCR",
            WorkloadKind::ChessGame => "ChessGame",
            WorkloadKind::VirusScan => "VirusScan",
            WorkloadKind::Linpack => "Linpack",
        }
    }

    /// Android application id (the App Warehouse cache key base).
    pub const fn app_id(self) -> &'static str {
        match self {
            WorkloadKind::Ocr => "com.bench.ocr",
            WorkloadKind::ChessGame => "com.bench.chessgame",
            WorkloadKind::VirusScan => "com.bench.virusscan",
            WorkloadKind::Linpack => "com.bench.linpack",
        }
    }

    /// The calibrated offloading profile, read from the one documented
    /// table in [`crate::calibration`]. The table's provenance (which
    /// paper figure pins which column) is documented there; changing a
    /// cell changes every golden digest.
    pub fn profile(self) -> WorkloadProfile {
        let row = crate::calibration::row(self);
        WorkloadProfile {
            kind: self,
            app_code_bytes: row.app_code_bytes,
            payload_bytes_mean: row.payload_bytes_mean,
            payload_cv: row.payload_cv,
            control_bytes: row.control_bytes,
            result_bytes_mean: row.result_bytes_mean,
            compute_megacycles_mean: row.compute_megacycles_mean,
            compute_cv: row.compute_cv,
            offload_io_factor: row.offload_io_factor,
            think_time_secs: row.think_time_secs,
        }
    }
}

/// Calibrated per-workload parameters driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Which workload this is.
    pub kind: WorkloadKind,
    /// Size of the mobile code (APK) pushed to a fresh runtime.
    pub app_code_bytes: u64,
    /// Mean per-request file + parameter bytes.
    pub payload_bytes_mean: u64,
    /// Coefficient of variation of the payload size.
    pub payload_cv: f64,
    /// Control-message bytes per request.
    pub control_bytes: u64,
    /// Mean result bytes returned to the device.
    pub result_bytes_mean: u64,
    /// Mean compute work per request, in megacycles.
    pub compute_megacycles_mean: f64,
    /// Coefficient of variation of the compute work.
    pub compute_cv: f64,
    /// Server-side offloading I/O per request, as a multiple of the
    /// payload (writes + re-reads of migrated files).
    pub offload_io_factor: f64,
    /// Mean think time between a device's consecutive requests, seconds.
    pub think_time_secs: f64,
}

/// One sampled offloading task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRequest {
    /// Workload this task belongs to.
    pub kind: WorkloadKind,
    /// File + parameter bytes uploaded with the request.
    pub payload_bytes: u64,
    /// Control-message bytes (always uploaded).
    pub control_bytes: u64,
    /// Result bytes downloaded.
    pub result_bytes: u64,
    /// Compute work.
    pub compute: Megacycles,
    /// Server-side file I/O triggered by the task.
    pub io_bytes: u64,
}

impl WorkloadProfile {
    /// Sample one task from the profile's distributions.
    pub fn sample(&self, rng: &mut SimRng) -> TaskRequest {
        let payload = rng
            .normal_at_least(
                self.payload_bytes_mean as f64,
                self.payload_bytes_mean as f64 * self.payload_cv,
                self.payload_bytes_mean as f64 * 0.2,
            )
            .round() as u64;
        let compute = rng.normal_at_least(
            self.compute_megacycles_mean,
            self.compute_megacycles_mean * self.compute_cv,
            self.compute_megacycles_mean * 0.15,
        );
        let result = rng
            .normal_at_least(
                self.result_bytes_mean as f64,
                self.result_bytes_mean as f64 * 0.2,
                16.0,
            )
            .round() as u64;
        TaskRequest {
            kind: self.kind,
            payload_bytes: payload,
            control_bytes: self.control_bytes,
            result_bytes: result,
            compute: Megacycles(compute),
            io_bytes: (payload as f64 * self.offload_io_factor).round() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_ids_distinct() {
        let mut labels: Vec<_> = WorkloadKind::ALL.iter().map(|w| w.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
        assert!(WorkloadKind::ALL
            .iter()
            .all(|w| w.app_id().starts_with("com.bench.")));
    }

    #[test]
    fn chess_code_dominates_migrated_data() {
        // Fig. 3: for ChessGame and Linpack the mobile code is >50 % of
        // migrated data over a 20-request VM session.
        for kind in [WorkloadKind::ChessGame, WorkloadKind::Linpack] {
            let p = kind.profile();
            let code = p.app_code_bytes as f64;
            let rest = (20 * (p.payload_bytes_mean + p.control_bytes)) as f64;
            assert!(
                code / (code + rest) > 0.5,
                "{}: {}",
                kind.label(),
                code / (code + rest)
            );
        }
        // …while OCR and VirusScan are payload-dominated.
        for kind in [WorkloadKind::Ocr, WorkloadKind::VirusScan] {
            let p = kind.profile();
            let code = p.app_code_bytes as f64;
            let rest = (20 * (p.payload_bytes_mean + p.control_bytes)) as f64;
            assert!(code / (code + rest) < 0.5, "{}", kind.label());
        }
    }

    #[test]
    fn virusscan_has_heaviest_io() {
        let io = |k: WorkloadKind| {
            let p = k.profile();
            p.payload_bytes_mean as f64 * p.offload_io_factor
        };
        assert!(io(WorkloadKind::VirusScan) > io(WorkloadKind::Ocr));
        assert!(io(WorkloadKind::VirusScan) > io(WorkloadKind::ChessGame));
        assert!(io(WorkloadKind::Linpack) == 0.0);
    }

    #[test]
    fn sampling_is_deterministic_and_positive() {
        let p = WorkloadKind::Ocr.profile();
        let a = p.sample(&mut SimRng::new(5));
        let b = p.sample(&mut SimRng::new(5));
        assert_eq!(a, b);
        assert!(a.payload_bytes > 0);
        assert!(a.compute.0 > 0.0);
    }

    #[test]
    fn sample_means_track_profile() {
        let p = WorkloadKind::VirusScan.profile();
        let mut rng = SimRng::new(6);
        let n = 4000;
        let mean_payload: f64 = (0..n)
            .map(|_| p.sample(&mut rng).payload_bytes as f64)
            .sum::<f64>()
            / n as f64;
        let expected = p.payload_bytes_mean as f64;
        assert!(
            (mean_payload - expected).abs() / expected < 0.05,
            "mean {mean_payload} vs {expected}"
        );
    }

    #[test]
    fn table2_reverse_engineering_holds() {
        // With 5 runtimes and 100 requests, VM-mode upload minus
        // Rattrap-mode upload should be ≈ 4 app-code copies (Table II).
        for kind in WorkloadKind::ALL {
            let p = kind.profile();
            let rattrap = 100 * (p.payload_bytes_mean + p.control_bytes) + p.app_code_bytes;
            let vm = 100 * (p.payload_bytes_mean + p.control_bytes) + 5 * p.app_code_bytes;
            assert_eq!(vm - rattrap, 4 * p.app_code_bytes);
            assert!(rattrap < vm);
        }
    }
}
