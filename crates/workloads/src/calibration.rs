//! The one calibration table behind every [`crate::WorkloadProfile`].
//!
//! Every number the simulation charges for the four benchmarks is
//! derived from this table — nothing else in the workspace hard-codes
//! a profile constant. The values are reverse-engineered from the
//! paper's published measurements:
//!
//! | Workload  | code KiB | payload | p.cv | ctl B | result B | Mc   | c.cv | I/O× | think s |
//! |-----------|---------:|--------:|-----:|------:|---------:|-----:|-----:|-----:|--------:|
//! | OCR       |    1402  | 280 KiB | 0.30 |   410 |    1540  | 6650 | 0.25 |  2.0 |     6.0 |
//! | ChessGame |    2128  |  26 KiB | 0.40 |   610 |     348  | 1600 | 0.50 |  0.5 |     3.0 |
//! | VirusScan |    1730  | 902 KiB | 0.35 |   420 |  17 400  | 4500 | 0.30 |  2.5 |     8.0 |
//! | Linpack   |     134  |   260 B | 0.10 |    96 |     113  | 2400 | 0.10 |  0.0 |     5.0 |
//!
//! Provenance, column by column:
//!
//! * **code KiB** (`app_code_bytes`) — Table II upload totals: over
//!   100 requests across 5 runtimes, VM-mode upload exceeds
//!   Rattrap-mode upload by exactly 4 extra APK pushes, which pins the
//!   per-app code size (OCR ≈ 1.4 MB; ChessGame's engine + opening
//!   book is the largest; Linpack is a thin math kernel).
//! * **payload / p.cv** (`payload_bytes_mean`, `payload_cv`) — Fig. 3
//!   data composition: OCR ships a page bitmap (~280 KiB), VirusScan
//!   ships the file batch (~902 KiB), ChessGame ships a position and
//!   history (~26 KiB), Linpack ships parameters only (260 B, and the
//!   tightest spread).
//! * **ctl B / result B** (`control_bytes`, `result_bytes_mean`) —
//!   Fig. 3 residuals after code + payload: control-plane chatter per
//!   request and the returned result (VirusScan's 17.4 kB scan report
//!   is the outlier; the rest return a few hundred bytes).
//! * **Mc / c.cv** (`compute_megacycles_mean`, `compute_cv`) — Fig. 1
//!   phase durations scaled to the 2.66 GHz paper server; ChessGame is
//!   "relatively small … high fluctuation" (§III-C), hence the 0.50
//!   CV; Linpack's fixed-order solve is near-deterministic at 0.10.
//! * **I/O×** (`offload_io_factor`) — §III-C: server-side offloading
//!   I/O as a multiple of the payload. VirusScan "spawns more I/O
//!   requests than other benchmarks" (2.5×); Linpack performs none.
//! * **think s** (`think_time_secs`) — §VI inter-request pacing per
//!   workload session.
//!
//! Changing any cell changes charged work and therefore every golden
//! digest; the regression tests in `crates/rattrap/tests/` pin the
//! digests produced by exactly these values.

use crate::profile::WorkloadKind;

const KIB: u64 = 1024;

/// One row of the calibration table (one workload's constants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalRow {
    /// Size of the mobile code (APK) pushed to a fresh runtime, bytes.
    pub app_code_bytes: u64,
    /// Mean per-request file + parameter bytes.
    pub payload_bytes_mean: u64,
    /// Coefficient of variation of the payload size.
    pub payload_cv: f64,
    /// Control-message bytes per request.
    pub control_bytes: u64,
    /// Mean result bytes returned to the device.
    pub result_bytes_mean: u64,
    /// Mean compute work per request, megacycles.
    pub compute_megacycles_mean: f64,
    /// Coefficient of variation of the compute work.
    pub compute_cv: f64,
    /// Server-side offloading I/O per request, as a multiple of the
    /// payload.
    pub offload_io_factor: f64,
    /// Mean think time between a device's consecutive requests, secs.
    pub think_time_secs: f64,
}

/// The table, in [`WorkloadKind::ALL`] order.
pub const TABLE: [CalRow; 4] = [
    // OCR — compute-intensive with file transfer.
    CalRow {
        app_code_bytes: 1402 * KIB,
        payload_bytes_mean: 280 * KIB,
        payload_cv: 0.30,
        control_bytes: 410,
        result_bytes_mean: 1540,
        compute_megacycles_mean: 6650.0,
        compute_cv: 0.25,
        offload_io_factor: 2.0,
        think_time_secs: 6.0,
    },
    // ChessGame — interactive, network-chatty, bursty compute.
    CalRow {
        app_code_bytes: 2128 * KIB,
        payload_bytes_mean: 26 * KIB,
        payload_cv: 0.40,
        control_bytes: 610,
        result_bytes_mean: 348,
        compute_megacycles_mean: 1600.0,
        compute_cv: 0.50,
        offload_io_factor: 0.5,
        think_time_secs: 3.0,
    },
    // VirusScan — I/O heavy.
    CalRow {
        app_code_bytes: 1730 * KIB,
        payload_bytes_mean: 902 * KIB,
        payload_cv: 0.35,
        control_bytes: 420,
        result_bytes_mean: 17_400,
        compute_megacycles_mean: 4500.0,
        compute_cv: 0.30,
        offload_io_factor: 2.5,
        think_time_secs: 8.0,
    },
    // Linpack — pure computation, parameter-sized requests.
    CalRow {
        app_code_bytes: 134 * KIB,
        payload_bytes_mean: 260,
        payload_cv: 0.10,
        control_bytes: 96,
        result_bytes_mean: 113,
        compute_megacycles_mean: 2400.0,
        compute_cv: 0.10,
        offload_io_factor: 0.0,
        think_time_secs: 5.0,
    },
];

/// The calibration row for one workload.
pub const fn row(kind: WorkloadKind) -> &'static CalRow {
    &TABLE[kind as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_indexed_in_all_order() {
        // `row()` indexes by discriminant; the discriminants must walk
        // ALL in order or the table silently shuffles.
        for (i, kind) in WorkloadKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{}", kind.label());
            assert_eq!(*row(kind), TABLE[i]);
        }
    }

    #[test]
    fn documented_invariants_hold() {
        // §III-C: VirusScan is the I/O outlier, ChessGame the CV
        // outlier, Linpack pure compute with the tightest spreads.
        let io = |k: WorkloadKind| row(k).payload_bytes_mean as f64 * row(k).offload_io_factor;
        assert!(WorkloadKind::ALL
            .iter()
            .all(|&k| io(WorkloadKind::VirusScan) >= io(k)));
        assert!(WorkloadKind::ALL
            .iter()
            .all(|&k| row(WorkloadKind::ChessGame).compute_cv >= row(k).compute_cv));
        assert_eq!(row(WorkloadKind::Linpack).offload_io_factor, 0.0);
        assert!(WorkloadKind::ALL
            .iter()
            .all(|&k| row(WorkloadKind::Linpack).payload_cv <= row(k).payload_cv));
    }
}
