//! Deterministic kernel work sets: how a sampled [`TaskRequest`] maps
//! onto a genuinely executable kernel input.
//!
//! The simulation samples continuous task sizes; the kernels take
//! discrete parameters (word counts, search depths, corpus sizes,
//! matrix orders). The bridge is [`SizeClass`]: a sampled task is
//! quantized against its profile mean into Small/Medium/Large, and
//! each `(WorkloadKind, SizeClass)` pair names one fixed, seeded
//! kernel input. Kernel *outputs* are therefore pure functions of
//! `(kind, size, seed)` — pinned by `tests/kernel_goldens.rs` — even
//! though real wall times are not.

use simkit::{Fnv1a, SimRng};
use workloads::{chess, linpack, ocr, virusscan, TaskRequest, WorkloadKind};

/// Quantized kernel input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SizeClass {
    /// Below ~85 % of the profile's mean compute.
    Small,
    /// Around the mean (the calibration anchor).
    Medium,
    /// Above ~125 % of the mean.
    Large,
}

impl SizeClass {
    /// All size classes, ascending.
    pub const ALL: [SizeClass; 3] = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];

    /// Single-letter display label (used in calibration keys and the
    /// serve protocol).
    pub const fn label(self) -> &'static str {
        match self {
            SizeClass::Small => "S",
            SizeClass::Medium => "M",
            SizeClass::Large => "L",
        }
    }

    /// Parse a size label (`"S"`/`"M"`/`"L"`, case-insensitive).
    pub fn from_label(s: &str) -> Option<SizeClass> {
        match s.to_ascii_uppercase().as_str() {
            "S" | "SMALL" => Some(SizeClass::Small),
            "M" | "MEDIUM" => Some(SizeClass::Medium),
            "L" | "LARGE" => Some(SizeClass::Large),
            _ => None,
        }
    }

    /// Quantize a sampled task against its profile's mean compute.
    pub fn of(task: &TaskRequest) -> SizeClass {
        let mean = task.kind.profile().compute_megacycles_mean;
        let ratio = task.compute.0 / mean;
        if ratio < 0.85 {
            SizeClass::Small
        } else if ratio <= 1.25 {
            SizeClass::Medium
        } else {
            SizeClass::Large
        }
    }

    /// Nominal compute scale of the class relative to the profile mean
    /// (the midpoint of each quantization band). Used by drift reports
    /// to price the modeled equivalent of one kernel run.
    pub const fn compute_scale(self) -> f64 {
        match self {
            SizeClass::Small => 0.7,
            SizeClass::Medium => 1.0,
            SizeClass::Large => 1.4,
        }
    }
}

/// Parse a workload label (as printed by [`WorkloadKind::label`]).
pub fn kind_from_label(s: &str) -> Option<WorkloadKind> {
    WorkloadKind::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(s))
}

/// Output of one real kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelOutput {
    /// FNV-1a 64 checksum over the kernel's canonical output encoding.
    /// Deterministic per `(kind, size, seed)`; this is what the serve
    /// API returns to the client as proof of execution.
    pub checksum: u64,
    /// Kernel-reported work units (comparisons, nodes, bytes, flops)
    /// — a machine-independent compute proxy.
    pub work_units: u64,
    /// Short human-readable result summary.
    pub detail: String,
}

/// Kernel input parameters for one `(kind, size)` cell.
///
/// Sized so that no Medium cell takes much over ten milliseconds on a
/// modern core and no Large cell much over a tenth of a second (Chess
/// is the largest: ≈ 4 and ≈ 32 ms at Medium and Large in
/// `results/drift.txt`) — CI's exec smoke job runs every cell and must
/// finish in bounded wall time.
#[derive(Debug, Clone, Copy)]
struct KernelParams {
    /// OCR: pseudo-words rendered into the page image.
    ocr_words: usize,
    /// Chess: search depth from the start position.
    chess_depth: u32,
    /// VirusScan: corpus file count (signature db is fixed at 64).
    scan_files: usize,
    /// VirusScan: mean file size, bytes.
    scan_mean_bytes: usize,
    /// Linpack: matrix order.
    linpack_n: usize,
}

const fn params(size: SizeClass) -> KernelParams {
    match size {
        SizeClass::Small => KernelParams {
            ocr_words: 4,
            chess_depth: 3,
            scan_files: 8,
            scan_mean_bytes: 2048,
            linpack_n: 80,
        },
        SizeClass::Medium => KernelParams {
            ocr_words: 10,
            chess_depth: 4,
            scan_files: 24,
            scan_mean_bytes: 2048,
            linpack_n: 140,
        },
        SizeClass::Large => KernelParams {
            ocr_words: 24,
            chess_depth: 5,
            scan_files: 64,
            scan_mean_bytes: 2048,
            linpack_n: 220,
        },
    }
}

/// VirusScan signature-database size (fixed across size classes: the
/// cloud side keeps the database resident; files are the migrated data).
const SCAN_DB_SIGS: usize = 64;
/// VirusScan infection rate for generated corpora.
const SCAN_INFECTION_RATE: f64 = 0.25;

/// Execute the real kernel for one `(kind, size, seed)` cell and
/// checksum its output.
///
/// The input is rebuilt deterministically from `seed` via [`SimRng`],
/// so the returned [`KernelOutput`] is a pure function of the three
/// arguments — on every machine, at every optimisation level.
pub fn execute_kernel(kind: WorkloadKind, size: SizeClass, seed: u64) -> KernelOutput {
    let p = params(size);
    let mut rng = SimRng::new(seed);
    let mut h = Fnv1a::new();
    match kind {
        WorkloadKind::Ocr => {
            let req = ocr::generate_request(p.ocr_words, &mut rng);
            let r = ocr::execute(&req);
            h.write(r.text.as_bytes());
            h.write_u64(r.comparisons);
            KernelOutput {
                checksum: h.finish(),
                work_units: r.comparisons,
                detail: format!("ocr: {} chars, conf {:.3}", r.text.len(), r.confidence),
            }
        }
        WorkloadKind::ChessGame => {
            // Walk a short seeded opening from the start position so
            // each seed analyses a different (still legal) middlegame.
            let mut board = chess::Board::start();
            for _ in 0..6 {
                let moves = chess::legal_moves(&board);
                if moves.is_empty() {
                    break;
                }
                let mv = moves[rng.uniform_u64(0, moves.len() as u64 - 1) as usize];
                board = chess::apply_move(&board, mv);
            }
            let req = chess::ChessRequest {
                fen: board.to_fen(),
                depth: p.chess_depth,
            };
            let r = chess::execute(&req).expect("start position FEN is valid");
            let mv = r.best_move.map(|m| m.uci()).unwrap_or_default();
            h.write(mv.as_bytes());
            h.write_u64(r.score as i64 as u64);
            h.write_u64(r.nodes);
            KernelOutput {
                checksum: h.finish(),
                work_units: r.nodes,
                detail: format!("chess: {} score {} nodes {}", mv, r.score, r.nodes),
            }
        }
        WorkloadKind::VirusScan => {
            let db = virusscan::generate_database(SCAN_DB_SIGS, &mut rng);
            let corpus = virusscan::generate_corpus(
                p.scan_files,
                p.scan_mean_bytes,
                SCAN_INFECTION_RATE,
                &db,
                &mut rng,
            );
            let r = virusscan::scan(&db, &corpus);
            h.write_u64(r.files_scanned as u64);
            h.write_u64(r.bytes_scanned);
            for &(f, s) in &r.detections {
                h.write_u64(f as u64);
                h.write_u64(s as u64);
            }
            KernelOutput {
                checksum: h.finish(),
                work_units: r.bytes_scanned,
                detail: format!(
                    "virusscan: {} files, {} detections",
                    r.files_scanned,
                    r.detections.len()
                ),
            }
        }
        WorkloadKind::Linpack => {
            let r = linpack::run(p.linpack_n, &mut rng).expect("random matrix is non-singular");
            h.write_u64(r.n as u64);
            h.write_f64(r.residual);
            h.write_f64(r.normalized_residual);
            h.write_f64(r.flops);
            KernelOutput {
                checksum: h.finish(),
                work_units: r.flops as u64,
                detail: format!("linpack: n={} resid {:.3e}", r.n, r.normalized_residual),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::units::Megacycles;

    fn task(kind: WorkloadKind, scale: f64) -> TaskRequest {
        let p = kind.profile();
        TaskRequest {
            kind,
            payload_bytes: p.payload_bytes_mean,
            control_bytes: p.control_bytes,
            result_bytes: p.result_bytes_mean,
            compute: Megacycles(p.compute_megacycles_mean * scale),
            io_bytes: 0,
        }
    }

    #[test]
    fn size_quantization_bands() {
        for kind in WorkloadKind::ALL {
            assert_eq!(SizeClass::of(&task(kind, 0.5)), SizeClass::Small);
            assert_eq!(SizeClass::of(&task(kind, 1.0)), SizeClass::Medium);
            assert_eq!(SizeClass::of(&task(kind, 1.6)), SizeClass::Large);
        }
    }

    #[test]
    fn labels_round_trip() {
        for s in SizeClass::ALL {
            assert_eq!(SizeClass::from_label(s.label()), Some(s));
        }
        for k in WorkloadKind::ALL {
            assert_eq!(kind_from_label(k.label()), Some(k));
        }
        assert_eq!(SizeClass::from_label("xl"), None);
        assert_eq!(kind_from_label("Doom"), None);
    }

    #[test]
    fn kernel_outputs_are_seed_deterministic() {
        for kind in WorkloadKind::ALL {
            let a = execute_kernel(kind, SizeClass::Small, 42);
            let b = execute_kernel(kind, SizeClass::Small, 42);
            assert_eq!(a, b, "{}", kind.label());
            let c = execute_kernel(kind, SizeClass::Small, 43);
            assert_ne!(a.checksum, c.checksum, "{} ignores seed", kind.label());
        }
    }

    #[test]
    fn larger_sizes_do_more_work() {
        for kind in WorkloadKind::ALL {
            let s = execute_kernel(kind, SizeClass::Small, 9).work_units;
            let l = execute_kernel(kind, SizeClass::Large, 9).work_units;
            assert!(l > s, "{}: {} !> {}", kind.label(), l, s);
        }
    }
}
