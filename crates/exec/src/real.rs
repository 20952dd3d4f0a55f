//! The real-execution backend: offloaded jobs actually run.
//!
//! [`RealBackend`] owns a bounded worker thread pool. When the engine
//! asks for a charge, the request's kernel input is rebuilt from its
//! deterministic seed, shipped to a worker, executed for real, and the
//! measured wall time becomes the sim-time charge (scaled from the
//! measuring host's clock to the simulated host's). Every execution is
//! logged as a [`Measurement`]; [`RealBackend::calibration`] folds the
//! log into a [`CalibrationMap`] for
//! deterministic replay.
//!
//! Wall clocks are not reproducible, so this backend reports
//! `is_deterministic() == false`; golden checks never run against it.
//! Kernel *outputs* stay deterministic and are checksummed on the way
//! through.

use crate::backend::{ComputeBackend, ComputeCtx, HostClass};
use crate::replay::{CalEntry, CalibrationMap};
use crate::workset::{execute_kernel, KernelOutput, SizeClass};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;
use workloads::{TaskRequest, WorkloadKind};

/// One logged real execution.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload executed.
    pub kind: WorkloadKind,
    /// Quantized input size.
    pub size: SizeClass,
    /// Hardware class the wall time is attributed to.
    pub host: HostClass,
    /// Measured kernel wall time, microseconds.
    pub wall_micros: u64,
    /// What the `Modeled` backend would have charged, microseconds
    /// (at the same ctx clock/efficiency) — the drift denominator.
    pub modeled_micros: u64,
    /// Deterministic output checksum of the execution.
    pub checksum: u64,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A bounded worker pool executing kernel jobs.
///
/// `std::sync::mpsc` receivers are single-consumer, so the receiving
/// end sits behind a mutex and idle workers race to pull the next job
/// — a classic shared-queue pool with no extra dependencies.
#[derive(Debug)]
struct Pool {
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("exec-worker-{i}"))
                    .spawn(move || loop {
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break,
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // sender dropped: shut down
                        }
                    })
                    .expect("spawn exec worker")
            })
            .collect();
        Pool {
            tx: Some(tx),
            workers: handles,
        }
    }

    fn submit(&self, job: Job) {
        self.tx
            .as_ref()
            .expect("pool is live until drop")
            .send(job)
            .expect("workers outlive the pool handle");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        drop(self.tx.take()); // hang up; workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The real-execution compute backend.
#[derive(Debug)]
pub struct RealBackend {
    pool: Pool,
    /// Clock of the machine the kernels physically run on, GHz. Wall
    /// times are rescaled by `local_clock_ghz / ctx.clock_ghz` so a
    /// fast measuring host charges the slower simulated host fairly.
    local_clock_ghz: f64,
    log: Mutex<Vec<Measurement>>,
}

impl RealBackend {
    /// Pool with `workers` threads, assuming the local machine matches
    /// the simulated host clock (no rescaling).
    pub fn new(workers: usize) -> RealBackend {
        RealBackend::with_local_clock(workers, 0.0)
    }

    /// Pool with an explicit local clock for wall-time rescaling; pass
    /// `0.0` to disable rescaling.
    pub fn with_local_clock(workers: usize, local_clock_ghz: f64) -> RealBackend {
        RealBackend {
            pool: Pool::new(workers),
            local_clock_ghz,
            log: Mutex::new(Vec::new()),
        }
    }

    /// Execute one kernel cell on the pool and wait for its output and
    /// wall time (microseconds). Public so the serve path and drift
    /// experiment share the measured pool with the backend.
    pub fn execute(&self, kind: WorkloadKind, size: SizeClass, seed: u64) -> (KernelOutput, u64) {
        let (tx, rx) = mpsc::channel();
        self.pool.submit(Box::new(move || {
            let start = Instant::now();
            let out = execute_kernel(kind, size, seed);
            let wall = start.elapsed().as_micros() as u64;
            let _ = tx.send((out, wall));
        }));
        rx.recv().expect("worker completes the job")
    }

    /// Snapshot of the measurement log.
    pub fn measurements(&self) -> Vec<Measurement> {
        self.log.lock().expect("measurement log lock").clone()
    }

    /// Fold the measurement log into a calibration map: per
    /// `(kind, size, host)` key, the mean real/modeled ratio and mean
    /// wall time over all samples.
    pub fn calibration(&self) -> CalibrationMap {
        let log = self.measurements();
        let mut map = CalibrationMap::identity();
        let mut acc: std::collections::BTreeMap<String, (f64, u64, u64)> = Default::default();
        for m in &log {
            let key = CalibrationMap::key(m.kind, m.size, m.host);
            let ratio = if m.modeled_micros > 0 {
                m.wall_micros as f64 / m.modeled_micros as f64
            } else {
                1.0
            };
            let e = acc.entry(key).or_insert((0.0, 0, 0));
            e.0 += ratio;
            e.1 += m.wall_micros;
            e.2 += 1;
        }
        for (key, (ratio_sum, wall_sum, n)) in acc {
            map.insert(
                key,
                CalEntry {
                    ratio: ratio_sum / n as f64,
                    wall_micros: wall_sum / n,
                    samples: n,
                },
            );
        }
        map
    }
}

impl ComputeBackend for RealBackend {
    fn name(&self) -> &'static str {
        "real"
    }

    fn charge(&self, ctx: &ComputeCtx, task: &TaskRequest) -> f64 {
        let (out, wall_micros) = self.execute(ctx.kind, ctx.size, ctx.input_seed);
        let modeled = task.compute.seconds_at(ctx.clock_ghz, ctx.cpu_efficiency);
        self.log
            .lock()
            .expect("measurement log lock")
            .push(Measurement {
                kind: ctx.kind,
                size: ctx.size,
                host: ctx.host,
                wall_micros,
                modeled_micros: (modeled * 1e6).round() as u64,
                checksum: out.checksum,
            });
        let mut secs = wall_micros as f64 / 1e6;
        if self.local_clock_ghz > 0.0 && ctx.clock_ghz > 0.0 {
            secs *= self.local_clock_ghz / ctx.clock_ghz;
        }
        secs
    }

    fn is_deterministic(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::units::Megacycles;

    #[test]
    fn pool_executes_and_logs() {
        let backend = RealBackend::new(2);
        let task = TaskRequest {
            kind: WorkloadKind::Linpack,
            payload_bytes: 260,
            control_bytes: 96,
            result_bytes: 113,
            compute: Megacycles(2400.0),
            io_bytes: 0,
        };
        let ctx = ComputeCtx {
            kind: task.kind,
            size: SizeClass::Small,
            host: HostClass::LOCALHOST,
            clock_ghz: 2.66,
            cpu_efficiency: 0.995,
            input_seed: 5,
        };
        let charge = backend.charge(&ctx, &task);
        assert!(charge > 0.0);
        let log = backend.measurements();
        assert_eq!(log.len(), 1);
        assert_eq!(
            log[0].checksum,
            execute_kernel(WorkloadKind::Linpack, SizeClass::Small, 5).checksum
        );
        assert!(!backend.is_deterministic());
    }

    #[test]
    fn calibration_aggregates_per_key() {
        let backend = RealBackend::new(2);
        let task = TaskRequest {
            kind: WorkloadKind::ChessGame,
            payload_bytes: 26 * 1024,
            control_bytes: 610,
            result_bytes: 348,
            compute: Megacycles(1600.0),
            io_bytes: 0,
        };
        let ctx = ComputeCtx {
            kind: task.kind,
            size: SizeClass::Small,
            host: HostClass::LOCALHOST,
            clock_ghz: 2.66,
            cpu_efficiency: 0.995,
            input_seed: 1,
        };
        backend.charge(&ctx, &task);
        backend.charge(&ctx, &task);
        let cal = backend.calibration();
        let key = CalibrationMap::key(task.kind, SizeClass::Small, HostClass::LOCALHOST);
        let entry = cal.entry(&key).expect("aggregated entry");
        assert_eq!(entry.samples, 2);
        assert!(entry.ratio > 0.0);
    }
}
