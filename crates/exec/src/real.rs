//! The real kernel executor: offloaded jobs actually run.
//!
//! [`RealBackend`] owns a bounded worker thread pool. A kernel cell is
//! shipped to a worker, executed for real, and its output comes back
//! with the measured wall time. The serve path and the drift sweep
//! run kernels on it; no simulation charges these wall times. Kernel
//! *outputs* are deterministic and pinned by `tests/kernel_goldens.rs`.

use crate::workset::{execute_kernel, KernelOutput, SizeClass};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;
use workloads::WorkloadKind;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A bounded worker pool executing kernel jobs.
///
/// `std::sync::mpsc` receivers are single-consumer, so the receiving
/// end sits behind a mutex and idle workers race to pull the next job
/// — a classic shared-queue pool with no extra dependencies. A job
/// that panics unwinds only itself: its worker lives on to take the
/// next one.
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
                            // The job's state dies with it; the worker
                            // holds none across jobs.
                            Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
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

/// The real kernel executor: a bounded pool of worker threads.
#[derive(Debug)]
pub struct RealBackend {
    pool: Pool,
}

impl RealBackend {
    /// Pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> RealBackend {
        RealBackend {
            pool: Pool::new(workers),
        }
    }

    /// Execute one kernel cell on the pool and wait for its output and
    /// wall time (microseconds). Panics if the kernel panicked; the
    /// worker that ran it keeps serving.
    pub fn execute(&self, kind: WorkloadKind, size: SizeClass, seed: u64) -> (KernelOutput, u64) {
        let (tx, rx) = mpsc::channel();
        self.pool.submit(Box::new(move || {
            let start = Instant::now();
            let out = execute_kernel(kind, size, seed);
            let wall = start.elapsed().as_micros() as u64;
            let _ = tx.send((out, wall));
        }));
        rx.recv().expect("the kernel panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_executes_the_requested_kernel() {
        let backend = RealBackend::new(2);
        let (out, _wall) = backend.execute(WorkloadKind::Linpack, SizeClass::Small, 5);
        assert_eq!(
            out,
            execute_kernel(WorkloadKind::Linpack, SizeClass::Small, 5)
        );
    }

    #[test]
    fn a_panicking_job_leaves_its_worker_serving() {
        let backend = RealBackend::new(1);
        backend
            .pool
            .submit(Box::new(|| panic!("planted kernel panic")));
        let (out, _wall) = backend.execute(WorkloadKind::VirusScan, SizeClass::Small, 8);
        assert_eq!(
            out,
            execute_kernel(WorkloadKind::VirusScan, SizeClass::Small, 8)
        );
    }
}
