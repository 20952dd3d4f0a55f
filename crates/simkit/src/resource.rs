//! Shared-resource models.
//!
//! Two contention models cover everything the Rattrap simulation needs:
//!
//! * [`FairShareResource`] — max–min fair sharing of a divisible capacity
//!   among concurrent jobs, each individually rate-capped. Models a
//!   multi-core CPU under processor sharing (capacity = total cores,
//!   per-job cap = 1 core) and a disk or network link under bandwidth
//!   sharing (capacity = device bandwidth, per-job cap = stream limit).
//! * [`MemoryPool`] — simple reserve/release accounting with a peak-usage
//!   watermark, used for container/VM memory footprints (Table I).
//!
//! The fair-share model is *exact* for homogeneous per-job caps: between
//! mutations, every active job progresses at
//! `min(per_job_cap, capacity / n)` units per second. Callers drive the
//! model from an event loop: mutate, then ask [`FairShareResource::next_completion`]
//! and schedule that instant; on any later mutation the previously
//! scheduled completion must be re-validated (the canonical pattern is to
//! re-query after every event).

use crate::time::{SimDuration, SimTime};

/// Identifier of a job executing on a [`FairShareResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// One active job: remaining work in units, and whatever the caller
/// wants back when it leaves.
#[derive(Debug, Clone)]
pub(crate) struct Job<T> {
    pub(crate) id: u64,
    pub(crate) remaining: f64,
    pub(crate) payload: T,
}

/// A divisible capacity shared max–min fairly between jobs. `T` is a
/// per-job payload ([`FairShareExecutor`](crate::FairShareExecutor)
/// keeps the caller's there); a bare resource carries `()`.
#[derive(Debug, Clone)]
pub struct FairShareResource<T> {
    /// Total capacity in units/second (e.g. core-seconds/s, bytes/s).
    capacity: f64,
    /// Upper bound on any single job's rate (units/second).
    per_job_cap: f64,
    /// The job table. Ids are handed out in increasing order and new
    /// jobs are pushed at the back, so the table is always in id order
    /// — the order every walk (progress, completion scan, tie-break)
    /// visits jobs in.
    pub(crate) jobs: Vec<Job<T>>,
    next_id: u64,
    last_update: SimTime,
    /// Total units of work completed since construction.
    completed_work: f64,
}

impl<T> FairShareResource<T> {
    /// Create a resource with `capacity` units/s shared among jobs capped
    /// at `per_job_cap` units/s each.
    ///
    /// # Panics
    /// Panics if either argument is not strictly positive and finite.
    pub fn new(capacity: f64, per_job_cap: f64) -> Self {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "capacity must be positive"
        );
        assert!(
            per_job_cap > 0.0 && per_job_cap.is_finite(),
            "per-job cap must be positive"
        );
        FairShareResource {
            capacity,
            per_job_cap,
            jobs: Vec::new(),
            next_id: 0,
            last_update: SimTime::ZERO,
            completed_work: 0.0,
        }
    }

    /// Total capacity, in units/second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Change the total capacity (degradation/restoration epochs).
    /// Callers must [`advance_to`](Self::advance_to) the mutation
    /// instant *first* so work already done is charged at the old rate,
    /// and must re-validate any scheduled completion afterwards.
    ///
    /// # Panics
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn set_capacity(&mut self, capacity: f64) {
        assert!(
            capacity > 0.0 && capacity.is_finite(),
            "capacity must be positive"
        );
        self.capacity = capacity;
    }

    /// Number of currently active jobs.
    pub fn active_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Rate each active job currently receives (units/second).
    fn per_job_rate(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.per_job_cap.min(self.capacity / self.jobs.len() as f64)
        }
    }

    /// Fraction of the total capacity currently in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            (self.per_job_rate() * self.jobs.len() as f64 / self.capacity).min(1.0)
        }
    }

    /// Total units of work completed so far (across removed and active jobs).
    pub fn completed_work(&self) -> f64 {
        self.completed_work
    }

    /// Advance internal bookkeeping to `now`, consuming work on all
    /// active jobs. Must be called with a monotonically non-decreasing
    /// clock; calls with `now < last_update` are ignored.
    pub fn advance_to(&mut self, now: SimTime) {
        if now <= self.last_update {
            return;
        }
        let dt = (now - self.last_update).as_secs_f64();
        let rate = self.per_job_rate();
        if rate > 0.0 {
            for job in &mut self.jobs {
                let done = (rate * dt).min(job.remaining);
                job.remaining -= done;
                self.completed_work += done;
            }
        }
        self.last_update = now;
    }

    /// Add a job with `work` units at time `now`, carrying `payload`.
    /// Returns its id.
    ///
    /// # Panics
    /// Panics if `work` is negative or non-finite.
    pub fn add_job(&mut self, now: SimTime, work: f64, payload: T) -> JobId {
        assert!(work >= 0.0 && work.is_finite(), "work must be non-negative");
        self.advance_to(now);
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.push(Job {
            id,
            remaining: work,
            payload,
        });
        JobId(id)
    }

    fn position(&self, job: JobId) -> Option<usize> {
        self.jobs.binary_search_by_key(&job.0, |j| j.id).ok()
    }

    /// Remaining work for `job`, or `None` if unknown/finished-and-removed.
    pub fn remaining(&self, job: JobId) -> Option<f64> {
        self.position(job).map(|i| self.jobs[i].remaining)
    }

    /// Remove a job (completed or aborted) at time `now`. Returns the
    /// work that was still outstanding and the job's payload, or `None`
    /// if the id is unknown.
    pub fn remove_job(&mut self, now: SimTime, job: JobId) -> Option<(f64, T)> {
        self.advance_to(now);
        let job = self.jobs.remove(self.position(job)?);
        Some((job.remaining, job.payload))
    }

    /// The earliest instant at which some active job finishes, assuming
    /// no further mutations, along with that job's id. Jobs that are
    /// already at zero remaining work complete "now".
    ///
    /// Ties resolve to the lowest job id, keeping the simulation
    /// deterministic.
    pub fn next_completion(&self) -> Option<(SimTime, JobId)> {
        let rate = self.per_job_rate();
        if rate <= 0.0 {
            return None;
        }
        let first = self.jobs.iter().min_by(|a, b| {
            a.remaining
                .partial_cmp(&b.remaining)
                .expect("work is finite")
                .then(a.id.cmp(&b.id))
        })?;
        let dt = SimDuration::from_secs_f64(first.remaining / rate);
        Some((self.last_update.saturating_add(dt), JobId(first.id)))
    }
}

/// Reserve/release memory accounting with a peak watermark.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    capacity: u64,
    used: u64,
    peak: u64,
}

/// Error returned when a reservation exceeds the pool capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested by the failed reservation.
    pub requested: u64,
    /// Bytes that were still available.
    pub available: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

impl MemoryPool {
    /// A pool holding `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryPool {
            capacity,
            used: 0,
            peak: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// High-water mark of reserved bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Reserve `bytes`, failing if the pool would overflow.
    pub fn reserve(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        if bytes > self.available() {
            return Err(OutOfMemory {
                requested: bytes,
                available: self.available(),
            });
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    /// Release `bytes`. Releasing more than is reserved is a logic error;
    /// the pool saturates at zero and debug builds panic.
    pub fn release(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.used, "released more than reserved");
        self.used = self.used.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_job_runs_at_cap() {
        // 12-core machine, job capped at 1 core, 2 core-seconds of work.
        let mut cpu = FairShareResource::new(12.0, 1.0);
        let j = cpu.add_job(SimTime::ZERO, 2.0, ());
        let (done, id) = cpu.next_completion().unwrap();
        assert_eq!(id, j);
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn jobs_share_when_oversubscribed() {
        // 2 units/s capacity, cap 2/s each, two jobs of 2 units → each
        // gets 1 unit/s → both finish at t=2.
        let mut r = FairShareResource::new(2.0, 2.0);
        r.add_job(SimTime::ZERO, 2.0, ());
        r.add_job(SimTime::ZERO, 2.0, ());
        let (done, _) = r.next_completion().unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let mut r = FairShareResource::new(1.0, 1.0);
        let a = r.add_job(SimTime::ZERO, 1.0, ());
        let b = r.add_job(SimTime::ZERO, 3.0, ());
        // Both run at 0.5/s. a finishes at t=2.
        let (ta, ja) = r.next_completion().unwrap();
        assert_eq!(ja, a);
        assert!((ta.as_secs_f64() - 2.0).abs() < 1e-6);
        r.remove_job(ta, a);
        // b has 2.0 left and now runs at 1/s → finishes at t=4.
        let (tb, jb) = r.next_completion().unwrap();
        assert_eq!(jb, b);
        assert!((tb.as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn utilization_tracks_active_jobs() {
        let mut cpu = FairShareResource::new(4.0, 1.0);
        assert_eq!(cpu.utilization(), 0.0);
        cpu.add_job(SimTime::ZERO, 10.0, ());
        assert!((cpu.utilization() - 0.25).abs() < 1e-9);
        for _ in 0..7 {
            cpu.add_job(SimTime::ZERO, 10.0, ());
        }
        // 8 jobs on 4 cores: saturated.
        assert!((cpu.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn completed_work_accumulates() {
        let mut r = FairShareResource::new(1.0, 1.0);
        let j = r.add_job(SimTime::ZERO, 5.0, ());
        r.advance_to(t(2.0));
        assert!((r.completed_work() - 2.0).abs() < 1e-9);
        assert!((r.remaining(j).unwrap() - 3.0).abs() < 1e-9);
        r.remove_job(t(5.0), j);
        assert!((r.completed_work() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn advance_ignores_time_travel() {
        let mut r = FairShareResource::new(1.0, 1.0);
        let j = r.add_job(t(5.0), 10.0, ());
        r.advance_to(t(1.0)); // earlier than last update; ignored
        assert!((r.remaining(j).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_job_completes_immediately() {
        let mut r = FairShareResource::new(1.0, 1.0);
        let j = r.add_job(t(3.0), 0.0, ());
        let (done, id) = r.next_completion().unwrap();
        assert_eq!(id, j);
        assert_eq!(done, t(3.0));
    }

    #[test]
    fn completion_ties_break_by_lowest_id() {
        let mut r = FairShareResource::new(2.0, 1.0);
        let a = r.add_job(SimTime::ZERO, 1.0, ());
        let _b = r.add_job(SimTime::ZERO, 1.0, ());
        assert_eq!(r.next_completion().unwrap().1, a);
    }

    #[test]
    fn memory_pool_accounting() {
        let mut m = MemoryPool::new(1024);
        m.reserve(512).unwrap();
        m.reserve(256).unwrap();
        assert_eq!(m.used(), 768);
        assert_eq!(m.peak(), 768);
        m.release(512);
        assert_eq!(m.used(), 256);
        assert_eq!(m.peak(), 768, "peak is a watermark");
        let err = m.reserve(10_000).unwrap_err();
        assert_eq!(err.available, 768);
        assert_eq!(m.used(), 256, "failed reserve leaves pool untouched");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        FairShareResource::<()>::new(0.0, 1.0);
    }
}
