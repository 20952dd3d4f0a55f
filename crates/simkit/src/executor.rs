//! Generic fair-share execution engine.
//!
//! Every contended device in the workspace — server CPU, offloading
//! disk, device-side CPU, shared network links — follows the same
//! event-loop pattern on top of [`FairShareResource`]: submit work,
//! schedule a completion check at the predicted next-finish instant,
//! and invalidate stale checks whenever the job set mutates (a
//! mutation changes every job's rate, so previously predicted finish
//! times are wrong). [`FairShareExecutor`] owns that pattern once:
//!
//! * it keeps caller payloads in the resource's id-ordered job table,
//! * [`FairShareExecutor::reschedule`] bumps the *epoch* and schedules
//!   the next completion-check event into the caller's [`EventQueue`],
//! * [`FairShareExecutor::poll_with`] rejects checks carrying a stale
//!   epoch and otherwise drains every finished job (remaining work ≤
//!   [`WORK_EPS`]) in ascending job-id order, without allocating.
//!
//! The caller stays in charge of its own event type: `reschedule`
//! takes a constructor closure from the fresh epoch to an event, so an
//! executor embeds in any simulation without dynamic dispatch.

use crate::event::{EventId, EventQueue};
use crate::resource::{FairShareResource, JobId};
use crate::time::{SimDuration, SimTime};
use obsv::{attrs, AttrValue, Counter, Recorder, SpanId, Subsystem};

/// Work remaining at or below this is "done" (float slack on
/// resources). Shared by every executor-driven device so completion
/// semantics never drift between them.
pub const WORK_EPS: f64 = 1e-9;

/// Completion instants round to the microsecond grid; scheduling a
/// hair early would find the job with a sliver of work left and spin.
const CHECK_SLACK: SimDuration = SimDuration::from_micros(2);

/// Observability hooks for an instrumented executor: one span per
/// job (opened at submit, closed at completion/cancellation, parented
/// under the recorder's ambient span) plus epoch counters. Purely
/// observational — never feeds back into scheduling.
#[derive(Debug, Clone)]
struct ExecObs {
    rec: Recorder,
    device: &'static str,
    reschedules: Counter,
    stale_polls: Counter,
    completions: Counter,
}

/// A fair-shared device plus the epoch bookkeeping needed to drive it
/// from a discrete-event loop. `T` is the caller's per-job payload
/// (typically a request index), returned on completion.
#[derive(Debug, Clone)]
pub struct FairShareExecutor<T> {
    /// Each job carries the caller's payload and its span
    /// ([`SpanId::NONE`], which ends as a no-op, when not instrumented).
    resource: FairShareResource<(T, SpanId)>,
    epoch: u64,
    /// Handle of the outstanding completion-check event, cancelled on
    /// the next [`FairShareExecutor::reschedule`] (when
    /// [`FairShareExecutor::eager_check_cancel`] is on) so superseded
    /// checks never surface from the queue. The epoch stamp stays as
    /// defense in depth either way.
    pending: Option<EventId>,
    /// Cancel superseded checks eagerly instead of letting them pop as
    /// stale-epoch no-ops. Off by default: consumers whose golden
    /// digests pin the historical pop stream (the rattrap host closes
    /// a float-accumulating sampler interval at *every* pop, so even
    /// semantically-neutral pop removal is bit-visible) must keep the
    /// legacy stream.
    eager_cancel: bool,
    obs: Option<ExecObs>,
}

impl<T> FairShareExecutor<T> {
    /// An executor over a fresh device with `capacity` units/s shared
    /// among jobs individually capped at `per_job_cap` units/s.
    ///
    /// # Panics
    /// Panics if either argument is not strictly positive and finite
    /// (see [`FairShareResource::new`]).
    pub fn new(capacity: f64, per_job_cap: f64) -> Self {
        FairShareExecutor {
            resource: FairShareResource::new(capacity, per_job_cap),
            epoch: 0,
            pending: None,
            eager_cancel: false,
            obs: None,
        }
    }

    /// Report into `rec` as device `device` ("cpu", "disk", …): one
    /// span per job plus reschedule / stale-poll / completion
    /// counters. A disabled recorder keeps the executor on its
    /// zero-cost path.
    pub fn instrument(&mut self, rec: Recorder, device: &'static str) {
        if !rec.is_enabled() {
            self.obs = None;
            return;
        }
        let counter = |suffix: &str| rec.counter(&format!("simkit.{device}.{suffix}"));
        self.obs = Some(ExecObs {
            reschedules: counter("reschedules"),
            stale_polls: counter("stale_polls"),
            completions: counter("completions"),
            rec,
            device,
        });
    }

    /// Cancel superseded completion checks out of the queue instead of
    /// letting them surface as stale-epoch no-op pops. O(1) per
    /// reschedule (the queue empties the event's slab node in place)
    /// and semantically neutral — stale checks are rejected by the
    /// epoch guard either way — but it *changes the pop stream*, so
    /// consumers that derive
    /// order-sensitive float accumulations from raw pops (the rattrap
    /// host's per-pop sampler, pinned by the golden digests) must not
    /// enable it. The same `queue` must then drive the executor for
    /// its whole lifetime (every caller in the workspace already
    /// does); generation-tagged [`EventId`]s make a mismatched cancel
    /// a harmless miss rather than an aliased cancellation.
    pub fn eager_check_cancel(&mut self) {
        self.eager_cancel = true;
    }

    /// Number of jobs currently executing.
    pub fn active_jobs(&self) -> usize {
        self.resource.active_jobs()
    }

    /// `true` when no job is executing.
    pub fn is_idle(&self) -> bool {
        self.active_jobs() == 0
    }

    /// Current scheduling epoch (advances on every [`reschedule`]).
    ///
    /// [`reschedule`]: FairShareExecutor::reschedule
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Submit `work` units at `now`, tagged with `payload`. The caller
    /// must follow up with [`reschedule`] (after any batch of
    /// submissions) so a completion check covers the new job.
    ///
    /// [`reschedule`]: FairShareExecutor::reschedule
    pub fn submit(&mut self, now: SimTime, work: f64, payload: T) -> JobId {
        let job = self.resource.add_job(now, work, (payload, SpanId::NONE));
        if let Some(obs) = &self.obs {
            let span = obs.rec.span_start_at(
                Subsystem::Simkit,
                obs.device,
                SpanId::NONE,
                now.as_micros(),
                attrs![
                    ("job", AttrValue::U64(job.0)),
                    ("work", AttrValue::F64(work)),
                ],
            );
            self.resource.jobs.last_mut().expect("just added").payload.1 = span;
        }
        job
    }

    /// Abort a job, returning its payload (or `None` if unknown).
    pub fn cancel(&mut self, now: SimTime, job: JobId) -> Option<T> {
        let (_, (payload, span)) = self.resource.remove_job(now, job)?;
        if let Some(obs) = &self.obs {
            obs.rec.span_end_at(
                span,
                now.as_micros(),
                attrs![("cancelled", AttrValue::Bool(true))],
            );
        }
        Some(payload)
    }

    /// Work still outstanding on `job` as of `now` (advances the
    /// device first so the answer reflects progress up to `now`), or
    /// `None` if the job is unknown. The caller must follow up with
    /// [`reschedule`] if it mutates the job set based on the answer.
    ///
    /// [`reschedule`]: FairShareExecutor::reschedule
    pub fn remaining(&mut self, now: SimTime, job: JobId) -> Option<f64> {
        self.resource.advance_to(now);
        self.resource.remaining(job)
    }

    /// Change the device capacity at `now` (degradation/restoration
    /// epochs): work done so far is charged at the old rate, then the
    /// new rate applies. The caller must follow up with [`reschedule`]
    /// — the predicted completion instants are all stale.
    ///
    /// # Panics
    /// Panics if `capacity` is not strictly positive and finite.
    ///
    /// [`reschedule`]: FairShareExecutor::reschedule
    pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
        self.resource.advance_to(now);
        self.resource.set_capacity(capacity);
        if let Some(obs) = &self.obs {
            obs.rec.instant_at(
                Subsystem::Simkit,
                "set_capacity",
                now.as_micros(),
                attrs![
                    ("device", AttrValue::Str(obs.device)),
                    ("capacity", AttrValue::F64(capacity)),
                ],
            );
        }
    }

    /// Advance the device to `now`, invalidate any outstanding
    /// completion check (cancelling its event *and* bumping the
    /// epoch), and — if jobs remain — schedule a fresh check into
    /// `queue` at the predicted next completion (with grid slack),
    /// built by `make_event` from the new epoch.
    ///
    /// With [`eager_check_cancel`] enabled, the superseded check is
    /// also cancelled out of the queue (O(1): emptied in the slab), so
    /// the executor keeps **at most one** live check event per
    /// device regardless of how often the job set mutates — instead of
    /// a trail of stale-epoch pops.
    ///
    /// [`eager_check_cancel`]: FairShareExecutor::eager_check_cancel
    pub fn reschedule<E, B: Into<E>>(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue<E, B>,
        make_event: impl FnOnce(u64) -> E,
    ) {
        self.resource.advance_to(now);
        self.epoch += 1;
        if let Some(id) = self.pending.take() {
            if self.eager_cancel {
                queue.cancel(id);
            }
        }
        if let Some(obs) = &self.obs {
            obs.reschedules.inc();
        }
        if let Some((t, _)) = self.resource.next_completion() {
            self.pending = Some(queue.schedule(t.max(now) + CHECK_SLACK, make_event(self.epoch)));
        }
    }

    /// Handle a completion-check event stamped with `epoch`.
    ///
    /// Returns `false` for a stale check (a newer [`reschedule`]
    /// superseded it — the event must be ignored). Otherwise advances
    /// the device to `now` and drains every job whose remaining work is
    /// at or below [`WORK_EPS`], in ascending job-id order, handing
    /// each `(id, payload)` to `done`. The caller then calls
    /// [`reschedule`] once to cover the survivors. Allocates nothing.
    ///
    /// [`reschedule`]: FairShareExecutor::reschedule
    pub fn poll_with(&mut self, now: SimTime, epoch: u64, mut done: impl FnMut(JobId, T)) -> bool {
        if epoch != self.epoch {
            if let Some(obs) = &self.obs {
                obs.stale_polls.inc();
            }
            return false;
        }
        // This check just fired; its handle is spent.
        self.pending = None;
        self.resource.advance_to(now);
        let jobs = &mut self.resource.jobs;
        let mut i = 0;
        while i < jobs.len() {
            if jobs[i].remaining > WORK_EPS {
                i += 1;
                continue;
            }
            let job = jobs.remove(i);
            let (payload, span) = job.payload;
            if let Some(obs) = &self.obs {
                obs.completions.inc();
                obs.rec.span_end_at(span, now.as_micros(), Vec::new());
            }
            done(JobId(job.id), payload);
        }
        true
    }

    /// [`poll_with`](Self::poll_with), collected — for callers that need
    /// their whole `self` while handling completions. `None` when stale.
    pub fn poll(&mut self, now: SimTime, epoch: u64) -> Option<Vec<(JobId, T)>> {
        let mut out = Vec::new();
        self.poll_with(now, epoch, |job, payload| out.push((job, payload)))
            .then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Ev {
        Check(u64),
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// Drive an executor through its queue until idle; returns
    /// completions as (finish time, payload).
    fn drain(exec: &mut FairShareExecutor<u32>, queue: &mut EventQueue<Ev>) -> Vec<(SimTime, u32)> {
        let mut done = Vec::new();
        while let Some((now, Ev::Check(epoch))) = queue.pop() {
            let Some(finished) = exec.poll(now, epoch) else {
                continue;
            };
            for (_, payload) in finished {
                done.push((now, payload));
            }
            exec.reschedule(now, queue, Ev::Check);
        }
        done
    }

    #[test]
    fn single_job_completes_at_predicted_instant() {
        let mut exec = FairShareExecutor::new(1.0, 1.0);
        let mut queue = EventQueue::new();
        exec.submit(SimTime::ZERO, 3.0, 7u32);
        exec.reschedule(SimTime::ZERO, &mut queue, Ev::Check);
        let done = drain(&mut exec, &mut queue);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, 7);
        assert!((done[0].0.as_secs_f64() - 3.0).abs() < 1e-3);
        assert!(exec.is_idle());
    }

    #[test]
    fn stale_epoch_is_rejected() {
        let mut exec = FairShareExecutor::new(1.0, 1.0);
        let mut queue: EventQueue<Ev> = EventQueue::new();
        exec.submit(SimTime::ZERO, 5.0, 1u32);
        exec.reschedule(SimTime::ZERO, &mut queue, Ev::Check);
        let stale = exec.epoch();
        // A later submission invalidates the outstanding check.
        exec.submit(t(1.0), 5.0, 2u32);
        exec.reschedule(t(1.0), &mut queue, Ev::Check);
        assert_eq!(
            exec.poll(t(2.0), stale),
            None,
            "stale check must be ignored"
        );
        assert_eq!(exec.active_jobs(), 2, "stale poll must not drain jobs");
    }

    #[test]
    fn contending_jobs_fair_share_and_finish_in_work_order() {
        let mut exec = FairShareExecutor::new(1.0, 1.0);
        let mut queue = EventQueue::new();
        // Two jobs from t=0: 1 unit and 3 units at 0.5/s each.
        exec.submit(SimTime::ZERO, 1.0, 10u32);
        exec.submit(SimTime::ZERO, 3.0, 30u32);
        exec.reschedule(SimTime::ZERO, &mut queue, Ev::Check);
        let done = drain(&mut exec, &mut queue);
        assert_eq!(
            done.iter().map(|&(_, p)| p).collect::<Vec<_>>(),
            vec![10, 30]
        );
        // 1-unit job: shared until t=2. 3-unit job: 2 left at t=2, alone → t=4.
        assert!((done[0].0.as_secs_f64() - 2.0).abs() < 1e-3);
        assert!((done[1].0.as_secs_f64() - 4.0).abs() < 1e-3);
    }

    #[test]
    fn simultaneous_completions_drain_in_job_id_order() {
        let mut exec = FairShareExecutor::new(2.0, 1.0);
        let mut queue = EventQueue::new();
        exec.submit(SimTime::ZERO, 1.0, 100u32);
        exec.submit(SimTime::ZERO, 1.0, 200u32);
        exec.reschedule(SimTime::ZERO, &mut queue, Ev::Check);
        let done = drain(&mut exec, &mut queue);
        assert_eq!(
            done.iter().map(|&(_, p)| p).collect::<Vec<_>>(),
            vec![100, 200]
        );
        assert_eq!(done[0].0, done[1].0, "both finish at the same instant");
    }

    #[test]
    fn cancel_removes_job_and_returns_payload() {
        let mut exec = FairShareExecutor::new(1.0, 1.0);
        let job = exec.submit(SimTime::ZERO, 5.0, 9u32);
        assert_eq!(exec.cancel(t(1.0), job), Some(9));
        assert_eq!(exec.cancel(t(1.0), job), None);
        assert!(exec.is_idle());
    }

    #[test]
    fn instrumented_executor_records_job_spans_and_counters() {
        use obsv::{Recorder, RecorderConfig, TraceEvent};
        let rec = Recorder::enabled(RecorderConfig::default());
        let mut exec = FairShareExecutor::new(1.0, 1.0);
        exec.instrument(rec.clone(), "cpu");
        let mut queue = EventQueue::new();
        exec.submit(SimTime::ZERO, 2.0, 1u32);
        let doomed = exec.submit(SimTime::ZERO, 9.0, 2u32);
        exec.reschedule(SimTime::ZERO, &mut queue, Ev::Check);
        exec.cancel(t(1.0), doomed);
        exec.reschedule(t(1.0), &mut queue, Ev::Check);
        drain(&mut exec, &mut queue);
        let snap = rec.snapshot();
        let begins = snap
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Begin { name: "cpu", .. }))
            .count();
        let ends = snap
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::End { .. }))
            .count();
        assert_eq!(begins, 2, "one span per submitted job");
        assert_eq!(ends, 2, "cancelled + completed both close");
        assert_eq!(snap.counters["simkit.cpu.completions"], 1);
        assert!(snap.counters["simkit.cpu.reschedules"] >= 2);
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::End { attrs, .. } if !attrs.is_empty())));
    }

    #[test]
    fn instrumentation_does_not_change_completion_times() {
        let run = |instrument: bool| {
            let mut exec = FairShareExecutor::new(1.0, 1.0);
            if instrument {
                exec.instrument(
                    obsv::Recorder::enabled(obsv::RecorderConfig::default()),
                    "cpu",
                );
            }
            let mut queue = EventQueue::new();
            exec.submit(SimTime::ZERO, 1.0, 10u32);
            exec.submit(SimTime::ZERO, 3.0, 30u32);
            exec.reschedule(SimTime::ZERO, &mut queue, Ev::Check);
            drain(&mut exec, &mut queue)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn reschedule_keeps_at_most_one_check_resident() {
        let mut exec = FairShareExecutor::new(1.0, 1.0);
        exec.eager_check_cancel();
        let mut queue: EventQueue<Ev> = EventQueue::new();
        exec.submit(SimTime::ZERO, 100.0, 1u32);
        // A mutation-heavy pattern: every submit triggers a reschedule,
        // which previously left the superseded check behind as a
        // stale-epoch event. Now it is cancelled eagerly.
        for i in 0..50 {
            exec.submit(t(0.001 * f64::from(i)), 100.0, i as u32);
            exec.reschedule(t(0.001 * f64::from(i)), &mut queue, Ev::Check);
            assert_eq!(queue.len(), 1, "exactly one completion check resident");
        }
        // And the surviving check is the live one: draining completes
        // every job without a single stale pop.
        let done = drain(&mut exec, &mut queue);
        assert_eq!(done.len(), 51);
        assert!(exec.is_idle());
        assert!(queue.is_empty());
    }

    #[test]
    fn no_check_scheduled_when_idle() {
        let mut exec: FairShareExecutor<u32> = FairShareExecutor::new(1.0, 1.0);
        let mut queue: EventQueue<Ev> = EventQueue::new();
        exec.reschedule(SimTime::ZERO, &mut queue, Ev::Check);
        assert!(queue.is_empty(), "idle executor schedules nothing");
    }
}
