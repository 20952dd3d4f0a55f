//! Contended shared medium: concurrent transfers fair-share bandwidth.
//!
//! [`Link`] prices each transfer independently — correct while the
//! access point is not the bottleneck (the paper's 5-device LAN).
//! [`SharedLink`] models the regime where it *is*: a cell or AP of
//! fixed aggregate bandwidth on which every in-flight transfer gets a
//! max-min fair share, built directly on
//! [`simkit::FairShareExecutor`] — the identical engine that drives
//! the server CPU and the offloading disk, with work measured in
//! bytes and capacity in bytes/s.
//!
//! Usage mirrors the executor: [`SharedLink::begin_transfer`] to start
//! a flow, [`SharedLink::reschedule`] after every mutation to keep a
//! completion-check event in the queue, [`SharedLink::poll`] from that
//! event's handler to collect finished transfers (stale epochs return
//! `None` and must be ignored).
//!
//! The fault plane hooks in through two extra mutations, both of which
//! require the same follow-up [`SharedLink::reschedule`] as any other
//! mutation (the predicted completion instants go stale):
//! [`SharedLink::interrupt`] kills one in-flight transfer mid-stream
//! and reports the bytes that did *not* make it (partial-progress
//! accounting for resume-style retries), and [`SharedLink::degrade`] /
//! [`SharedLink::restore`] open and close capacity-degradation epochs —
//! bytes moved before the mutation are charged at the old rate.
//!
//! [`Link`]: crate::Link

use crate::scenario::{Direction, NetworkScenario};
use obsv::{attrs, AttrValue, Recorder, Subsystem};
use simkit::{EventQueue, FairShareExecutor, JobId, SimTime};

/// A shared medium of fixed aggregate bandwidth. `T` is the caller's
/// per-transfer payload (request id, flow descriptor, …).
#[derive(Debug)]
pub struct SharedLink<T> {
    exec: FairShareExecutor<T>,
    capacity_bps: f64,
    rec: Recorder,
}

impl<T> SharedLink<T> {
    /// A medium moving `capacity_bps` bytes/s in aggregate; a single
    /// flow is additionally capped at `per_flow_bps` (a device NIC or
    /// modulation limit). Pass `per_flow_bps = capacity_bps` for no
    /// per-flow cap.
    pub fn new(capacity_bps: f64, per_flow_bps: f64) -> Self {
        SharedLink {
            exec: FairShareExecutor::new(capacity_bps, per_flow_bps),
            capacity_bps,
            rec: Recorder::disabled(),
        }
    }

    /// Cancel superseded completion checks out of the driving queue
    /// instead of letting them pop as stale-epoch no-ops (see
    /// [`simkit::FairShareExecutor::eager_check_cancel`] for the
    /// pop-stream caveat — consumers pinned to the historical pop
    /// stream must not enable this).
    pub fn eager_check_cancel(&mut self) {
        self.exec.eager_check_cancel();
    }

    /// Report into `rec`: the inner executor records one span per
    /// transfer (device label `link`), and the link itself records
    /// interrupt / degrade / restore instants under the `netsim`
    /// category.
    pub fn instrument(&mut self, rec: Recorder) {
        self.exec.instrument(rec.clone(), "link");
        self.rec = rec;
    }

    /// A medium with the aggregate bandwidth of `scenario` in the given
    /// direction, flows capped only by the medium itself.
    pub fn for_scenario(scenario: NetworkScenario, direction: Direction) -> Self {
        let params = scenario.params();
        let bps = match direction {
            Direction::Upload => params.upstream_bps,
            Direction::Download => params.downstream_bps,
        };
        Self::new(bps, bps)
    }

    /// Aggregate bandwidth, bytes/s.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// Number of transfers currently in flight.
    pub fn active_transfers(&self) -> usize {
        self.exec.active_jobs()
    }

    /// True when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.exec.is_idle()
    }

    /// Start moving `bytes` across the medium at `now`.
    pub fn begin_transfer(&mut self, now: SimTime, bytes: u64, payload: T) -> JobId {
        self.exec.submit(now, bytes as f64, payload)
    }

    /// Abort an in-flight transfer, returning its payload.
    pub fn cancel(&mut self, now: SimTime, transfer: JobId) -> Option<T> {
        self.exec.cancel(now, transfer)
    }

    /// Interrupt an in-flight transfer at `now` (a link fault cut the
    /// connection mid-stream). Returns the payload together with the
    /// bytes that had **not** yet crossed the medium — the amount a
    /// resume-style retry must still move — or `None` if the transfer
    /// is unknown (already finished or cancelled). Follow up with
    /// [`SharedLink::reschedule`]: the survivors' rates just changed.
    pub fn interrupt(&mut self, now: SimTime, transfer: JobId) -> Option<(T, f64)> {
        let remaining = self.exec.remaining(now, transfer)?;
        let payload = self.exec.cancel(now, transfer)?;
        self.rec.instant_at(
            Subsystem::Netsim,
            "link.interrupt",
            now.as_micros(),
            attrs![
                ("transfer", AttrValue::U64(transfer.0)),
                ("remaining_bytes", AttrValue::F64(remaining)),
            ],
        );
        Some((payload, remaining))
    }

    /// Enter a degradation epoch at `now`: aggregate capacity becomes
    /// `factor` × the constructed capacity (`0 < factor ≤ 1`). Bytes
    /// moved before `now` are charged at the previous rate. Follow up
    /// with [`SharedLink::reschedule`]. Degradation epochs do not
    /// compound — the factor always applies to the constructed
    /// capacity, so overlapping windows should pre-combine their
    /// factors (e.g. take the minimum).
    ///
    /// # Panics
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn degrade(&mut self, now: SimTime, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degradation factor must be in (0, 1]"
        );
        self.exec.set_capacity(now, self.capacity_bps * factor);
        self.rec.instant_at(
            Subsystem::Netsim,
            "link.degrade",
            now.as_micros(),
            attrs![("factor", AttrValue::F64(factor))],
        );
    }

    /// Close the current degradation epoch at `now`, restoring the
    /// constructed aggregate capacity. Follow up with
    /// [`SharedLink::reschedule`].
    pub fn restore(&mut self, now: SimTime) {
        self.exec.set_capacity(now, self.capacity_bps);
        self.rec
            .instant_at(Subsystem::Netsim, "link.restore", now.as_micros(), vec![]);
    }

    /// Re-arm the completion check after any mutation. `make_event`
    /// receives the new epoch; embed it in the scheduled event and hand
    /// it back to [`SharedLink::poll`].
    pub fn reschedule<E, B: Into<E>>(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue<E, B>,
        make_event: impl FnOnce(u64) -> E,
    ) {
        self.exec.reschedule(now, queue, make_event);
    }

    /// Collect transfers finished by `now`. Returns `None` for a stale
    /// epoch (a newer check supersedes this event).
    pub fn poll(&mut self, now: SimTime, epoch: u64) -> Option<Vec<(JobId, T)>> {
        self.exec.poll(now, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a SharedLink event loop to completion, returning
    /// (finish time, payload) per transfer in completion order.
    fn drain(link: &mut SharedLink<u32>, queue: &mut EventQueue<u64>) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some((now, epoch)) = queue.pop() {
            let Some(finished) = link.poll(now, epoch) else {
                continue;
            };
            for (_, payload) in finished {
                out.push((now, payload));
            }
            link.reschedule(now, queue, |e| e);
        }
        out
    }

    #[test]
    fn solo_transfer_moves_at_full_bandwidth() {
        let mut link: SharedLink<u32> = SharedLink::new(1_000_000.0, 1_000_000.0);
        let mut queue = EventQueue::new();
        link.begin_transfer(SimTime::ZERO, 2_000_000, 7);
        link.reschedule(SimTime::ZERO, &mut queue, |e| e);
        let done = drain(&mut link, &mut queue);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, 7);
        // 2 MB over 1 MB/s ≈ 2 s (+ check slack).
        let t = done[0].0.as_secs_f64();
        assert!((t - 2.0).abs() < 1e-3, "finished at {t}");
        assert!(link.is_idle());
    }

    #[test]
    fn concurrent_transfers_halve_each_other() {
        let mut link: SharedLink<u32> = SharedLink::new(1_000_000.0, 1_000_000.0);
        let mut queue = EventQueue::new();
        link.begin_transfer(SimTime::ZERO, 1_000_000, 1);
        link.begin_transfer(SimTime::ZERO, 1_000_000, 2);
        link.reschedule(SimTime::ZERO, &mut queue, |e| e);
        assert_eq!(link.active_transfers(), 2);
        let done = drain(&mut link, &mut queue);
        // Each 1 MB flow gets 0.5 MB/s: both finish together at ≈ 2 s,
        // drained in job order.
        assert_eq!(done.iter().map(|d| d.1).collect::<Vec<_>>(), vec![1, 2]);
        for (t, _) in &done {
            let secs = t.as_secs_f64();
            assert!((secs - 2.0).abs() < 1e-3, "finished at {secs}");
        }
    }

    #[test]
    fn instrumented_link_records_transfers_and_degradations() {
        use obsv::{RecorderConfig, TraceEvent};
        let rec = Recorder::enabled(RecorderConfig::default());
        let mut link: SharedLink<u32> = SharedLink::new(1_000_000.0, 1_000_000.0);
        link.instrument(rec.clone());
        let mut queue = EventQueue::new();
        link.begin_transfer(SimTime::ZERO, 1_000_000, 1);
        let doomed = link.begin_transfer(SimTime::ZERO, 1_000_000, 2);
        link.reschedule(SimTime::ZERO, &mut queue, |e| e);
        let half = SimTime::from_secs_f64(0.5);
        link.degrade(half, 0.5);
        link.interrupt(half, doomed);
        link.reschedule(half, &mut queue, |e| e);
        link.restore(SimTime::from_secs_f64(1.0));
        link.reschedule(SimTime::from_secs_f64(1.0), &mut queue, |e| e);
        drain(&mut link, &mut queue);
        let snap = rec.snapshot();
        let names: Vec<&str> = snap
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Instant { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"link.degrade"), "{names:?}");
        assert!(names.contains(&"link.restore"), "{names:?}");
        assert!(names.contains(&"link.interrupt"), "{names:?}");
        let spans = snap
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Begin { name: "link", .. }))
            .count();
        assert_eq!(spans, 2, "one span per transfer");
    }

    #[test]
    fn per_flow_cap_binds_a_lone_flow() {
        // 10 MB/s medium, flows capped at 1 MB/s (a slow client NIC).
        let mut link: SharedLink<u32> = SharedLink::new(10_000_000.0, 1_000_000.0);
        let mut queue = EventQueue::new();
        link.begin_transfer(SimTime::ZERO, 3_000_000, 9);
        link.reschedule(SimTime::ZERO, &mut queue, |e| e);
        let done = drain(&mut link, &mut queue);
        let t = done[0].0.as_secs_f64();
        assert!((t - 3.0).abs() < 1e-3, "capped flow finished at {t}");
    }

    #[test]
    fn stale_epochs_are_ignored() {
        let mut link: SharedLink<u32> = SharedLink::new(1_000_000.0, 1_000_000.0);
        let mut queue = EventQueue::new();
        link.begin_transfer(SimTime::ZERO, 1_000_000, 1);
        link.reschedule(SimTime::ZERO, &mut queue, |e| e);
        let stale = link.exec.epoch();
        // A second transfer invalidates the first check.
        link.begin_transfer(SimTime::ZERO, 500_000, 2);
        link.reschedule(SimTime::ZERO, &mut queue, |e| e);
        assert_eq!(link.poll(SimTime::from_secs(10), stale), None);
        let done = drain(&mut link, &mut queue);
        assert_eq!(done.len(), 2);
        // The short flow wins despite starting later.
        assert_eq!(done[0].1, 2);
    }

    #[test]
    fn interrupt_reports_bytes_still_owed() {
        let mut link: SharedLink<u32> = SharedLink::new(1_000_000.0, 1_000_000.0);
        let mut queue = EventQueue::new();
        let job = link.begin_transfer(SimTime::ZERO, 2_000_000, 5);
        link.reschedule(SimTime::ZERO, &mut queue, |e| e);
        // Cut the flow halfway: 1 s at 1 MB/s → 1 MB across, 1 MB owed.
        let (payload, owed) = link.interrupt(SimTime::from_secs(1), job).unwrap();
        assert_eq!(payload, 5);
        assert!((owed - 1_000_000.0).abs() < 1.0, "owed {owed}");
        assert!(link.is_idle());
        assert_eq!(
            link.interrupt(SimTime::from_secs(1), job),
            None,
            "double interrupt is a no-op"
        );
    }

    #[test]
    fn interrupt_speeds_up_survivors() {
        let mut link: SharedLink<u32> = SharedLink::new(1_000_000.0, 1_000_000.0);
        let mut queue = EventQueue::new();
        let victim = link.begin_transfer(SimTime::ZERO, 4_000_000, 1);
        link.begin_transfer(SimTime::ZERO, 1_500_000, 2);
        link.reschedule(SimTime::ZERO, &mut queue, |e| e);
        // At t=1 each flow moved 0.5 MB. Kill the victim; the survivor
        // owes 1 MB at full rate → finishes at t=2.
        link.interrupt(SimTime::from_secs(1), victim).unwrap();
        link.reschedule(SimTime::from_secs(1), &mut queue, |e| e);
        let done = drain(&mut link, &mut queue);
        assert_eq!(done.iter().map(|d| d.1).collect::<Vec<_>>(), vec![2]);
        let t = done[0].0.as_secs_f64();
        assert!((t - 2.0).abs() < 1e-3, "survivor finished at {t}");
    }

    #[test]
    fn degradation_epoch_stretches_in_flight_transfers() {
        let mut link: SharedLink<u32> = SharedLink::new(1_000_000.0, 1_000_000.0);
        let mut queue = EventQueue::new();
        link.begin_transfer(SimTime::ZERO, 2_000_000, 3);
        link.reschedule(SimTime::ZERO, &mut queue, |e| e);
        // At t=1, 1 MB across. Halve the link: the remaining 1 MB takes
        // 2 s → finishes at t=3.
        link.degrade(SimTime::from_secs(1), 0.5);
        link.reschedule(SimTime::from_secs(1), &mut queue, |e| e);
        let done = drain(&mut link, &mut queue);
        let t = done[0].0.as_secs_f64();
        assert!((t - 3.0).abs() < 1e-3, "degraded flow finished at {t}");
    }

    #[test]
    fn restore_closes_the_degradation_epoch() {
        let mut link: SharedLink<u32> = SharedLink::new(1_000_000.0, 1_000_000.0);
        let mut queue = EventQueue::new();
        link.begin_transfer(SimTime::ZERO, 3_000_000, 4);
        link.reschedule(SimTime::ZERO, &mut queue, |e| e);
        // [1 s, 2 s) at quarter rate: 1 MB + 0.25 MB across by t=2, the
        // remaining 1.75 MB at full rate → finishes at t=3.75.
        link.degrade(SimTime::from_secs(1), 0.25);
        link.reschedule(SimTime::from_secs(1), &mut queue, |e| e);
        link.restore(SimTime::from_secs(2));
        link.reschedule(SimTime::from_secs(2), &mut queue, |e| e);
        let done = drain(&mut link, &mut queue);
        let t = done[0].0.as_secs_f64();
        assert!((t - 3.75).abs() < 1e-3, "restored flow finished at {t}");
    }

    #[test]
    fn scenario_construction_uses_published_bandwidths() {
        let up = SharedLink::<u32>::for_scenario(NetworkScenario::ThreeG, Direction::Upload);
        // §VI-A: 0.38 Mbps upstream 3G.
        assert!((up.capacity_bps() - 0.38e6 / 8.0).abs() / up.capacity_bps() < 0.05);
    }
}
