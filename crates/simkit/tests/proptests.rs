//! Property-based tests for simkit invariants.

use proptest::prelude::*;
use simkit::{
    Cdf, EventQueue, FairShareExecutor, FairShareResource, OnlineStats, SimDuration, SimTime,
};

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// scheduling order.
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Equal-time events pop in scheduling (FIFO) order.
    #[test]
    fn event_queue_fifo_on_ties(n in 1usize..100, t in 0u64..1000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_micros(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn event_queue_cancellation(spec in prop::collection::vec((0u64..1000, any::<bool>()), 1..100)) {
        let mut q = EventQueue::new();
        let mut expect = 0usize;
        let mut to_cancel = Vec::new();
        for &(t, cancel) in &spec {
            let id = q.schedule(SimTime::from_micros(t), ());
            if cancel {
                to_cancel.push(id);
            } else {
                expect += 1;
            }
        }
        for id in to_cancel {
            prop_assert!(q.cancel(id));
        }
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, expect);
    }

    /// Work is conserved on a fair-share resource: total completed work
    /// after all jobs drain equals the sum of submitted work.
    #[test]
    fn fair_share_conserves_work(
        jobs in prop::collection::vec((0.0f64..50.0, 0u64..10_000), 1..40),
        capacity in 0.5f64..16.0,
    ) {
        let mut r = FairShareResource::new(capacity, 1.0);
        let mut q = EventQueue::new();
        let mut submitted = 0.0;
        for &(work, at_us) in &jobs {
            q.schedule(SimTime::from_micros(at_us), work);
        }
        // Drive arrivals, then drain completions interleaved.
        let mut active = 0usize;
        loop {
            let next_arrival = q.peek_time();
            let next_done = r.next_completion();
            match (next_arrival, next_done) {
                (Some(ta), Some((td, jid))) if td <= ta => {
                    r.remove_job(td, jid);
                    active -= 1;
                }
                (Some(_), _) => {
                    let (t, work) = q.pop().unwrap();
                    submitted += work;
                    r.add_job(t, work, ());
                    active += 1;
                }
                (None, Some((td, jid))) => {
                    r.remove_job(td, jid);
                    active -= 1;
                }
                (None, None) => break,
            }
        }
        prop_assert_eq!(active, 0);
        prop_assert!((r.completed_work() - submitted).abs() < 1e-6 * submitted.max(1.0),
            "completed {} vs submitted {}", r.completed_work(), submitted);
    }

    /// OnlineStats::merge is equivalent to pushing sequentially, for any
    /// split point.
    #[test]
    fn stats_merge_associative(data in prop::collection::vec(-1e6f64..1e6, 2..200), split_frac in 0.0f64..1.0) {
        let split = ((data.len() as f64 * split_frac) as usize).min(data.len());
        let mut whole = OnlineStats::new();
        data.iter().for_each(|&x| whole.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        data[..split].iter().for_each(|&x| a.push(x));
        data[split..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * whole.mean().abs().max(1.0));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-4 * whole.variance().abs().max(1.0));
    }

    /// CDF invariants: monotone, bounded, quantile within sample range.
    #[test]
    fn cdf_invariants(data in prop::collection::vec(-1e3f64..1e3, 1..300), q in 0.0f64..1.0) {
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let cdf = Cdf::from_samples(data);
        prop_assert_eq!(cdf.fraction_le(hi), 1.0);
        prop_assert_eq!(cdf.fraction_le(lo - 1.0), 0.0);
        let quant = cdf.quantile(q).unwrap();
        prop_assert!(quant >= lo && quant <= hi);
        // fraction_le is monotone in its argument.
        prop_assert!(cdf.fraction_le(lo) <= cdf.fraction_le((lo + hi) / 2.0));
        prop_assert!(cdf.fraction_le((lo + hi) / 2.0) <= cdf.fraction_le(hi));
    }

    /// Durations formed from seconds round-trip within 1 µs.
    #[test]
    fn duration_roundtrip(s in 0.0f64..1e6) {
        let d = SimDuration::from_secs_f64(s);
        prop_assert!((d.as_secs_f64() - s).abs() < 1e-6);
    }

    /// N simultaneously submitted jobs on a [`FairShareExecutor`]
    /// complete in work-proportional order: with equal fair shares,
    /// less work always finishes no later, and equal work drains in
    /// job-id order. Works are multiples of 0.01 core-seconds so
    /// distinct works are separated by far more than the executor's
    /// µs-quantized check instants.
    #[test]
    fn executor_completes_in_work_proportional_order(
        centiworks in prop::collection::vec(1u32..1000, 1..40),
        capacity in 0.5f64..8.0,
    ) {
        let mut exec: FairShareExecutor<usize> =
            FairShareExecutor::new(capacity, capacity);
        let mut q: EventQueue<u64> = EventQueue::new();
        let works: Vec<f64> = centiworks.iter().map(|&c| c as f64 / 100.0).collect();
        for (i, &w) in works.iter().enumerate() {
            exec.submit(SimTime::ZERO, w, i);
        }
        exec.reschedule(SimTime::ZERO, &mut q, |e| e);
        let mut completed: Vec<usize> = Vec::new();
        while let Some((now, epoch)) = q.pop() {
            let Some(finished) = exec.poll(now, epoch) else { continue };
            completed.extend(finished.into_iter().map(|(_, i)| i));
            exec.reschedule(now, &mut q, |e| e);
        }
        prop_assert_eq!(completed.len(), works.len(), "every job completes");
        prop_assert!(exec.is_idle());
        // Expected order: ascending (work, submission index).
        let mut expect: Vec<usize> = (0..works.len()).collect();
        expect.sort_by(|&a, &b| {
            works[a].partial_cmp(&works[b]).unwrap().then(a.cmp(&b))
        });
        prop_assert_eq!(completed, expect);
    }

    /// Total work served by a [`FairShareExecutor`] equals total work
    /// submitted within `WORK_EPS` per job, no matter how submissions
    /// interleave with completions.
    #[test]
    fn executor_serves_exactly_what_was_submitted(
        arrivals in prop::collection::vec((0u64..5_000_000, 0.01f64..5.0), 1..60),
        capacity in 0.5f64..4.0,
    ) {
        let mut exec: FairShareExecutor<f64> =
            FairShareExecutor::new(capacity, 1.0);
        #[derive(Clone)]
        enum Ev { Submit(f64), Check(u64) }
        let mut q: EventQueue<Ev> = EventQueue::new();
        let mut submitted = 0.0f64;
        for &(t, w) in &arrivals {
            q.schedule(SimTime::from_micros(t), Ev::Submit(w));
            submitted += w;
        }
        let mut served = 0.0f64;
        let mut completions = 0usize;
        while let Some((now, ev)) = q.pop() {
            match ev {
                Ev::Submit(w) => {
                    exec.submit(now, w, w);
                    exec.reschedule(now, &mut q, Ev::Check);
                }
                Ev::Check(epoch) => {
                    let Some(finished) = exec.poll(now, epoch) else { continue };
                    for (_, w) in finished {
                        served += w;
                        completions += 1;
                    }
                    exec.reschedule(now, &mut q, Ev::Check);
                }
            }
        }
        prop_assert_eq!(completions, arrivals.len(), "all jobs complete");
        prop_assert!(exec.is_idle());
        // Each completed job ran to within WORK_EPS of its work.
        prop_assert!(
            (served - submitted).abs() <= simkit::WORK_EPS * arrivals.len() as f64 + 1e-9,
            "served {} vs submitted {}", served, submitted
        );
    }
}

/// One step of the interleaved queue-vs-model equivalence property.
///
/// Push deltas are split into three bands so shrunken failures say
/// which time scale broke: `Near` is under 16 µs (and includes
/// zero-delta same-timestamp bursts), `Mid` up to a second, and `Far`
/// from a second to 2^45 µs (about a year).
#[derive(Debug, Clone)]
enum QueueOp {
    PushNear(u64),
    PushMid(u64),
    PushFar(u64),
    Pop,
    Cancel(u64),
}

proptest! {
    /// The event queue agrees with a plain sorted reference
    /// model over arbitrary push/pop/cancel interleavings: identical
    /// pop sequences (time *and* payload, so same-timestamp FIFO order
    /// is covered), identical `len` after every step (cancelled events
    /// leave the count immediately), and identical drain at the end.
    #[test]
    fn event_queue_matches_reference_model(
        ops in prop::collection::vec(
            // The vendored `prop_oneof!` is unweighted; duplicate arms
            // stand in for weights (pushes and pops dominate so runs
            // build real backlogs instead of ping-ponging empty).
            prop_oneof![
                (0u64..16).prop_map(QueueOp::PushNear),
                (0u64..16).prop_map(QueueOp::PushNear),
                (16u64..1 << 20).prop_map(QueueOp::PushMid),
                (1u64 << 20..1 << 45).prop_map(QueueOp::PushFar),
                Just(QueueOp::Pop),
                Just(QueueOp::Pop),
                Just(QueueOp::Pop),
                any::<u64>().prop_map(QueueOp::Cancel),
            ],
            1..300,
        )
    ) {
        let mut q = EventQueue::new();
        // Reference: (at, insertion_counter, tag, id). Pop = min by
        // (at, insertion_counter) — the documented FIFO tie contract.
        let mut model: Vec<(u64, u64, u64, simkit::EventId)> = Vec::new();
        let mut counter = 0u64;
        for op in ops {
            match op {
                QueueOp::PushNear(d) | QueueOp::PushMid(d) | QueueOp::PushFar(d) => {
                    let at = q.now().as_micros() + d;
                    let id = q.schedule(SimTime::from_micros(at), counter);
                    model.push((at, counter, counter, id));
                    counter += 1;
                }
                QueueOp::Pop => {
                    let expect = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(at, c, _, _))| (at, c))
                        .map(|(i, _)| i);
                    match expect {
                        Some(i) => {
                            let (at, _, tag, _) = model.remove(i);
                            let got = q.pop();
                            prop_assert_eq!(got, Some((SimTime::from_micros(at), tag)));
                        }
                        None => prop_assert_eq!(q.pop(), None),
                    }
                }
                QueueOp::Cancel(which) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (_, _, _, id) = model.remove(which as usize % model.len());
                    prop_assert!(q.cancel(id), "live event must cancel");
                    prop_assert!(!q.cancel(id), "second cancel is a no-op");
                }
            }
            prop_assert_eq!(q.len(), model.len(), "len counts live events only");
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        // Drain both to the end: full sequence equivalence.
        model.sort_by_key(|&(at, c, _, _)| (at, c));
        for (at, _, tag, _) in model {
            prop_assert_eq!(q.pop(), Some((SimTime::from_micros(at), tag)));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(q.len(), 0);
    }
}

/// `f64::round`-then-cast, the definition the libm-free conversions
/// must reproduce bit for bit.
fn rounded(x: f64) -> u64 {
    x.round() as u64
}

/// All four float constructors at the product `x` (in µs): `mul_f64`
/// on a 1 µs span sees `x` itself, the others see it through their
/// own scaling, and each is held to `round` of exactly what it
/// computes.
fn assert_rounds_like_libm(x: f64) {
    let one = SimDuration::from_micros(1);
    assert_eq!(
        one.mul_f64(x).as_micros(),
        rounded(x.max(0.0)),
        "mul_f64({x:e})"
    );
    let (s, ms) = (x / 1e6, x / 1e3);
    assert_eq!(
        SimDuration::from_secs_f64(s).as_micros(),
        rounded(s.max(0.0) * 1e6),
        "SimDuration::from_secs_f64({s:e})"
    );
    assert_eq!(
        SimTime::from_secs_f64(s).as_micros(),
        rounded(s.max(0.0) * 1e6),
        "SimTime::from_secs_f64({s:e})"
    );
    assert_eq!(
        SimDuration::from_millis_f64(ms).as_micros(),
        rounded(ms.max(0.0) * 1e3),
        "from_millis_f64({ms:e})"
    );
}

#[test]
fn float_conversions_round_like_libm_at_the_edges() {
    let two52 = (1u64 << 52) as f64;
    let edges = [
        0.0,
        -0.0,
        0.25,
        0.49999999999999994, // largest double below one half: rounds down
        0.5,
        0.5000000000000001,
        1.5,
        2.5,
        1e6 - 0.5,
        two52 - 0.5,
        two52 + 0.5, // not representable: the literal already is 2^52 (+1)
        two52 * 2.0, // 2^53
        two52 * 2.0 + 2.0,
        (1u64 << 63) as f64,
        u64::MAX as f64, // 2^64: the cast saturates
        3.0e19,
        1e300,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        -1.0,
        -1e300,
        f64::NEG_INFINITY,
    ];
    for x in edges {
        assert_rounds_like_libm(x);
        // Neighbouring doubles on both sides of every edge.
        if x.is_finite() {
            assert_rounds_like_libm(f64::from_bits(x.to_bits() + 1));
            assert_rounds_like_libm(f64::from_bits(x.to_bits().saturating_sub(1)));
        }
    }
    // `mul_f64` on a long span: the product, not the factor, is rounded.
    let hour = SimDuration::from_secs(3600);
    for k in [
        0.0,
        1e-10,
        0.3333333333333333,
        1.0000000001,
        2.5,
        1e12,
        f64::NAN,
    ] {
        let want = rounded(hour.as_micros() as f64 * k.max(0.0));
        assert_eq!(hour.mul_f64(k).as_micros(), want, "hour × {k:e}");
    }
}

proptest! {
    /// The conversions equal `round`-then-cast across `[0, 2^53]`:
    /// uniformly, near the half-way points, and in every binade.
    #[test]
    fn float_conversions_round_like_libm(
        frac in 0.0f64..1.0,
        whole in 0u64..(1 << 53),
        exp in 0u32..54,
        nudge in 0u64..4,
    ) {
        let top = (1u64 << 53) as f64;
        assert_rounds_like_libm(frac * top);
        // A few ulps either side of `whole + ½` (exact below 2^52).
        let half = whole as f64 + 0.5;
        assert_rounds_like_libm(f64::from_bits(half.to_bits() + nudge));
        assert_rounds_like_libm(f64::from_bits(half.to_bits() - nudge));
        // Somewhere in binade `exp`, so small values are not drowned
        // out by the uniform draw.
        assert_rounds_like_libm((1u64 << exp) as f64 * (1.0 + frac));
    }
}

/// One step of the backlog-vs-`schedule` equivalence property. Most
/// deltas are small so that equal timestamps turn up on both sides of
/// the merge, and within each side.
#[derive(Debug, Clone)]
enum BacklogOp {
    Schedule(u64),
    ScheduleIn(u64),
    /// Bulk-load this batch (deltas from `now`, in this order).
    Load(Vec<u64>),
    Cancel(u64),
    Pop,
    /// `pop_before(now + delta)`.
    PopBefore(u64),
}

proptest! {
    /// A queue fed through `load_backlog` pops exactly what a queue fed
    /// the same events through `schedule` pops — time and payload, so
    /// tie order is covered — whatever is scheduled, cancelled or
    /// loaded in between (a second batch lands on what is left of the
    /// first, a batch may arrive after events that tie with it), and
    /// `pop_before` is `peek_time` + `pop`.
    #[test]
    fn backlog_pops_exactly_like_schedule(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..6).prop_map(BacklogOp::Schedule),
                (0u64..3000).prop_map(BacklogOp::Schedule),
                // Far-future timers, weeks to months out.
                (1u64 << 41..1 << 43).prop_map(BacklogOp::Schedule),
                (0u64..6).prop_map(BacklogOp::ScheduleIn),
                prop::collection::vec(0u64..6, 0..12).prop_map(BacklogOp::Load),
                prop::collection::vec(0u64..3000, 0..40).prop_map(BacklogOp::Load),
                any::<u64>().prop_map(BacklogOp::Cancel),
                Just(BacklogOp::Pop),
                Just(BacklogOp::Pop),
                (0u64..8).prop_map(BacklogOp::PopBefore),
                (0u64..2000).prop_map(BacklogOp::PopBefore),
            ],
            1..120,
        )
    ) {
        let mut bulk: EventQueue<u64> = EventQueue::new();
        let mut plain: EventQueue<u64> = EventQueue::new();
        // Cancellable events: the same event's handle in each queue.
        let mut ids: Vec<(simkit::EventId, simkit::EventId)> = Vec::new();
        let mut tag = 0u64;
        let mut next_tag = || { tag += 1; tag };
        for op in ops {
            prop_assert_eq!(bulk.now(), plain.now());
            let now = bulk.now().as_micros();
            match op {
                BacklogOp::Schedule(d) => {
                    let (at, t) = (SimTime::from_micros(now + d), next_tag());
                    ids.push((bulk.schedule(at, t), plain.schedule(at, t)));
                }
                BacklogOp::ScheduleIn(d) => {
                    let (d, t) = (SimDuration::from_micros(d), next_tag());
                    ids.push((bulk.schedule_in(d, t), plain.schedule_in(d, t)));
                }
                BacklogOp::Load(deltas) => {
                    let batch: Vec<(SimTime, u64)> = deltas
                        .iter()
                        .map(|d| (SimTime::from_micros(now + d), next_tag()))
                        .collect();
                    for &(at, t) in &batch {
                        plain.schedule(at, t);
                    }
                    bulk.load_backlog(batch);
                }
                BacklogOp::Cancel(which) => {
                    if ids.is_empty() {
                        continue;
                    }
                    let (b, p) = ids.swap_remove(which as usize % ids.len());
                    // Already popped or not: both queues agree.
                    prop_assert_eq!(bulk.cancel(b), plain.cancel(p));
                }
                BacklogOp::Pop => prop_assert_eq!(bulk.pop(), plain.pop()),
                BacklogOp::PopBefore(d) => {
                    let bound = SimTime::from_micros(now + d);
                    let due = plain.peek_time().is_some_and(|t| t < bound);
                    let want = if due { plain.pop() } else { None };
                    prop_assert_eq!(bulk.pop_before(bound), want);
                }
            }
            prop_assert_eq!(bulk.len(), plain.len());
            prop_assert_eq!(bulk.peek_time(), plain.peek_time());
        }
        while let Some(want) = plain.pop() {
            prop_assert_eq!(bulk.pop(), Some(want));
        }
        prop_assert_eq!(bulk.pop(), None);
        prop_assert!(bulk.is_empty());
    }
}
