//! Windowed discrete-event execution over logical processes.
//!
//! A simulation is decomposed into *logical processes* (LPs), each
//! owning a private [`EventQueue`](crate::EventQueue) and advancing
//! freely inside a global time window. Cross-LP interaction happens
//! only through messages carried by [`Envelope`]s with a fixed
//! latency — the *sync window* `W`, the modelled cost of one hop
//! between LPs (e.g. the control ↔ host message). Because every
//! message sent inside window `[B−W, B)` is delivered at or after the
//! boundary `B`, an LP can never receive an event in its own past, and
//! LPs meet only at window boundaries — which is what lets each one be
//! built, driven and tested on its own.
//!
//! Determinism contract: one runner, on the caller's thread. It visits
//! LPs in index order inside a window, each LP touches only its own
//! queue there, and envelopes are delivered at the boundary sorted by
//! the total key `(deliver_at, src, seq)` — so what an LP receives
//! never depends on the order LPs were visited in.

use crate::time::{SimDuration, SimTime};

/// A cross-LP message in flight.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Absolute delivery time (send time + the sync window).
    pub at: SimTime,
    /// Sending LP index.
    pub src: usize,
    /// Receiving LP index.
    pub dst: usize,
    /// Per-source send sequence (monotone; with `src` a total order).
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

/// Per-LP outbox handed to [`Lp::run_window`]. Sends are buffered for
/// exchange at the next window barrier; each costs the full sync
/// window in latency.
#[derive(Debug)]
pub struct Outbox<M> {
    src: usize,
    latency: SimDuration,
    seq: u64,
    out: Vec<Envelope<M>>,
}

impl<M> Outbox<M> {
    fn new(src: usize, latency: SimDuration) -> Self {
        Outbox {
            src,
            latency,
            seq: 0,
            out: Vec::new(),
        }
    }

    /// Send `msg` to LP `dst`; it is delivered at `now + W`.
    pub fn send(&mut self, now: SimTime, dst: usize, msg: M) {
        let seq = self.seq;
        self.seq += 1;
        self.out.push(Envelope {
            at: now.saturating_add(self.latency),
            src: self.src,
            dst,
            seq,
            msg,
        });
    }
}

/// One logical process of a windowed simulation.
///
/// The runner builds LP `i` with `build(i)`, owns it for the whole
/// run, and hands it to `finish(i, lp)` once nothing is pending.
///
/// Contract: an LP's pending events change only inside its own
/// `run_window` and `accept` — nothing else can move `next_time`. The
/// runner caches `next_time` on that basis and does not call
/// `run_window` for a window in which the LP has no event before the
/// bound, so `run_window` must do nothing but process such events.
pub trait Lp {
    /// Cross-LP message type.
    type Msg;

    /// Timestamp of the LP's next pending event, if any. Takes `&mut`
    /// so implementations can peek through an
    /// [`EventQueue`](crate::EventQueue) (which drains cancellations
    /// on peek).
    fn next_time(&mut self) -> Option<SimTime>;

    /// Process every pending event strictly before `bound`, sending
    /// cross-LP messages through `out`.
    fn run_window(&mut self, bound: SimTime, out: &mut Outbox<Self::Msg>);

    /// Accept a delivered envelope: schedule it in the local queue at
    /// `at` (never in this LP's past — the runner guarantees `at` is
    /// at or past the last window boundary).
    fn accept(&mut self, at: SimTime, src: usize, msg: Self::Msg);
}

/// The runner [`run_sharded`] uses. There is one; the argument is kept
/// for the repo benchmark's probe (`benchmark/src/probe.rs`), which
/// names it — a benchmark-archetype PR drops the argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Every LP on the caller thread.
    Serial,
}

/// Smallest multiple of `window` strictly greater than `t` — the next
/// window boundary. All events `< bound` are safe to execute: any
/// message they send is delivered at `>= t_min + W >= bound`.
fn next_boundary(t: SimTime, window: SimDuration) -> SimTime {
    let w = window.as_micros();
    let b = (t.as_micros() / w + 1).saturating_mul(w);
    SimTime::from_micros(b)
}

/// Run `n_lps` logical processes to completion, window by window, and
/// return each LP's output in LP index order.
///
/// `build(i)` constructs LP `i` (called once, in index order);
/// `finish(i, lp)` converts a drained LP into its output. The run
/// terminates when every queue is empty and no envelope is in flight.
pub fn run_sharded<L, O, B, F>(
    n_lps: usize,
    window: SimDuration,
    _mode: ShardMode,
    build: B,
    finish: F,
) -> Vec<O>
where
    L: Lp,
    B: Fn(usize) -> L,
    F: Fn(usize, L) -> O,
{
    assert!(n_lps > 0, "a run needs at least one LP");
    assert!(!window.is_zero(), "the sync window must be positive");
    let mut lps: Vec<L> = (0..n_lps).map(build).collect();
    let mut outboxes: Vec<Outbox<L::Msg>> = (0..n_lps).map(|i| Outbox::new(i, window)).collect();
    // `next_time` per LP, refreshed after its `run_window` or `accept`.
    let mut next: Vec<Option<SimTime>> = lps.iter_mut().map(|l| l.next_time()).collect();
    let mut pending: Vec<Envelope<L::Msg>> = Vec::new();
    loop {
        // Deliver last window's envelopes in canonical order.
        // `(at, src, seq)` is a total order: `seq` is unique per `src`.
        pending.sort_by_key(|e| (e.at, e.src, e.seq));
        for env in pending.drain(..) {
            let lp = &mut lps[env.dst];
            lp.accept(env.at, env.src, env.msg);
            next[env.dst] = lp.next_time();
        }
        // The next boundary follows from the global minimum next-event
        // time.
        let Some(t_min) = next.iter().flatten().min().copied() else {
            break;
        };
        let bound = next_boundary(t_min, window);
        // Run every LP that has an event before `bound`; an LP with
        // nothing due is not entered.
        for (i, lp) in lps.iter_mut().enumerate() {
            if next[i].is_some_and(|t| t < bound) {
                lp.run_window(bound, &mut outboxes[i]);
                next[i] = lp.next_time();
                pending.append(&mut outboxes[i].out);
            }
        }
    }
    let outs = lps.into_iter().enumerate();
    outs.map(|(i, lp)| finish(i, lp)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    /// Toy LP: a token-passing ring. Each LP holds a queue of `u64`
    /// payloads; on pop it folds the payload into a digest and, while
    /// hops remain, forwards `payload + 1` to the next LP.
    struct RingLp {
        idx: usize,
        n: usize,
        q: EventQueue<u64>,
        digest: u64,
        hops: u64,
    }

    fn ring_lp(i: usize, n: usize, hops: u64) -> RingLp {
        let mut q = EventQueue::new();
        if i == 0 && hops > 0 {
            q.schedule(SimTime::from_micros(1), 0);
        }
        RingLp {
            idx: i,
            n,
            q,
            digest: 0x9e37_79b9_7f4a_7c15,
            hops,
        }
    }

    impl Lp for RingLp {
        type Msg = u64;
        fn next_time(&mut self) -> Option<SimTime> {
            self.q.peek_time()
        }
        fn run_window(&mut self, bound: SimTime, out: &mut Outbox<u64>) {
            while self.q.peek_time().is_some_and(|t| t < bound) {
                let (now, v) = self.q.pop().unwrap();
                self.digest = self.digest.rotate_left(7).wrapping_add(v ^ now.as_micros());
                if v < self.hops {
                    out.send(now, (self.idx + 1) % self.n, v + 1);
                }
            }
        }
        fn accept(&mut self, at: SimTime, _src: usize, msg: u64) {
            self.q.schedule(at, msg);
        }
    }

    fn run_ring(n: usize, hops: u64) -> Vec<u64> {
        run_sharded(
            n,
            SimDuration::from_millis(1),
            ShardMode::Serial,
            |i| ring_lp(i, n, hops),
            |_, lp| lp.digest,
        )
    }

    #[test]
    fn ring_token_pays_one_window_per_hop() {
        // Between hops every queue is empty and the token is in flight,
        // so the run must not stop early; hop `v` lands on LP `v % n`
        // exactly `v` windows after the first.
        let (n, hops) = (5usize, 400u64);
        let mut want = vec![0x9e37_79b9_7f4a_7c15u64; n];
        for v in 0..=hops {
            let d = &mut want[v as usize % n];
            *d = d.rotate_left(7).wrapping_add(v ^ (1 + 1000 * v));
        }
        assert_eq!(run_ring(n, hops), want);
    }

    #[test]
    fn empty_simulation_terminates() {
        let out = run_sharded(
            3,
            SimDuration::from_millis(1),
            ShardMode::Serial,
            |i| ring_lp(i, 3, 0),
            |i, _| i,
        );
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn boundary_is_strictly_after_t() {
        let w = SimDuration::from_millis(1);
        assert_eq!(
            next_boundary(SimTime::from_micros(0), w),
            SimTime::from_micros(1000)
        );
        assert_eq!(
            next_boundary(SimTime::from_micros(999), w),
            SimTime::from_micros(1000)
        );
        assert_eq!(
            next_boundary(SimTime::from_micros(1000), w),
            SimTime::from_micros(2000),
            "a boundary-time event runs before the *next* boundary"
        );
    }

    #[test]
    fn messages_never_deliver_into_the_current_window() {
        // Every send from a window lands at or after the next
        // boundary: at = now + W and now >= bound - W.
        let mut ob = Outbox::new(0, SimDuration::from_millis(1));
        ob.send(SimTime::from_micros(1_999), 1, 7u64);
        assert!(ob.out[0].at >= SimTime::from_micros(2_000));
        assert_eq!(ob.out[0].seq, 0);
        ob.send(SimTime::from_micros(1_999), 1, 8u64);
        assert_eq!(ob.out[1].seq, 1, "per-src seq is monotone");
    }

    /// Sparse-fleet LP: LP 0 ticks once per window, exactly on the
    /// boundaries, and on chosen ticks messages a neighbour; everyone
    /// else sleeps until spoken to. Counts how often the runner enters
    /// `run_window`.
    struct SparseLp {
        idx: usize,
        q: EventQueue<u64>,
        /// LP 9 only: its one scheduled event, cancelled on `accept`.
        doomed: Option<crate::event::EventId>,
        ticks: u64,
        digest: u64,
        entered: u64,
    }

    const WAKE_TICK: u64 = 5;
    const CANCEL_TICK: u64 = 10;
    const SLEEPER: usize = 7;
    const CANCELLED: usize = 9;

    fn sparse_lp(i: usize, ticks: u64) -> SparseLp {
        let mut q = EventQueue::new();
        let mut doomed = None;
        if i == 0 {
            q.schedule(SimTime::ZERO, 0);
        } else if i == CANCELLED {
            doomed = Some(q.schedule(SimTime::from_micros(50_000), u64::MAX));
        }
        SparseLp {
            idx: i,
            q,
            doomed,
            ticks,
            digest: 0,
            entered: 0,
        }
    }

    impl Lp for SparseLp {
        type Msg = u64;
        fn next_time(&mut self) -> Option<SimTime> {
            self.q.peek_time()
        }
        fn run_window(&mut self, bound: SimTime, out: &mut Outbox<u64>) {
            self.entered += 1;
            while self.q.peek_time().is_some_and(|t| t < bound) {
                let (now, v) = self.q.pop().unwrap();
                self.digest = self.digest.rotate_left(7).wrapping_add(v ^ now.as_micros());
                if self.idx != 0 {
                    continue;
                }
                // `now` is a multiple of the window, so these land
                // exactly on a boundary.
                match v {
                    WAKE_TICK => out.send(now, SLEEPER, v),
                    CANCEL_TICK => out.send(now, CANCELLED, v),
                    _ => {}
                }
                if v + 1 < self.ticks {
                    self.q.schedule(now + SimDuration::from_millis(1), v + 1);
                }
            }
        }
        fn accept(&mut self, at: SimTime, _src: usize, msg: u64) {
            match self.doomed.take() {
                Some(id) => assert!(self.q.cancel(id), "still pending"),
                None => {
                    self.q.schedule(at, msg);
                }
            }
        }
    }

    /// `(digest, times run_window was entered)` per LP.
    fn run_sparse(n: usize, ticks: u64) -> Vec<(u64, u64)> {
        run_sharded(
            n,
            SimDuration::from_millis(1),
            ShardMode::Serial,
            |i| sparse_lp(i, ticks),
            |_, lp| (lp.digest, lp.entered),
        )
    }

    #[test]
    fn idle_lps_are_not_entered_while_a_neighbour_ticks() {
        let out = run_sparse(12, 10_000);
        assert_eq!(out[0].1, 10_000, "the ticker runs once per window");
        assert_eq!(
            out[SLEEPER].1, 1,
            "entered only for the window it was woken in"
        );
        assert_eq!(out[SLEEPER].0, WAKE_TICK ^ ((WAKE_TICK + 1) * 1000));
        assert_eq!(out[CANCELLED], (0, 0), "its only event was cancelled");
        for (i, &(digest, entered)) in out.iter().enumerate() {
            if ![0, SLEEPER, CANCELLED].contains(&i) {
                assert_eq!((digest, entered), (0, 0), "LP {i} has nothing to do");
            }
        }
    }

    #[test]
    fn sparse_run_digests_match_the_closed_form() {
        let ticks = 200u64;
        let out = run_sparse(64, ticks);
        let ticker = (0..ticks).fold(0u64, |d, v| d.rotate_left(7).wrapping_add(v ^ (v * 1000)));
        assert_eq!(out[0], (ticker, ticks));
        assert_eq!(out[SLEEPER], (WAKE_TICK ^ ((WAKE_TICK + 1) * 1000), 1));
        assert_eq!(out.iter().filter(|o| o.1 > 0).count(), 2);
    }

    /// Scripted LP: sends what its script says, when it says, and logs
    /// what the runner hands it.
    #[derive(Default)]
    struct ScriptLp {
        /// `Some(dst)`: a scripted send; `None`: a delivered message.
        q: EventQueue<(Option<usize>, u64)>,
        /// `(at, src, payload)` in `accept` order.
        accepted: Vec<(u64, usize, u64)>,
        /// `(payload, bound of the window it was processed in)`.
        processed: Vec<(u64, u64)>,
    }

    impl Lp for ScriptLp {
        type Msg = u64;
        fn next_time(&mut self) -> Option<SimTime> {
            self.q.peek_time()
        }
        fn run_window(&mut self, bound: SimTime, out: &mut Outbox<u64>) {
            while self.q.peek_time().is_some_and(|t| t < bound) {
                match self.q.pop().unwrap() {
                    (now, (Some(dst), v)) => out.send(now, dst, v),
                    (_, (None, v)) => self.processed.push((v, bound.as_micros())),
                }
            }
        }
        fn accept(&mut self, at: SimTime, src: usize, msg: u64) {
            self.accepted.push((at.as_micros(), src, msg));
            self.q.schedule(at, (None, msg));
        }
    }

    /// Run one `(at µs, dst, payload)` script per LP under a 1 ms window.
    fn run_scripts(scripts: &[&[(u64, usize, u64)]]) -> Vec<ScriptLp> {
        run_sharded(
            scripts.len(),
            SimDuration::from_millis(1),
            ShardMode::Serial,
            |i| {
                let mut lp = ScriptLp::default();
                for &(at, dst, v) in scripts[i] {
                    lp.q.schedule(SimTime::from_micros(at), (Some(dst), v));
                }
                lp
            },
            |_, lp| lp,
        )
    }

    #[test]
    fn delivery_order_is_at_then_src_then_seq_not_visiting_order() {
        // One window. LP 1 is visited before LP 2 and sends 11, 12, 10;
        // LP 2 then sends 20, 21 — all to LP 0.
        let out = run_scripts(&[
            &[],
            &[(700, 0, 10), (300, 0, 11), (300, 0, 12)],
            &[(200, 0, 20), (300, 0, 21)],
        ]);
        assert_eq!(
            out[0].accepted,
            [
                (1200, 2, 20), // earliest `at`, though sent by the later visit
                (1300, 1, 11), // equal `at`: lower `src` first,
                (1300, 1, 12), // then `seq` within one source
                (1300, 2, 21),
                (1700, 1, 10),
            ]
        );
    }

    #[test]
    fn a_send_just_inside_the_bound_is_processed_in_the_next_window() {
        // LP 2 is visited after the sender in the window `[0, 1000)`
        // and is entered there (it has an event of its own), yet must
        // not see the message until the window after.
        let out = run_scripts(&[&[], &[(999, 2, 7)], &[(500, 0, 99)]]);
        assert_eq!(out[2].accepted, [(1999, 1, 7)], "at = now + W ≥ bound");
        assert_eq!(out[2].processed, [(7, 2000)]);
        assert_eq!(out[0].processed, [(99, 2000)]);
    }
}
