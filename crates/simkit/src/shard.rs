//! Sharded discrete-event execution with conservative time-window
//! synchronization.
//!
//! A simulation is decomposed into *logical processes* (LPs), each
//! owning a private [`EventQueue`](crate::EventQueue) and advancing
//! freely inside a global time window. Cross-LP interaction happens
//! only through messages carried by [`Envelope`]s with a fixed minimum
//! latency — the *sync window* `W`, derived by the caller from the
//! slowest physical path between shards (e.g. the cross-host fabric
//! hop). Because every message sent inside window `[B−W, B)` is
//! delivered at or after the boundary `B`, LPs can never receive an
//! event in their own past: the classic conservative-lookahead
//! argument of parallel discrete-event simulation.
//!
//! Determinism contract: for a fixed LP decomposition and window, the
//! serial runner and the threaded runner (worker threads each owning a
//! contiguous LP range) produce **bit-identical** executions. Both
//! process windows in the same sequence, each LP touches only its own
//! queue inside a window, and envelopes are delivered sorted by the
//! total key `(deliver_at, src, seq)`. No step depends on thread
//! scheduling; threads change wall-clock time only.

use crate::time::{SimDuration, SimTime};
use std::sync::mpsc;

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

/// One logical process of a sharded simulation.
///
/// Implementations are usually `!Send` (they hold `Rc`-based recorders
/// or kernel state); the runner therefore *constructs* each LP inside
/// the worker thread that owns it, via a `Send + Sync` builder, and
/// converts it to a `Send` output there too.
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

/// How many worker threads drive the LPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Single-threaded reference execution on the caller thread.
    Serial,
    /// `n` worker threads, each owning a contiguous range of LPs.
    /// Clamped to `[1, n_lps]`; `Threads(1)` still spawns one worker
    /// (useful for exercising the exchange plumbing).
    Threads(usize),
}

/// Smallest multiple of `window` strictly greater than `t` — the next
/// window boundary. All events `< bound` are safe to execute: any
/// message they send is delivered at `>= t_min + W >= bound`.
fn next_boundary(t: SimTime, window: SimDuration) -> SimTime {
    let w = window.as_micros();
    let b = (t.as_micros() / w + 1).saturating_mul(w);
    SimTime::from_micros(b)
}

/// Sort envelopes destined for one LP into their canonical delivery
/// order. `(at, src, seq)` is a total order: `seq` is unique per
/// `src`.
fn sort_for_delivery<M>(batch: &mut [Envelope<M>]) {
    batch.sort_by_key(|e| (e.at, e.src, e.seq));
}

/// Run `n_lps` logical processes to completion under conservative
/// window synchronization and return each LP's output, in LP index
/// order.
///
/// `build(i)` constructs LP `i` (called once, inside the owning
/// thread); `finish(i, lp)` converts a drained LP into its `Send`
/// output. The run terminates when every queue is empty and no
/// envelope is in flight.
pub fn run_sharded<L, O, B, F>(
    n_lps: usize,
    window: SimDuration,
    mode: ShardMode,
    build: B,
    finish: F,
) -> Vec<O>
where
    L: Lp,
    L::Msg: Send,
    O: Send,
    B: Fn(usize) -> L + Send + Sync,
    F: Fn(usize, L) -> O + Send + Sync,
{
    assert!(n_lps > 0, "a sharded run needs at least one LP");
    assert!(!window.is_zero(), "the sync window must be positive");
    match mode {
        ShardMode::Serial => run_serial(n_lps, window, build, finish),
        ShardMode::Threads(t) => run_threaded(n_lps, window, t.clamp(1, n_lps), build, finish),
    }
}

/// The LPs one thread owns (all of them in a serial run), their
/// outboxes and their cached `next_time`s. Both runners drive their LPs
/// through this, so there is one skip rule.
struct Shard<L: Lp> {
    /// Index of the first owned LP.
    lo: usize,
    lps: Vec<L>,
    outboxes: Vec<Outbox<L::Msg>>,
    /// `next_time` per LP, refreshed after its `run_window` or `accept`.
    next: Vec<Option<SimTime>>,
}

impl<L: Lp> Shard<L> {
    fn new(lo: usize, hi: usize, window: SimDuration, build: impl Fn(usize) -> L) -> Self {
        let mut lps: Vec<L> = (lo..hi).map(build).collect();
        Shard {
            lo,
            outboxes: (lo..hi).map(|i| Outbox::new(i, window)).collect(),
            next: lps.iter_mut().map(|l| l.next_time()).collect(),
            lps,
        }
    }

    /// Deliver envelopes (already in canonical order) and return the
    /// minimum next-event time over the owned LPs.
    fn deliver(&mut self, batch: impl IntoIterator<Item = Envelope<L::Msg>>) -> Option<SimTime> {
        for env in batch {
            let i = env.dst - self.lo;
            self.lps[i].accept(env.at, env.src, env.msg);
            self.next[i] = self.lps[i].next_time();
        }
        self.next.iter().flatten().min().copied()
    }

    /// Run every owned LP that has an event before `bound`, moving what
    /// it sent into `sent`; an LP with nothing due is not entered.
    fn run_window(&mut self, bound: SimTime, sent: &mut Vec<Envelope<L::Msg>>) {
        for (i, lp) in self.lps.iter_mut().enumerate() {
            if self.next[i].is_some_and(|t| t < bound) {
                lp.run_window(bound, &mut self.outboxes[i]);
                self.next[i] = lp.next_time();
                sent.append(&mut self.outboxes[i].out);
            }
        }
    }

    fn finish<O>(self, finish: impl Fn(usize, L) -> O) -> Vec<O> {
        let indexed = (self.lo..).zip(self.lps);
        indexed.map(|(i, lp)| finish(i, lp)).collect()
    }
}

fn run_serial<L, O, B, F>(n_lps: usize, window: SimDuration, build: B, finish: F) -> Vec<O>
where
    L: Lp,
    B: Fn(usize) -> L,
    F: Fn(usize, L) -> O,
{
    let mut shard = Shard::new(0, n_lps, window, build);
    let mut pending: Vec<Envelope<L::Msg>> = Vec::new();
    loop {
        // Deliver last window's envelopes in canonical order; the next
        // boundary follows from the global minimum next-event time.
        sort_for_delivery(&mut pending);
        let Some(t_min) = shard.deliver(pending.drain(..)) else {
            break;
        };
        shard.run_window(next_boundary(t_min, window), &mut pending);
    }
    shard.finish(finish)
}

/// Coordinator → worker commands.
enum Cmd<M> {
    /// Deliver these envelopes (already in canonical order), then
    /// report the minimum next-event time over the worker's LPs.
    Deliver(Vec<Envelope<M>>),
    /// Run every owned LP up to `bound`, then report outbound
    /// envelopes.
    Run(SimTime),
    /// Drain the LPs into outputs and exit.
    Stop,
}

/// Worker → coordinator replies.
enum Reply<M, O> {
    Min(Option<SimTime>),
    Ran(Vec<Envelope<M>>),
    Done(Vec<O>),
}

fn run_threaded<L, O, B, F>(
    n_lps: usize,
    window: SimDuration,
    threads: usize,
    build: B,
    finish: F,
) -> Vec<O>
where
    L: Lp,
    L::Msg: Send,
    O: Send,
    B: Fn(usize) -> L + Send + Sync,
    F: Fn(usize, L) -> O + Send + Sync,
{
    // Contiguous LP ranges: worker w owns [starts[w], starts[w+1]).
    let base = n_lps / threads;
    let extra = n_lps % threads;
    let mut starts = Vec::with_capacity(threads + 1);
    let mut acc = 0;
    for w in 0..threads {
        starts.push(acc);
        acc += base + usize::from(w < extra);
    }
    starts.push(acc);

    let build = &build;
    let finish = &finish;
    std::thread::scope(|scope| {
        let mut cmd_txs = Vec::with_capacity(threads);
        let (reply_tx, reply_rx) = mpsc::channel::<(usize, Reply<L::Msg, O>)>();
        for w in 0..threads {
            let (tx, rx) = mpsc::channel::<Cmd<L::Msg>>();
            cmd_txs.push(tx);
            let reply_tx = reply_tx.clone();
            let (lo, hi) = (starts[w], starts[w + 1]);
            scope.spawn(move || {
                let mut shard = Shard::new(lo, hi, window, build);
                for cmd in rx {
                    match cmd {
                        Cmd::Deliver(batch) => {
                            let min = shard.deliver(batch);
                            let _ = reply_tx.send((w, Reply::Min(min)));
                        }
                        Cmd::Run(bound) => {
                            let mut out = Vec::new();
                            shard.run_window(bound, &mut out);
                            let _ = reply_tx.send((w, Reply::Ran(out)));
                        }
                        Cmd::Stop => {
                            let _ = reply_tx.send((w, Reply::Done(shard.finish(finish))));
                            break;
                        }
                    }
                }
            });
        }
        drop(reply_tx);

        let owner = |lp: usize| starts.partition_point(|&s| s <= lp) - 1;
        let mut pending: Vec<Envelope<L::Msg>> = Vec::new();
        loop {
            // Exchange: canonical order globally, partitioned by owner
            // (partitioning a sorted list keeps each batch sorted).
            sort_for_delivery(&mut pending);
            let mut batches: Vec<Vec<Envelope<L::Msg>>> =
                (0..threads).map(|_| Vec::new()).collect();
            for env in pending.drain(..) {
                batches[owner(env.dst)].push(env);
            }
            for (w, batch) in batches.into_iter().enumerate() {
                cmd_txs[w].send(Cmd::Deliver(batch)).expect("worker alive");
            }
            let mut t_min: Option<SimTime> = None;
            for _ in 0..threads {
                let (_, reply) = reply_rx.recv().expect("worker alive");
                let Reply::Min(m) = reply else {
                    unreachable!("deliver replies with Min")
                };
                t_min = match (t_min, m) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            let Some(t_min) = t_min else { break };
            let bound = next_boundary(t_min, window);
            for tx in &cmd_txs {
                tx.send(Cmd::Run(bound)).expect("worker alive");
            }
            for _ in 0..threads {
                let (_, reply) = reply_rx.recv().expect("worker alive");
                let Reply::Ran(out) = reply else {
                    unreachable!("run replies with Ran")
                };
                pending.extend(out);
            }
        }
        for tx in &cmd_txs {
            tx.send(Cmd::Stop).expect("worker alive");
        }
        let mut outs: Vec<Option<Vec<O>>> = (0..threads).map(|_| None).collect();
        for _ in 0..threads {
            let (w, reply) = reply_rx.recv().expect("worker alive");
            let Reply::Done(o) = reply else {
                unreachable!("stop replies with Done")
            };
            outs[w] = Some(o);
        }
        outs.into_iter()
            .flat_map(|o| o.expect("all replied"))
            .collect()
    })
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

    fn run_ring(n: usize, hops: u64, mode: ShardMode) -> Vec<u64> {
        run_sharded(
            n,
            SimDuration::from_millis(1),
            mode,
            |i| ring_lp(i, n, hops),
            |_, lp| lp.digest,
        )
    }

    #[test]
    fn serial_and_threaded_rings_agree() {
        let serial = run_ring(5, 400, ShardMode::Serial);
        for threads in [1usize, 2, 3, 5, 8] {
            assert_eq!(
                serial,
                run_ring(5, 400, ShardMode::Threads(threads)),
                "threads={threads} diverged from serial"
            );
        }
    }

    #[test]
    fn empty_simulation_terminates() {
        let out = run_sharded(
            3,
            SimDuration::from_millis(1),
            ShardMode::Threads(2),
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
    fn run_sparse(n: usize, ticks: u64, mode: ShardMode) -> Vec<(u64, u64)> {
        run_sharded(
            n,
            SimDuration::from_millis(1),
            mode,
            |i| sparse_lp(i, ticks),
            |_, lp| (lp.digest, lp.entered),
        )
    }

    #[test]
    fn idle_lps_are_not_entered_while_a_neighbour_ticks() {
        let out = run_sparse(12, 10_000, ShardMode::Serial);
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
    fn sparse_run_is_identical_across_modes() {
        let serial = run_sparse(64, 200, ShardMode::Serial);
        assert_eq!(serial.iter().filter(|o| o.1 > 0).count(), 2);
        for threads in [1usize, 3] {
            assert_eq!(
                serial,
                run_sparse(64, 200, ShardMode::Threads(threads)),
                "threads={threads} diverged from serial"
            );
        }
    }
}
