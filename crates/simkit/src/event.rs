//! Deterministic event queue on a hierarchical timing wheel.
//!
//! The queue is the heart of every discrete-event simulation in this
//! workspace. Determinism is guaranteed by breaking timestamp ties with a
//! monotonically increasing sequence number, so two runs with the same
//! seed produce identical event orders.
//!
//! # Implementation
//!
//! Instead of a comparison-ordered binary heap, events live in a
//! hierarchical timing wheel (`LEVELS` levels of `SLOTS` slots;
//! level-`l` slots are `64^l` µs wide) backed by a generation-tagged
//! slab that acts as the event arena: nodes are recycled through a free
//! list, so steady-state scheduling performs **zero heap allocation**,
//! and `schedule` / `cancel` are O(1). The wheel keys slots off the
//! XOR of the event time with an internal `cursor`, so an event's level
//! is `floor(log64(at ^ cursor))` — events land as low as their
//! distance allows and cascade toward level 0 as the cursor advances.
//!
//! Four auxiliary structures complete the picture:
//!
//! * a **due heap** holding the (few) events at or before the cursor,
//!   ordered by `(time, seq)` — this is where cascades deposit events
//!   and the only place `pop` reads from, which is what preserves the
//!   exact FIFO-on-ties contract of the old comparison-ordered queue;
//! * an **overflow heap** for events beyond the wheel horizon
//!   (`2^42` µs ≈ 51 simulated days past the cursor);
//! * a **slab free list** with per-node generation counters, so an
//!   [`EventId`] from a recycled slot can never cancel its successor;
//! * a **backlog** of bulk-loaded events
//!   ([`EventQueue::load_backlog`]): one `(time, seq)`-sorted run
//!   beside the wheel, merged with the due heap at pop time. A trace's
//!   arrivals are known up front and never cancelled; as wheel nodes
//!   they sit in a slab far larger than cache and are touched once per
//!   level they cascade through, as a sorted run they are read once.
//!
//! Cancellation marks the node dead in O(1) and leaves it linked; dead
//! nodes are reclaimed when their container surfaces them (or by a full
//! sweep once the queue has no live events), and `len` counts live
//! events exactly — cancelled-but-unpopped entries are never visible.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Level `l` covers `64^(l+1)` µs relative to the cursor.
const LEVELS: usize = 7;
/// Bits of absolute time the wheel spans relative to its cursor:
/// `64^7 = 2^42` µs ≈ 51 simulated days. Events further out wait in the
/// overflow heap until the cursor reaches their region.
const WHEEL_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Null link in the intrusive slot lists / free list.
const NIL: u32 = u32::MAX;

/// Handle for a scheduled event, usable with [`EventQueue::cancel`].
///
/// Packs the slab index and the node's generation at scheduling time;
/// once the event fires or is cancelled the generation advances, so a
/// stale handle is a cheap miss rather than an aliased cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn new(gen: u32, idx: u32) -> Self {
        EventId(((gen as u64) << 32) | idx as u64)
    }
    #[inline]
    fn idx(self) -> usize {
        (self.0 & u32::MAX as u64) as usize
    }
    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab cell. `next` chains the node into exactly one container at
/// a time: a wheel slot list while pending above the cursor, or the
/// free list once reclaimed (heap-resident nodes are not chained).
#[derive(Debug)]
struct Node<E> {
    at: u64,
    seq: u64,
    gen: u32,
    next: u32,
    live: bool,
    payload: Option<E>,
}

/// Heap entries order by `(time, seq)` — the queue's pop order.
type HeapKey = Reverse<(u64, u64, u32)>;

/// A time-ordered queue of events of type `E`.
///
/// Events scheduled for the same instant pop in scheduling order
/// (FIFO), which keeps simulations deterministic. `B` is the form
/// bulk-loaded events wait in: `E`, or something smaller that converts.
///
/// ```
/// use simkit::event::EventQueue;
/// use simkit::time::SimTime;
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// ```
#[derive(Debug)]
pub struct EventQueue<E, B = E> {
    /// Event arena: nodes are allocated once and recycled forever.
    slab: Vec<Node<E>>,
    free_head: u32,
    /// Intrusive list heads: `levels[l][s]` chains the events whose
    /// time lands in slot `s` of level `l` relative to `cursor`.
    levels: Box<[[u32; SLOTS]; LEVELS]>,
    /// Per-level occupancy bitmask; bit `s` set iff `levels[l][s] != NIL`.
    occupied: [u64; LEVELS],
    /// Internal wheel reference time (µs). Invariant:
    /// `now ≤ cursor ≤` every pending event above the due heap.
    cursor: u64,
    /// Events with `at ≤ cursor`, ordered by `(at, seq)`. The only
    /// structure `pop` reads, so pop order is exactly `(time, seq)`.
    due: BinaryHeap<HeapKey>,
    /// Events beyond the wheel horizon (`at ^ cursor ≥ 2^WHEEL_BITS`).
    overflow: BinaryHeap<HeapKey>,
    /// Bulk-loaded events as `(at, seq, payload)`, by descending
    /// `(at, seq)`: the last is the next one. Never in the slab.
    backlog: Vec<(u64, u64, B)>,
    /// Exact number of pending, non-cancelled events (backlog included).
    live_count: usize,
    /// Cancelled nodes still linked in a slot list or heap, awaiting
    /// reclamation.
    dead: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }
}

impl<E, B> Default for EventQueue<E, B> {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free_head: NIL,
            levels: Box::new([[NIL; SLOTS]; LEVELS]),
            occupied: [0; LEVELS],
            cursor: 0,
            due: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            backlog: Vec::new(),
            live_count: 0,
            dead: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }
}

impl<E, B: Into<E>> EventQueue<E, B> {
    /// Current simulation clock: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events. Exact: cancelled
    /// entries leave the count the instant [`EventQueue::cancel`]
    /// returns, whether or not they have been reclaimed internally.
    #[inline]
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the calling simulation;
    /// the queue clamps such events to `now` so the clock never runs
    /// backwards, and debug builds panic to surface the bug early.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now).as_micros();
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc(at, seq, payload);
        self.place(idx);
        self.live_count += 1;
        EventId::new(self.slab[idx as usize].gen, idx)
    }

    /// Schedule `payload` after a delay relative to the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule(self.now.saturating_add(delay), payload)
    }

    /// Schedule a batch of events that will never be cancelled, in
    /// iteration order. Equivalent to calling [`EventQueue::schedule`]
    /// on each in turn — same clamping, same sequence numbers, so the
    /// same pop order, ties included — but the batch bypasses the
    /// wheel and waits as one sorted run (input already in time order
    /// sorts in one pass; a later batch merges into what is left of an
    /// earlier one).
    pub fn load_backlog(&mut self, events: impl IntoIterator<Item = (SimTime, B)>) {
        let (now, before, seq) = (self.now, self.backlog.len(), self.next_seq);
        let numbered = events.into_iter().zip(seq..);
        self.backlog.extend(numbered.map(|((at, payload), seq)| {
            debug_assert!(at >= now, "scheduled event in the past: {at} < {now}");
            (at.max(now).as_micros(), seq, payload)
        }));
        let loaded = self.backlog.len() - before;
        self.next_seq += loaded as u64;
        self.live_count += loaded;
        self.backlog.sort_by_key(|&(at, seq, _)| Reverse((at, seq)));
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// had not yet fired (or been cancelled). O(1): the node is marked
    /// dead in place and reclaimed lazily; stale handles (already fired
    /// or cancelled, or from a recycled slot) are a generation-check
    /// miss and never accumulate state.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slab.get_mut(id.idx()) {
            Some(node) if node.gen == id.gen() && node.live => {
                node.live = false;
                node.payload = None;
                self.live_count -= 1;
                self.dead += 1;
                true
            }
            _ => false,
        }
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle().map(|(at, _)| SimTime::from_micros(at))
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, from_backlog) = self.settle()?;
        Some(self.take(at, from_backlog))
    }

    /// Pop the next event if it is strictly before `bound`: one
    /// window-drain step (`peek_time` + `pop`) for one settle.
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        let (at, from_backlog) = self.settle()?;
        (at < bound.as_micros()).then(|| self.take(at, from_backlog))
    }

    /// Remove the head [`EventQueue::settle`] just reported.
    fn take(&mut self, at: u64, from_backlog: bool) -> (SimTime, E) {
        let payload = if from_backlog {
            self.backlog.pop().expect("settle saw it").2.into()
        } else {
            let Reverse((_, _, idx)) = self.due.pop().expect("settle guarantees a due event");
            let payload = self.slab[idx as usize].payload.take();
            self.free(idx);
            payload.expect("live event carries its payload")
        };
        self.live_count -= 1;
        self.now = SimTime::from_micros(at);
        (self.now, payload)
    }

    /// Take a node from the free list or grow the slab.
    fn alloc(&mut self, at: u64, seq: u64, payload: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.slab[idx as usize];
            self.free_head = node.next;
            node.at = at;
            node.seq = seq;
            node.next = NIL;
            node.live = true;
            node.payload = Some(payload);
            idx
        } else {
            let idx = self.slab.len();
            assert!(idx < NIL as usize, "event slab exhausted");
            self.slab.push(Node {
                at,
                seq,
                gen: 0,
                next: NIL,
                live: true,
                payload: Some(payload),
            });
            idx as u32
        }
    }

    /// Return a node to the free list, bumping its generation so any
    /// outstanding [`EventId`] for it goes stale.
    fn free(&mut self, idx: u32) {
        let head = self.free_head;
        let node = &mut self.slab[idx as usize];
        node.gen = node.gen.wrapping_add(1);
        node.live = false;
        node.payload = None;
        node.next = head;
        self.free_head = idx;
    }

    /// Insert node `idx` into the structure matching its distance from
    /// the cursor: the due heap at or before it, a wheel slot within
    /// the horizon, the overflow heap beyond.
    fn place(&mut self, idx: u32) {
        let (at, seq) = {
            let n = &self.slab[idx as usize];
            (n.at, n.seq)
        };
        if at <= self.cursor {
            self.due.push(Reverse((at, seq, idx)));
            return;
        }
        let diff = at ^ self.cursor;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(Reverse((at, seq, idx)));
            return;
        }
        let slot = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let head = &mut self.levels[level][slot];
        self.slab[idx as usize].next = *head;
        *head = idx;
        self.occupied[level] |= 1u64 << slot;
    }

    /// Drive the wheel until the earliest pending event is known: the
    /// due-heap top or the backlog head, by `(time, seq)`. Returns its
    /// time and whether it is the backlog's; `None` iff empty.
    fn settle(&mut self) -> Option<(u64, bool)> {
        let back = self.backlog.last().map(|&(at, seq, _)| (at, seq));
        loop {
            // Reclaim cancelled entries surfacing at the due-heap top.
            while let Some(&Reverse((_, _, idx))) = self.due.peek() {
                if self.slab[idx as usize].live {
                    break;
                }
                self.due.pop();
                self.dead -= 1;
                self.free(idx);
            }
            // A non-empty due heap tops out at `≤ cursor`, which
            // precedes every wheel and overflow event.
            if let Some(&Reverse((at, seq, _))) = self.due.peek() {
                return Some(match back {
                    Some(b) if b < (at, seq) => (b.0, true),
                    _ => (at, false),
                });
            }
            if self.live_count == self.backlog.len() {
                if self.dead > 0 {
                    self.sweep();
                }
                return back.map(|(at, _)| (at, true));
            }
            if let Some((level, slot)) = self.next_occupied() {
                self.advance(level, slot);
            } else {
                self.drain_overflow();
            }
        }
    }

    /// Earliest occupied wheel slot. Events at level `l` all precede
    /// events at any level above `l` (they share the cursor's digits
    /// above `l` and differ only below), so the lowest occupied level
    /// wins, and within a level the smallest slot index wins.
    fn next_occupied(&self) -> Option<(usize, usize)> {
        self.occupied
            .iter()
            .position(|&occ| occ != 0)
            .map(|level| (level, self.occupied[level].trailing_zeros() as usize))
    }

    /// Advance the cursor to the lower bound of `(level, slot)` and
    /// cascade the slot's events down (level 0 deposits into the due
    /// heap, where `(at, seq)` ordering takes over).
    fn advance(&mut self, level: usize, slot: usize) {
        let shift = SLOT_BITS * level as u32;
        debug_assert!(
            slot as u64 > (self.cursor >> shift) & (SLOTS as u64 - 1),
            "occupied slots sit strictly past the cursor digit"
        );
        // Safe to jump: the due heap is empty and this is the earliest
        // occupied slot, so no pending event precedes its lower bound.
        let above = shift + SLOT_BITS;
        self.cursor = ((self.cursor >> above) << above) | ((slot as u64) << shift);
        self.occupied[level] &= !(1u64 << slot);
        let mut head = std::mem::replace(&mut self.levels[level][slot], NIL);
        while head != NIL {
            let next = self.slab[head as usize].next;
            if self.slab[head as usize].live {
                self.place(head);
            } else {
                self.dead -= 1;
                self.free(head);
            }
            head = next;
        }
    }

    /// Wheel and due heap are empty: jump the cursor to the earliest
    /// live overflow event, then pull every overflow entry that now
    /// falls inside the wheel horizon back into the wheel so later
    /// in-horizon schedules can never leapfrog them.
    fn drain_overflow(&mut self) {
        loop {
            match self.overflow.pop() {
                Some(Reverse((at, _, idx))) => {
                    if !self.slab[idx as usize].live {
                        self.dead -= 1;
                        self.free(idx);
                        continue;
                    }
                    self.cursor = at;
                    self.place(idx);
                    break;
                }
                None => unreachable!("live events pending but every structure is empty"),
            }
        }
        while let Some(&Reverse((at, _, idx))) = self.overflow.peek() {
            // In-horizon ⟺ same 2^WHEEL_BITS-aligned region as the new
            // cursor; monotone in `at`, so stop at the first miss.
            if (at ^ self.cursor) >> WHEEL_BITS != 0 {
                break;
            }
            self.overflow.pop();
            if self.slab[idx as usize].live {
                self.place(idx);
            } else {
                self.dead -= 1;
                self.free(idx);
            }
        }
    }

    /// Reclaim every dead node at once. Only called when no live events
    /// remain, so all linked or heap-resident nodes are dead by
    /// definition and the containers can be cleared wholesale — this
    /// keeps cancel-heavy idle periods from accumulating junk.
    fn sweep(&mut self) {
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            for slot in 0..SLOTS {
                let mut head = std::mem::replace(&mut self.levels[level][slot], NIL);
                while head != NIL {
                    let next = self.slab[head as usize].next;
                    self.free(head);
                    head = next;
                }
            }
            self.occupied[level] = 0;
        }
        while let Some(Reverse((_, _, idx))) = self.due.pop() {
            self.free(idx);
        }
        while let Some(Reverse((_, _, idx))) = self.overflow.pop() {
            self.free(idx);
        }
        self.dead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3u32);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 0u8);
        q.pop();
        q.schedule_in(SimDuration::from_secs(2), 1u8);
        assert_eq!(q.pop(), Some((SimTime::from_secs(7), 1u8)));
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 'b')));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
        assert!(!q.cancel(EventId::new(7, 3)));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    /// The post-cancel length contract (regression for the old
    /// representation, where `len` was derived from container sizes
    /// rather than counted): `cancel` must be reflected by `len` /
    /// `is_empty` immediately, before any pop or peek reclaims the
    /// node, and must stay exact through partial cancellation.
    #[test]
    fn len_is_exact_after_cancel_without_pop() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..6u32)
            .map(|i| q.schedule(SimTime::from_secs(i as u64 + 1), i))
            .collect();
        assert_eq!(q.len(), 6);
        assert!(q.cancel(ids[0]));
        assert!(q.cancel(ids[3]));
        // No pop or peek has run: the dead nodes are still linked
        // internally, but the public count excludes them already.
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
        for id in &ids {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 0);
        assert!(q.is_empty(), "all-cancelled queue reads empty pre-pop");
        assert_eq!(q.pop(), None);
        assert_eq!(q.dead, 0, "empty-queue settle swept the dead nodes");
    }

    #[test]
    fn cancel_after_fire_is_false_and_leaks_nothing() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 'a');
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 'a')));
        assert!(!q.cancel(a), "the event already fired");
        assert_eq!(q.dead, 0, "no cancellation state retained");
        assert_eq!(q.len(), 0);
        // A fault-heavy pattern: many schedule/fire/late-cancel cycles
        // must not grow the queue's internal state or corrupt `len`.
        for _ in 0..1000 {
            let id = q.schedule_in(SimDuration::from_millis(1), 'x');
            q.pop();
            assert!(!q.cancel(id));
        }
        assert_eq!(q.dead, 0);
        assert_eq!(q.len(), 0);
        assert_eq!(q.slab.len(), 1, "slot recycling reuses one arena cell");
    }

    #[test]
    fn recycled_slot_ids_do_not_alias() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 'a');
        q.pop();
        // 'b' reuses 'a''s slab cell; the stale handle must miss.
        let b = q.schedule(SimTime::from_secs(2), 'b');
        assert_eq!(a.idx(), b.idx(), "slot is recycled");
        assert!(!q.cancel(a), "stale generation misses");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 'b')));
    }

    #[test]
    fn cancelled_nodes_reclaimed_as_they_surface() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..8u32)
            .map(|i| q.schedule(SimTime::from_secs(i as u64 + 1), i))
            .collect();
        for id in &ids[..4] {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.dead, 4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 4)));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_cascade_between_levels() {
        let mut q = EventQueue::new();
        // Spread across every wheel level and the overflow heap:
        // 10 µs, ~4 ms, ~0.26 s, ~17 s, ~18 min, ~19 h, ~51 d, ~60 d.
        let times: Vec<u64> = (0..7).map(|l| 10u64 * 64u64.pow(l)).collect();
        let beyond = (1u64 << WHEEL_BITS) + 12_345;
        let mut expect = Vec::new();
        for (i, &t) in times.iter().chain(std::iter::once(&beyond)).enumerate() {
            q.schedule(SimTime::from_micros(t), i);
            expect.push((t, i));
        }
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_micros(), e))).collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn same_timestamp_burst_after_cascade_stays_fifo() {
        let mut q = EventQueue::new();
        // A burst at a single far-future instant has to survive
        // several level cascades without perturbing FIFO order.
        let t = SimTime::from_micros(5 * 64u64.pow(4) + 17);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn event_scheduled_behind_the_cursor_still_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 'z');
        // Peek advances the internal cursor to 10 s...
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        // ...but a later schedule for an earlier instant must still
        // pop first (it routes to the due heap, not the wheel).
        q.schedule(SimTime::from_secs(1), 'a');
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 'a')));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 'z')));
    }

    #[test]
    fn cancel_works_while_event_sits_in_due_heap() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 'a');
        let b = q.schedule(SimTime::from_secs(1), 'b');
        // Force both into the due heap via the cursor advance...
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        // ...then cancel one of them after the fact.
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 'b')));
        assert!(!q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_entries_rejoin_wheel_before_new_schedules() {
        let mut q = EventQueue::new();
        let horizon = 1u64 << WHEEL_BITS;
        // Two events beyond the wheel horizon, in the same far region.
        q.schedule(SimTime::from_micros(horizon + 100), 'x');
        q.schedule(SimTime::from_micros(horizon + 500), 'y');
        // Pop the first: the cursor jumps into the far region and must
        // drag 'y' out of overflow into the wheel...
        assert_eq!(q.pop(), Some((SimTime::from_micros(horizon + 100), 'x')));
        // ...so a fresh schedule between cursor and 'y' cannot
        // leapfrog it.
        q.schedule(SimTime::from_micros(horizon + 300), 'm');
        assert_eq!(q.pop(), Some((SimTime::from_micros(horizon + 300), 'm')));
        assert_eq!(q.pop(), Some((SimTime::from_micros(horizon + 500), 'y')));
    }

    #[test]
    fn backlog_in_compact_form_merges_by_time_then_sequence() {
        // `u32` backlog entries become `u64` events as they pop.
        let mut q: EventQueue<u64, u32> = EventQueue::default();
        let t = SimTime::from_secs;
        q.schedule(t(2), 20);
        q.load_backlog([(t(3), 31), (t(1), 10), (t(2), 21)]);
        q.schedule(t(2), 22);
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.pop_before(t(1)), None, "the bound is exclusive");
        assert_eq!(q.pop_before(t(2)), Some((t(1), 10)));
        // Three events tie at 2 s: scheduling order decides, whichever
        // side of the merge each waits on.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [20, 21, 22, 31]);
        assert_eq!(q.now(), t(3));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_cancel_matches_reference_model() {
        // Deterministic pseudo-random interleaving against a stable
        // sort reference (the proptest suite covers the random space;
        // this pins one reproducible trajectory in-module).
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64, u32)> = Vec::new(); // (at, seq, tag)
        let mut seq = 0u64;
        let mut ids = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut popped = Vec::new();
        let mut expect = Vec::new();
        for i in 0..2000u32 {
            let r = step();
            match r % 10 {
                0..=5 => {
                    let at = q.now().as_micros() + r % 5000;
                    ids.push((q.schedule(SimTime::from_micros(at), i), i));
                    reference.push((at.max(q.now().as_micros()), seq, i));
                    seq += 1;
                }
                6..=7 => {
                    if !ids.is_empty() {
                        let k = (r as usize / 16) % ids.len();
                        let (id, tag) = ids.swap_remove(k);
                        if q.cancel(id) {
                            reference.retain(|&(_, _, t)| t != tag);
                        }
                    }
                }
                _ => {
                    if let Some((t, tag)) = q.pop() {
                        popped.push((t.as_micros(), tag));
                        reference.sort_by_key(|&(at, s, _)| (at, s));
                        let (at, _, rt) = reference.remove(0);
                        expect.push((at, rt));
                    }
                }
            }
            assert_eq!(q.len(), reference.len(), "len stays exact at step {i}");
        }
        while let Some((t, tag)) = q.pop() {
            popped.push((t.as_micros(), tag));
            reference.sort_by_key(|&(at, s, _)| (at, s));
            let (at, _, rt) = reference.remove(0);
            expect.push((at, rt));
        }
        assert_eq!(popped, expect);
        assert!(reference.is_empty());
    }
}
