//! Model-based audits: seeded scripts drive a component alongside an
//! independent reference model (closed-form fair sharing, a shadow
//! cache, a sorted replay), and any disagreement is a violation.
//!
//! Every audit is generic over a small trait so the planted-bug tests
//! can substitute a deliberately lying implementation and watch the
//! auditor fire; production code always audits the real component via
//! the provided adapters.

use crate::audit::Audit;
use crate::invariants::{
    ENODEV_GATE, EVENT_MONOTONICITY, LINK_CONSERVATION, WAREHOUSE_CONSISTENCY,
};
use hostkernel::module::module_by_name;
use hostkernel::{DeviceKind, HostSpec, Kernel, KernelError};
use netsim::SharedLink;
use rattrap::{aid_of, Aid, AppWarehouse};
use simkit::{EventQueue, JobId, SimRng, SimTime};
use virt::InstanceId;

// ---------------------------------------------------------------------
// Shared-link byte conservation
// ---------------------------------------------------------------------

/// A contended byte medium under audit.
pub trait Medium {
    /// Start a transfer of `bytes` tagged `tag` at `now`.
    fn begin(&mut self, now: SimTime, bytes: u64, tag: u32);
    /// Interrupt the transfer tagged `tag`; bytes NOT yet delivered.
    fn interrupt(&mut self, now: SimTime, tag: u32) -> Option<f64>;
    /// Drive to quiescence; completions as `(finish, tag)`.
    fn drain(&mut self) -> Vec<(SimTime, u32)>;
}

/// The real [`SharedLink`] behind the [`Medium`] trait.
pub struct FairLink {
    link: SharedLink<u32>,
    queue: EventQueue<u64>,
    jobs: Vec<(u32, JobId)>,
}

impl FairLink {
    /// A link of `capacity_bps` aggregate bandwidth, no per-flow cap.
    pub fn new(capacity_bps: f64) -> Self {
        FairLink {
            link: SharedLink::new(capacity_bps, capacity_bps),
            queue: EventQueue::new(),
            jobs: Vec::new(),
        }
    }
}

impl Medium for FairLink {
    fn begin(&mut self, now: SimTime, bytes: u64, tag: u32) {
        let job = self.link.begin_transfer(now, bytes, tag);
        self.jobs.push((tag, job));
        self.link.reschedule(now, &mut self.queue, |e| e);
    }

    fn interrupt(&mut self, now: SimTime, tag: u32) -> Option<f64> {
        let job = self.jobs.iter().find(|(t, _)| *t == tag)?.1;
        let (_, remaining) = self.link.interrupt(now, job)?;
        self.link.reschedule(now, &mut self.queue, |e| e);
        Some(remaining)
    }

    fn drain(&mut self) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some((now, epoch)) = self.queue.pop() {
            if let Some(done) = self.link.poll(now, epoch) {
                out.extend(done.into_iter().map(|(_, tag)| (now, tag)));
                self.link.reschedule(now, &mut self.queue, |e| e);
            }
        }
        out
    }
}

/// Audit byte conservation on a fair-shared medium against the
/// closed-form model: `flows` equal transfers of `bytes` starting
/// together each get `capacity/flows`; interrupting one at `t_cut`
/// must report exactly `bytes - (capacity/flows)·t_cut` bytes
/// reversed, and the survivors — whose share rises — finish when the
/// remaining work drains at the new rate. Charged == delivered +
/// reversed, job by job.
pub fn audit_medium<M: Medium>(make: impl Fn(f64) -> M, seed: u64, rounds: u32, audit: &mut Audit) {
    let mut rng = SimRng::new(seed);
    for round in 0..rounds {
        let capacity = 250_000.0 * rng.uniform_u64(2, 16) as f64;
        let flows = rng.uniform_u64(2, 5) as u32;
        let bytes = rng.uniform_u64(200_000, 2_000_000);
        let mut m = make(capacity);
        for tag in 0..flows {
            m.begin(SimTime::ZERO, bytes, tag);
        }
        // Cut flow 0 somewhere strictly inside its fair-share lifetime.
        let full_span = flows as f64 * bytes as f64 / capacity;
        let t_cut = SimTime::from_secs_f64(full_span * rng.uniform(0.15, 0.85));
        let share = capacity / flows as f64;
        let expect_reversed = bytes as f64 - share * t_cut.as_secs_f64();
        let subject = format!("round {round} (c={capacity} n={flows} b={bytes})");

        match m.interrupt(t_cut, 0) {
            None => audit.fail(
                LINK_CONSERVATION,
                subject.clone(),
                "in-flight transfer not interruptible".to_string(),
            ),
            Some(reversed) => {
                // Conservation: delivered + reversed == charged, where
                // delivered is what the fair-share model says crossed.
                let tol = (bytes as f64).max(1.0) * 1e-6 + capacity * 2e-6;
                audit.ensure(
                    LINK_CONSERVATION,
                    (reversed - expect_reversed).abs() <= tol,
                    subject.clone(),
                    || {
                        format!(
                            "interrupt at {t_cut} reversed {reversed} bytes, model says {expect_reversed}"
                        )
                    },
                );
            }
        }

        // Survivors: remaining work per flow drains at the post-cut
        // share capacity/(flows-1), all finishing together.
        let done_each = share * t_cut.as_secs_f64();
        let expect_finish =
            t_cut.as_secs_f64() + (bytes as f64 - done_each) * (flows - 1) as f64 / capacity;
        let completions = m.drain();
        audit.ensure(
            LINK_CONSERVATION,
            completions.len() == (flows - 1) as usize,
            subject.clone(),
            || {
                format!(
                    "{} survivors completed, expected {}",
                    completions.len(),
                    flows - 1
                )
            },
        );
        for (at, tag) in &completions {
            audit.ensure(
                LINK_CONSERVATION,
                (at.as_secs_f64() - expect_finish).abs() <= expect_finish * 1e-4 + 0.01,
                subject.clone(),
                || {
                    format!(
                        "flow {tag} finished at {at}, fair-share model says {expect_finish:.6}s"
                    )
                },
            );
        }
    }
}

// ---------------------------------------------------------------------
// ENODEV gating
// ---------------------------------------------------------------------

/// Result of touching a device node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevAccess {
    /// The driver answered.
    Granted,
    /// `ENODEV` — the module is gone.
    Enodev,
    /// Any other error.
    Other,
}

/// A kernel's module/device surface under audit.
pub trait DeviceGate {
    /// `insmod`; idempotent.
    fn load(&mut self, module: &'static str);
    /// `rmmod`; `false` if it could not unload.
    fn unload(&mut self, module: &'static str) -> bool;
    /// Whether the module is resident.
    fn loaded(&self, module: &'static str) -> bool;
    /// Touch the device node backed by `module`.
    fn touch(&mut self, module: &'static str) -> DevAccess;
}

/// The real [`Kernel`] behind [`DeviceGate`], one namespace with every
/// Android device pre-opened.
pub struct KernelGate {
    k: Kernel,
    ns: u32,
}

impl KernelGate {
    /// A booted kernel with the full Android container driver and one
    /// namespace holding every device node.
    pub fn new() -> Self {
        let mut k = Kernel::new(HostSpec::paper_server());
        k.load_android_container_driver();
        let ns = k.create_namespace();
        for kind in DeviceKind::ALL {
            k.open_device(ns, kind).expect("driver loaded");
        }
        KernelGate { k, ns }
    }
}

impl Default for KernelGate {
    fn default() -> Self {
        Self::new()
    }
}

/// The modules the gate audit toggles, with the driver surface each
/// one backs.
pub const GATED_MODULES: &[&str] = &["android_alarm.ko", "android_logger.ko", "ashmem.ko"];

impl DeviceGate for KernelGate {
    fn load(&mut self, module: &'static str) {
        self.k.load_module(module).expect("known module loads");
    }

    fn unload(&mut self, module: &'static str) -> bool {
        self.k.unload_module(module).is_ok()
    }

    fn loaded(&self, module: &'static str) -> bool {
        self.k.module_loaded(module)
    }

    fn touch(&mut self, module: &'static str) -> DevAccess {
        let kind = module_by_name(module)
            .expect("gated modules are known")
            .provides[0];
        match self.k.device(self.ns, kind) {
            Ok(()) => DevAccess::Granted,
            Err(KernelError::NoSuchDevice { .. }) => DevAccess::Enodev,
            Err(_) => DevAccess::Other,
        }
    }
}

/// Audit the ENODEV contract: touching a device answers iff its module
/// is resident, and fails with exactly `ENODEV` otherwise — under a
/// seeded load/unload/touch script.
pub fn audit_device_gate<G: DeviceGate>(gate: &mut G, seed: u64, steps: u32, audit: &mut Audit) {
    let mut rng = SimRng::new(seed);
    for step in 0..steps {
        let module = GATED_MODULES[rng.uniform_u64(0, GATED_MODULES.len() as u64 - 1) as usize];
        match rng.uniform_u64(0, 3) {
            0 => gate.load(module),
            1 => {
                gate.unload(module);
            }
            _ => {
                let resident = gate.loaded(module);
                let access = gate.touch(module);
                let expect = if resident {
                    DevAccess::Granted
                } else {
                    DevAccess::Enodev
                };
                audit.ensure(
                    ENODEV_GATE,
                    access == expect,
                    format!("step {step}: {module}"),
                    || format!("module resident={resident}, access was {access:?}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Warehouse CID-hint consistency
// ---------------------------------------------------------------------

/// A code cache under audit (the App Warehouse surface the dispatcher
/// trusts for CID-affinity placement).
pub trait CodeCache {
    /// Was the code cached? (Counts a hit or a miss.)
    fn lookup(&mut self, aid: &Aid) -> bool;
    /// Store code after a transfer.
    fn insert(&mut self, aid: Aid, app_id: &str, code_bytes: u64);
    /// Record that `container` holds `aid`'s code warm.
    fn note_loaded(&mut self, aid: &Aid, container: InstanceId);
    /// Forget a torn-down container everywhere.
    fn invalidate(&mut self, container: InstanceId);
    /// Containers advertised as warm for `aid`.
    fn containers_with(&self, aid: &Aid) -> Vec<InstanceId>;
    /// (hits, misses, bytes_saved).
    fn stats(&self) -> (u64, u64, u64);
}

impl CodeCache for AppWarehouse {
    fn lookup(&mut self, aid: &Aid) -> bool {
        AppWarehouse::lookup(self, aid)
    }
    fn insert(&mut self, aid: Aid, app_id: &str, code_bytes: u64) {
        AppWarehouse::insert(self, aid, app_id, code_bytes)
    }
    fn note_loaded(&mut self, aid: &Aid, container: InstanceId) {
        AppWarehouse::note_loaded(self, aid, container);
    }
    fn invalidate(&mut self, container: InstanceId) {
        AppWarehouse::invalidate_container(self, container)
    }
    fn containers_with(&self, aid: &Aid) -> Vec<InstanceId> {
        AppWarehouse::containers_with(self, aid).to_vec()
    }
    fn stats(&self) -> (u64, u64, u64) {
        let s = AppWarehouse::stats(self);
        (s.hits, s.misses, s.bytes_saved)
    }
}

/// Audit warehouse/CID-hint consistency against a shadow model: a hint
/// may only name a container that was noted warm for that app and not
/// invalidated since, and hit/miss/bytes-saved counters must match the
/// shadow exactly. The script stays under the eviction threshold so the
/// shadow is exact.
pub fn audit_code_cache<C: CodeCache>(cache: &mut C, seed: u64, steps: u32, audit: &mut Audit) {
    use std::collections::{BTreeMap, BTreeSet};
    let mut rng = SimRng::new(seed);
    let apps: Vec<(Aid, String, u64)> = (0..6)
        .map(|i| {
            let name = format!("com.audit.app{i}");
            (aid_of(&name), name, 50_000 + 10_000 * i)
        })
        .collect();
    // Shadow: aid → (bytes, warm containers), plus expected counters.
    let mut shadow: BTreeMap<Aid, (u64, BTreeSet<InstanceId>)> = BTreeMap::new();
    let (mut hits, mut misses, mut saved) = (0u64, 0u64, 0u64);
    for step in 0..steps {
        let (aid, name, bytes) = &apps[rng.uniform_u64(0, apps.len() as u64 - 1) as usize];
        match rng.uniform_u64(0, 4) {
            0 => {
                cache.insert(*aid, name, *bytes);
                shadow.insert(*aid, (*bytes, BTreeSet::new()));
            }
            1 => {
                let c = InstanceId(rng.uniform_u64(0, 7) as u32);
                cache.note_loaded(aid, c);
                if let Some((_, warm)) = shadow.get_mut(aid) {
                    warm.insert(c);
                }
            }
            2 => {
                let c = InstanceId(rng.uniform_u64(0, 7) as u32);
                cache.invalidate(c);
                for (_, warm) in shadow.values_mut() {
                    warm.remove(&c);
                }
            }
            _ => {
                let hit = cache.lookup(aid);
                let cached = shadow.contains_key(aid);
                audit.ensure(
                    WAREHOUSE_CONSISTENCY,
                    hit == cached,
                    format!("step {step}: lookup {name}"),
                    || format!("cache said hit={hit}, shadow says cached={cached}"),
                );
                if cached {
                    hits += 1;
                    saved += shadow[aid].0;
                } else {
                    misses += 1;
                }
            }
        }
        // Hints must be a subset of the shadow's warm set, always.
        let hinted = cache.containers_with(aid);
        let warm = shadow.get(aid).map(|(_, w)| w.clone()).unwrap_or_default();
        for c in &hinted {
            audit.ensure(
                WAREHOUSE_CONSISTENCY,
                warm.contains(c),
                format!("step {step}: hints for {name}"),
                || format!("hint names container {} which is not warm", c.0),
            );
        }
    }
    let (ch, cm, cs) = cache.stats();
    audit.ensure(
        WAREHOUSE_CONSISTENCY,
        (ch, cm, cs) == (hits, misses, saved),
        "stats",
        || {
            format!(
                "cache counters (h={ch} m={cm} saved={cs}) vs shadow (h={hits} m={misses} saved={saved})"
            )
        },
    );
}

// ---------------------------------------------------------------------
// Event-queue monotonicity (slot generations at the engine root)
// ---------------------------------------------------------------------

/// A deterministic timeline under audit.
pub trait Timeline {
    /// Schedule `tag` at `at`; returns a cancellation handle.
    fn schedule(&mut self, at: SimTime, tag: u32) -> u64;
    /// Cancel a handle; `true` if it had not fired.
    fn cancel(&mut self, id: u64) -> bool;
    /// Pop the next event.
    fn pop(&mut self) -> Option<(SimTime, u32)>;
}

/// The real [`EventQueue`] behind [`Timeline`].
#[derive(Default)]
pub struct EngineTimeline {
    q: EventQueue<u32>,
    ids: Vec<simkit::EventId>,
}

impl Timeline for EngineTimeline {
    fn schedule(&mut self, at: SimTime, tag: u32) -> u64 {
        let id = self.q.schedule(at, tag);
        self.ids.push(id);
        self.ids.len() as u64 - 1
    }
    fn cancel(&mut self, id: u64) -> bool {
        self.q.cancel(self.ids[id as usize])
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.q.pop()
    }
}

/// Audit the engine-root ordering contract: pops are non-decreasing in
/// time, same-instant events pop in scheduling order (the generation /
/// slot-reuse guarantee every upper layer leans on), cancelled events
/// never fire, and nothing is lost or invented.
pub fn audit_timeline<T: Timeline>(timeline: &mut T, seed: u64, events: u32, audit: &mut Audit) {
    let mut rng = SimRng::new(seed);
    // Schedule with deliberately heavy timestamp collisions.
    let mut expected: Vec<(SimTime, u32)> = Vec::new(); // live events in scheduling order
    let mut handles = Vec::new();
    for tag in 0..events {
        let at = SimTime::from_secs(rng.uniform_u64(0, 7));
        handles.push((timeline.schedule(at, tag), at, tag));
    }
    let mut cancelled = std::collections::BTreeSet::new();
    for &(h, _, tag) in &handles {
        if rng.bernoulli(0.3) && timeline.cancel(h) {
            cancelled.insert(tag);
        }
    }
    for &(_, at, tag) in &handles {
        if !cancelled.contains(&tag) {
            expected.push((at, tag));
        }
    }
    // Reference order: stable sort by time keeps scheduling order for
    // ties — exactly the FIFO-tie contract.
    expected.sort_by_key(|&(at, _)| at);
    let mut popped = Vec::new();
    while let Some(ev) = timeline.pop() {
        popped.push(ev);
    }
    audit.ensure(
        EVENT_MONOTONICITY,
        popped.len() == expected.len(),
        "timeline",
        || {
            format!(
                "{} events popped, {} live after cancellations",
                popped.len(),
                expected.len()
            )
        },
    );
    let mut last = SimTime::ZERO;
    for (i, &(at, tag)) in popped.iter().enumerate() {
        audit.ensure(EVENT_MONOTONICITY, at >= last, format!("pop {i}"), || {
            format!("time ran backwards: {last} then {at}")
        });
        last = at;
        audit.ensure(
            EVENT_MONOTONICITY,
            !cancelled.contains(&tag),
            format!("pop {i}"),
            || format!("cancelled event {tag} fired anyway"),
        );
        if let Some(&(e_at, e_tag)) = expected.get(i) {
            audit.ensure(
                EVENT_MONOTONICITY,
                (at, tag) == (e_at, e_tag),
                format!("pop {i}"),
                || format!("popped ({at}, {tag}), reference order says ({e_at}, {e_tag})"),
            );
        }
    }

    // Phase 2: interleaved schedule/pop/cancel under churn. The bulk
    // phase above loads everything up front; real engines mix the three
    // constantly, and deltas here deliberately span every time scale —
    // same-instant bursts, microseconds, seconds, and far-future
    // timers past 2^42 µs.
    let mut now = last;
    // Live events in scheduling order: (handle, at, tag). Tags increase
    // with scheduling, so min-by (at, tag) is exactly the FIFO-tie
    // reference order.
    let mut live: Vec<(u64, SimTime, u32)> = Vec::new();
    let mut next_tag = events;
    for step in 0..events * 2 {
        let op = rng.uniform_u64(0, 9);
        if op < 4 {
            let delta = match rng.uniform_u64(0, 3) {
                0 => 0,
                1 => rng.uniform_u64(0, 63),
                2 => rng.uniform_u64(64, 1 << 24),
                _ => rng.uniform_u64(1 << 24, 1 << 43),
            };
            let at = SimTime::from_micros(now.as_micros() + delta);
            let h = timeline.schedule(at, next_tag);
            live.push((h, at, next_tag));
            next_tag += 1;
        } else if op < 8 || live.is_empty() {
            let reference = live
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(_, at, tag))| (at, tag))
                .map(|(i, _)| i);
            match (timeline.pop(), reference) {
                (Some((at, tag)), Some(i)) => {
                    let (_, e_at, e_tag) = live.remove(i);
                    audit.ensure(
                        EVENT_MONOTONICITY,
                        (at, tag) == (e_at, e_tag),
                        format!("churn step {step}"),
                        || format!("popped ({at}, {tag}), reference says ({e_at}, {e_tag})"),
                    );
                    audit.ensure(
                        EVENT_MONOTONICITY,
                        at >= now,
                        format!("churn step {step}"),
                        || format!("time ran backwards: {now} then {at}"),
                    );
                    now = at;
                }
                (None, None) => {}
                (got, want) => {
                    audit.ensure(
                        EVENT_MONOTONICITY,
                        false,
                        format!("churn step {step}"),
                        || format!("pop returned {got:?} but reference index is {want:?}"),
                    );
                    // Keep the audit clock in sync with whatever the
                    // (buggy) queue returned, so later schedules stay
                    // legal and the audit records failures instead of
                    // tripping the queue's own past-schedule assert.
                    if let Some((at, _)) = got {
                        now = now.max(at);
                    }
                }
            }
        } else {
            let i = rng.uniform_u64(0, live.len() as u64 - 1) as usize;
            let (h, _, _) = live.remove(i);
            audit.ensure(
                EVENT_MONOTONICITY,
                timeline.cancel(h),
                format!("churn step {step}"),
                || "live event refused cancellation".to_owned(),
            );
        }
    }
    // Drain what churn left behind; the full remainder must come out in
    // reference order.
    live.sort_by_key(|&(_, at, tag)| (at, tag));
    for (i, &(_, e_at, e_tag)) in live.iter().enumerate() {
        let got = timeline.pop();
        audit.ensure(
            EVENT_MONOTONICITY,
            got == Some((e_at, e_tag)),
            format!("churn drain {i}"),
            || format!("popped {got:?}, reference says ({e_at}, {e_tag})"),
        );
    }
    audit.ensure(
        EVENT_MONOTONICITY,
        timeline.pop().is_none(),
        "churn drain end",
        || "queue still yields events after the reference model is empty".to_owned(),
    );
}
