//! Dispatcher + Container DB (§IV-A).
//!
//! The Container DB stores the state of every runtime instance as the
//! basis of resource management; the Dispatcher allocates execution
//! environments for arriving requests. With the cache table's CID
//! column it "tends to allocate offloading tasks to the Cloud Android
//! Container where requests from the same application have been
//! executed before, which saves the time for loading codes" (§IV-D).

use simkit::{IdTable, SimTime};
use std::collections::VecDeque;
use virt::{Aid, InstanceId};

/// Lifecycle state of a runtime instance as tracked by the Container DB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Still booting.
    Booting,
    /// Ready to execute offloaded code.
    Ready,
}

/// What the simulation engine keeps per live instance: the part of a
/// record it may write through [`ContainerDb::runtime_mut`].
#[derive(Debug, Default, PartialEq)]
pub struct Runtime {
    /// A request is in service (code load, compute or offloading I/O).
    pub busy: bool,
    /// Requests (engine slots) waiting for the runtime to come free,
    /// first come first.
    pub queue: VecDeque<usize>,
    /// Requests waiting for the instance to finish booting.
    pub boot_waiters: Vec<usize>,
    /// Apps whose code a client already pushed into this runtime — the
    /// clients' own record, used by the cache-less platforms.
    pub code_pushed: Vec<Aid>,
}

/// One Container DB record: the only per-instance row of the paper
/// engine.
#[derive(Debug)]
pub struct ContainerRecord {
    /// The instance.
    pub id: InstanceId,
    /// Current state.
    pub state: InstanceState,
    /// Requests currently executing or queued on the instance.
    pub active_jobs: u32,
    /// Last time the instance finished a job (for idle reclamation).
    pub last_active: SimTime,
    /// Device that owns this instance (VM-per-device model), if any.
    pub owner_device: Option<u32>,
    /// The engine's runtime state.
    pub runtime: Runtime,
}

/// An ordered set small enough to live in one sorted `Vec`: unlike a
/// `BTreeSet` it keeps its allocation when it empties, and the DB's
/// indexes empty and refill with every request.
#[derive(Debug)]
struct SortedSet<T>(Vec<T>);

impl<T> Default for SortedSet<T> {
    fn default() -> Self {
        SortedSet(Vec::new())
    }
}

impl<T: Ord + Copy> SortedSet<T> {
    fn insert(&mut self, value: T) {
        if let Err(at) = self.0.binary_search(&value) {
            self.0.insert(at, value);
        }
    }

    fn remove(&mut self, value: T) {
        if let Ok(at) = self.0.binary_search(&value) {
            self.0.remove(at);
        }
    }

    fn first(&self) -> Option<T> {
        self.0.first().copied()
    }
}

/// The Container DB.
///
/// Besides the records it keeps what the Dispatcher and the Scheduler
/// ask of them per request — how many instances are booting, which are
/// ready and idle, which of the shared pool is least loaded, which one a
/// device owns — as indexes updated where a record changes, so no
/// question walks the records. `state`, `active_jobs` and `owner_device`
/// are therefore written only by the methods below; the engine writes a
/// record's [`Runtime`] through [`ContainerDb::runtime_mut`].
#[derive(Debug, Default)]
pub struct ContainerDb {
    records: IdTable<ContainerRecord>,
    /// Records in `InstanceState::Booting`.
    booting: usize,
    /// Ids of ready records with no active job.
    ready_idle: SortedSet<u32>,
    /// `(active_jobs, id)` of every record no device owns: the shared
    /// pool. An owned instance only ever takes its owner's requests.
    pool_by_load: SortedSet<(u32, u32)>,
    /// `(owner_device, id)` of every owned record.
    owned: SortedSet<(u32, u32)>,
}

impl ContainerDb {
    /// Empty DB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a newly provisioned instance, booting until `ready_at`
    /// (its idle clock starts there).
    pub fn register(&mut self, id: InstanceId, ready_at: SimTime, owner_device: Option<u32>) {
        self.remove(id);
        self.booting += 1;
        match owner_device {
            Some(device) => self.owned.insert((device, id.0)),
            None => self.pool_by_load.insert((0, id.0)),
        }
        self.records.insert(
            id.0,
            ContainerRecord {
                id,
                state: InstanceState::Booting,
                active_jobs: 0,
                last_active: ready_at,
                owner_device,
                runtime: Runtime::default(),
            },
        );
    }

    /// Mark an instance ready (boot completed).
    pub fn mark_ready(&mut self, id: InstanceId) {
        if let Some(r) = self.records.get_mut(id.0) {
            if r.state == InstanceState::Booting {
                self.booting -= 1;
                if r.active_jobs == 0 {
                    self.ready_idle.insert(id.0);
                }
            }
            r.state = InstanceState::Ready;
        }
    }

    /// Remove a record (teardown).
    pub fn remove(&mut self, id: InstanceId) -> Option<ContainerRecord> {
        let r = self.records.remove(id.0)?;
        if r.state == InstanceState::Booting {
            self.booting -= 1;
        }
        self.ready_idle.remove(id.0);
        match r.owner_device {
            Some(device) => self.owned.remove((device, id.0)),
            None => self.pool_by_load.remove((r.active_jobs, id.0)),
        }
        Some(r)
    }

    /// Record lookup.
    pub fn get(&self, id: InstanceId) -> Option<&ContainerRecord> {
        self.records.get(id.0)
    }

    /// The engine's writable part of `id`'s record.
    pub fn runtime_mut(&mut self, id: InstanceId) -> Option<&mut Runtime> {
        self.records.get_mut(id.0).map(|r| &mut r.runtime)
    }

    /// Move `id`'s job count one up or one down (never below zero),
    /// keeping the indexes in step.
    fn step_jobs(&mut self, id: InstanceId, up: bool) -> Option<&mut ContainerRecord> {
        let r = self.records.get_mut(id.0)?;
        let before = r.active_jobs;
        r.active_jobs = if up {
            before + 1
        } else {
            before.saturating_sub(1)
        };
        if r.active_jobs != before {
            if r.owner_device.is_none() {
                self.pool_by_load.remove((before, id.0));
                self.pool_by_load.insert((r.active_jobs, id.0));
            }
            if r.state == InstanceState::Ready {
                if before == 0 {
                    self.ready_idle.remove(id.0);
                } else if r.active_jobs == 0 {
                    self.ready_idle.insert(id.0);
                }
            }
        }
        Some(r)
    }

    /// A request was placed on `id`: one more active job. Unknown ids
    /// are ignored.
    pub fn add_job(&mut self, id: InstanceId) {
        self.step_jobs(id, true);
    }

    /// `id` finished serving a job at `now`: one job fewer, and the idle
    /// clock restarts. Unknown ids are ignored.
    pub fn finish_job(&mut self, id: InstanceId, now: SimTime) {
        if let Some(r) = self.step_jobs(id, false) {
            r.last_active = now;
        }
    }

    /// A request left `id` before being served (its attempt died while
    /// uploading or waiting): one job fewer, the idle clock untouched.
    /// Unknown ids are ignored.
    pub fn withdraw_job(&mut self, id: InstanceId) {
        self.step_jobs(id, false);
    }

    /// All records in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ContainerRecord> {
        self.records.values()
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no instances exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of instances still booting.
    pub fn booting(&self) -> usize {
        let scan = || self.iter().filter(|r| r.state != InstanceState::Ready);
        debug_assert_eq!(self.booting, scan().count());
        self.booting
    }

    /// Number of ready instances with no active job.
    pub fn ready_idle(&self) -> usize {
        self.ready_idle.0.len()
    }

    /// The lowest-id ready instance with no active job.
    fn first_ready_idle(&self) -> Option<InstanceId> {
        let scan = || {
            let idle = |r: &&ContainerRecord| r.state == InstanceState::Ready && r.active_jobs == 0;
            self.iter().find(idle).map(|r| r.id)
        };
        let first = self.ready_idle.first().map(InstanceId);
        debug_assert_eq!(first, scan());
        first
    }

    /// The shared-pool instance (no owner) with the fewest active jobs
    /// (lowest id on a tie), booting ones included.
    fn least_loaded(&self) -> Option<InstanceId> {
        let scan = || {
            let pool = self.iter().filter(|r| r.owner_device.is_none());
            pool.min_by_key(|r| (r.active_jobs, r.id.0)).map(|r| r.id)
        };
        let least = self.pool_by_load.first().map(|(_, id)| InstanceId(id));
        debug_assert_eq!(least, scan());
        least
    }

    /// The lowest-id instance owned by `device` (VM-per-device model).
    fn owned_by(&self, device: u32) -> Option<InstanceId> {
        let scan = || self.iter().find(|r| r.owner_device == Some(device));
        let from = self.owned.0.partition_point(|&(d, _)| d < device);
        let owned = self.owned.0.get(from).filter(|&&(d, _)| d == device);
        let owned = owned.map(|&(_, id)| InstanceId(id));
        debug_assert_eq!(owned, scan().map(|r| r.id));
        owned
    }

    /// Ready instances with no jobs and the time each went idle, in id
    /// order.
    pub(crate) fn idle(&self) -> impl Iterator<Item = (InstanceId, SimTime)> + '_ {
        let since = |&id: &u32| self.get(InstanceId(id)).map(|r| (r.id, r.last_active));
        self.ready_idle.0.iter().filter_map(since)
    }
}

/// Where the dispatcher decided to run a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Run on this existing instance (ready or still booting).
    Existing(InstanceId),
    /// No suitable instance: the platform must provision a new one.
    Provision,
}

/// Dispatcher policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchPolicy {
    /// One instance per device (the VM-based baseline) instead of a
    /// shared pool.
    pub per_device_instances: bool,
    /// Use the cache table's CID column to prefer instances that have
    /// already loaded the app's code.
    pub cache_affinity: bool,
    /// Hard cap on pool size (shared-pool mode).
    pub max_instances: usize,
}

/// The Dispatcher.
#[derive(Debug)]
pub struct Dispatcher {
    policy: DispatchPolicy,
}

impl Dispatcher {
    /// A dispatcher with the given policy.
    pub fn new(policy: DispatchPolicy) -> Self {
        Dispatcher { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Decide where a request from `device` for app `aid` should run.
    /// `cid_hint` is the warehouse's CID column for the app.
    pub fn place(&self, db: &ContainerDb, device: u32, cid_hint: &[InstanceId]) -> Placement {
        if self.policy.per_device_instances {
            // VM baseline: the device's own VM, provisioned on first use.
            return match db.owned_by(device) {
                Some(id) => Placement::Existing(id),
                None => Placement::Provision,
            };
        }
        // Rattrap pool. 1) cache affinity: a live instance that already
        // loaded the code and is not overloaded.
        if self.policy.cache_affinity {
            let best = cid_hint
                .iter()
                .filter_map(|&id| db.get(id))
                .filter(|r| r.active_jobs < 2)
                .min_by_key(|r| (r.active_jobs, r.id.0));
            if let Some(r) = best {
                return Placement::Existing(r.id);
            }
        }
        // 2) An idle ready instance.
        if let Some(id) = db.first_ready_idle() {
            return Placement::Existing(id);
        }
        // 3) Grow the pool if allowed.
        if db.len() < self.policy.max_instances {
            return Placement::Provision;
        }
        // 4) Least-loaded instance (booting ones count — requests wait).
        match db.least_loaded() {
            Some(id) => Placement::Existing(id),
            None => Placement::Provision,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// After any sequence of register / mark_ready / job changes /
        /// runtime writes / remove, every index answers what a scan of
        /// the records does, and `remove` hands back the runtime state
        /// written since the record was registered.
        #[test]
        fn indexes_equal_a_scan(ops in prop::collection::vec((0u8..9, 0u32..12, 0u32..4), 1..120)) {
            let mut db = ContainerDb::new();
            let mut written: BTreeMap<u32, Runtime> = BTreeMap::new();
            for (step, (op, id, device)) in ops.into_iter().enumerate() {
                let id = InstanceId(id);
                match op {
                    0 => {
                        let owner = (device > 0).then_some(device);
                        db.register(id, t(step as u64), owner);
                        written.insert(id.0, Runtime::default());
                    }
                    1 => db.mark_ready(id),
                    2 => db.add_job(id),
                    3 => db.finish_job(id, t(step as u64)),
                    4 => db.withdraw_job(id),
                    5 => {
                        let record = db.remove(id).map(|r| r.runtime);
                        prop_assert_eq!(record, written.remove(&id.0));
                    }
                    _ => {
                        let rows = db.runtime_mut(id).zip(written.get_mut(&id.0));
                        for r in rows.into_iter().flat_map(|(row, model)| [row, model]) {
                            match op {
                                6 => r.boot_waiters.push(step),
                                7 => r.queue.push_back(step),
                                _ => r.busy = !r.busy,
                            }
                        }
                    }
                }
                let ready_idle = |r: &&ContainerRecord| {
                    r.state == InstanceState::Ready && r.active_jobs == 0
                };
                let booting = db.iter().filter(|r| r.state != InstanceState::Ready).count();
                prop_assert_eq!(db.booting(), booting);
                prop_assert_eq!(db.ready_idle(), db.iter().filter(ready_idle).count());
                prop_assert_eq!(db.first_ready_idle(), db.iter().find(ready_idle).map(|r| r.id));
                let pool = db.iter().filter(|r| r.owner_device.is_none());
                let least = pool.min_by_key(|r| (r.active_jobs, r.id.0));
                prop_assert_eq!(db.least_loaded(), least.map(|r| r.id));
                for device in 0..4 {
                    let owned = db.iter().find(|r| r.owner_device == Some(device));
                    prop_assert_eq!(db.owned_by(device), owned.map(|r| r.id));
                }
                let idle = db.iter().filter(ready_idle).map(|r| (r.id, r.last_active));
                prop_assert_eq!(db.idle().collect::<Vec<_>>(), idle.collect::<Vec<_>>());
            }
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn pool_dispatcher(max: usize) -> Dispatcher {
        Dispatcher::new(DispatchPolicy {
            per_device_instances: false,
            cache_affinity: true,
            max_instances: max,
        })
    }

    #[test]
    fn vm_mode_is_per_device() {
        let d = Dispatcher::new(DispatchPolicy {
            per_device_instances: true,
            cache_affinity: false,
            max_instances: 100,
        });
        let mut db = ContainerDb::new();
        assert_eq!(d.place(&db, 0, &[]), Placement::Provision);
        db.register(InstanceId(0), t(29), Some(0));
        db.register(InstanceId(1), t(29), Some(1));
        assert_eq!(d.place(&db, 0, &[]), Placement::Existing(InstanceId(0)));
        assert_eq!(d.place(&db, 1, &[]), Placement::Existing(InstanceId(1)));
        assert_eq!(
            d.place(&db, 2, &[]),
            Placement::Provision,
            "third device needs its own VM"
        );
    }

    #[test]
    fn cache_affinity_prefers_cid_column() {
        let d = pool_dispatcher(8);
        let mut db = ContainerDb::new();
        for i in 0..3 {
            db.register(InstanceId(i), t(0), None);
            db.mark_ready(InstanceId(i));
        }
        // Instance 2 has the code; instance 0 is idle but cold.
        assert_eq!(
            d.place(&db, 0, &[InstanceId(2)]),
            Placement::Existing(InstanceId(2)),
            "affinity wins over lower-id idle instances"
        );
    }

    #[test]
    fn overloaded_affinity_target_is_skipped() {
        let d = pool_dispatcher(8);
        let mut db = ContainerDb::new();
        db.register(InstanceId(0), t(0), None);
        db.register(InstanceId(1), t(0), None);
        db.mark_ready(InstanceId(0));
        db.mark_ready(InstanceId(1));
        db.add_job(InstanceId(1));
        db.add_job(InstanceId(1));
        assert_eq!(
            d.place(&db, 0, &[InstanceId(1)]),
            Placement::Existing(InstanceId(0)),
            "hot but saturated instance loses to an idle one"
        );
    }

    #[test]
    fn pool_grows_until_cap_then_queues() {
        let d = pool_dispatcher(2);
        let mut db = ContainerDb::new();
        assert_eq!(d.place(&db, 0, &[]), Placement::Provision);
        db.register(InstanceId(0), t(2), None);
        db.add_job(InstanceId(0));
        assert_eq!(
            d.place(&db, 0, &[]),
            Placement::Provision,
            "busy pool below cap grows"
        );
        db.register(InstanceId(1), t(2), None);
        for _ in 0..3 {
            db.add_job(InstanceId(1));
        }
        // At cap: pick the least-loaded even though it's booting.
        assert_eq!(d.place(&db, 0, &[]), Placement::Existing(InstanceId(0)));
    }

    #[test]
    fn idle_since_respects_state_and_jobs() {
        let mut db = ContainerDb::new();
        db.register(InstanceId(0), t(0), None);
        db.register(InstanceId(1), t(0), None);
        db.register(InstanceId(2), t(0), None);
        db.mark_ready(InstanceId(0));
        db.mark_ready(InstanceId(1));
        // 2 stays booting. 1 is busy.
        db.add_job(InstanceId(1));
        db.add_job(InstanceId(0));
        db.finish_job(InstanceId(0), t(10));
        assert_eq!(db.idle().collect::<Vec<_>>(), vec![(InstanceId(0), t(10))]);
    }
}
