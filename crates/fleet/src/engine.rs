//! The fleet engine: N rattrap hosts under a windowed discrete-event
//! runtime, fronted by the Router and governed by admission control,
//! the Autoscaler, and the migration-based Rebalancer.
//!
//! The simulation is decomposed into logical processes for
//! [`simkit::shard`]: **LP 0 is the control plane**
//! ([`crate::control`] — router, admission, autoscaler, rebalancer,
//! the device access network, and the shared interconnect fabric), and
//! **LP `h + 1` is host `h`** — a real `virt::CloudHost` (provisioning
//! runs the full §IV-B pipeline against the simulated kernel) paired
//! with a fair-share CPU executor, an App Warehouse for CID hints, and
//! the host-local instance pool. Each LP owns a private event queue
//! and advances freely inside one conservative sync window
//! ([`FleetConfig::sync_window`], the floor of any cross-host
//! interaction); everything cross-shard — request hand-off, completion
//! notices, crash/drain control, migration state — travels as ordered
//! messages delivered at the next window boundary.
//!
//! This module holds the host shard, the wire protocol, and the fleet
//! front-end: [`run_fleet`] and friends describe a [`FleetConfig`] to
//! the shared control plane as its flat layout — one region, one cell,
//! one zero-RTT fabric — and hand back the [`FleetReport`] it returns.
//!
//! One windowed runner drives every LP on the caller's thread, so the
//! same [`FleetConfig`] reproduces the same [`FleetReport`] bit for
//! bit.

use crate::config::{app_weights, FleetConfig, HostConfig};
use crate::control::{
    CellDecision, CellLayout, ControlLayout, FabricLayout, RegionLayout, STREAM_TRAFFIC,
};
use crate::report::FleetReport;
use netsim::{Direction, Link};
use obsv::{attrs, AttrValue, Recorder, SpanId, Subsystem, TraceSnapshot};
use rattrap::warehouse::{aid_of, Aid};
use rattrap::AppWarehouse;
use simkit::shard::Outbox;
use simkit::{derive_seed, EventQueue, FairShareExecutor, JobId, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;
use virt::migrate::{checkpoint, restore, Checkpoint};
use virt::{CloudHost, InstanceId, RuntimeClass};
use workloads::{TaskRequest, WorkloadKind};

/// The LP index of the control plane.
pub(crate) const CTL: usize = 0;

/// Cross-shard messages. Control → host messages carry the request
/// hand-off and lifecycle commands; host → control messages carry
/// completion notices and state the router needs (warm-hint flips).
///
/// Spoken only between [`crate::control`] and [`HostLp`].
#[derive(Debug)]
pub(crate) enum Wire {
    // ------------------------------------------------- control → host
    /// Serve `req`: the uploaded payload has arrived at the host.
    Start {
        /// Control-plane request index.
        req: usize,
        /// Request generation (stale hand-offs are dropped).
        rgen: u32,
        /// The sampled task.
        task: TaskRequest,
        /// Seed of the device code-push stream (used only when the
        /// App Warehouse misses everywhere on the host).
        xfer_seed: u64,
    },
    /// The host is routable again (reboot or activation complete).
    Online,
    /// Fault plan: the host dies now. All local state is lost.
    Crash,
    /// Stop refilling warm pools; report when admitted work is done.
    Drain,
    /// Drain acknowledged by control: release every instance and park.
    FinishDrain,
    /// Rebalancer: checkpoint one warm idle container and ship it to
    /// host `dst`.
    MigOut {
        /// Destination host (control-plane index space).
        dst: usize,
    },
    /// Migration state arrived over the fabric: restore it.
    MigIn {
        /// Control-plane migration slot.
        mig: usize,
        /// The serialized container state.
        ckpt: Box<Checkpoint>,
    },
    /// End of simulation: stop the maintenance loop.
    Shutdown,
    // ------------------------------------------------- host → control
    /// `req` finished on-host (compute + offload I/O); the result is
    /// ready to download.
    Done {
        /// Control-plane request index.
        req: usize,
        /// Request generation the host was started with.
        rgen: u32,
    },
    /// The host's warm-container hint for one app flipped.
    WarmInfo {
        /// Workload index in [`WorkloadKind::ALL`] order.
        kind_ix: usize,
        /// New warm/cold state.
        warm: bool,
    },
    /// A draining host has no busy, waiting, or restoring work left.
    DrainEmpty,
    /// Checkpoint serialized; ship `ckpt` to host `dst` over the
    /// fabric.
    MigState {
        /// Destination host (control-plane index space).
        dst: usize,
        /// The serialized container state.
        ckpt: Box<Checkpoint>,
    },
    /// The migrated container is restored and serving at the
    /// destination.
    MigLanded {
        /// Control-plane migration slot.
        mig: usize,
        /// State bytes the *destination* measured while restoring —
        /// an end-to-end conservation check against what the source
        /// serialized and what the fabric carried.
        bytes: u64,
    },
}

pub(crate) fn kind_ix(kind: WorkloadKind) -> usize {
    WorkloadKind::ALL
        .into_iter()
        .position(|k| k == kind)
        .expect("kind is one of ALL")
}

// ====================================================================
// Host shard (LP h + 1)
// ====================================================================

/// Host-shard events. All carry the host's epoch (bumped on crash,
/// drain completion, and shutdown) so events scheduled against a dead
/// incarnation drop on the floor.
#[derive(Debug)]
enum HostEvent {
    /// A provisioned instance finished booting.
    BootDone { inst: InstanceId, epoch: u64 },
    /// Mobile code finished loading; computation can start.
    CodeLoaded { inst: InstanceId, epoch: u64 },
    /// CPU executor schedule point (guarded by the executor's own
    /// epoch, not the host epoch).
    CpuPoll { cpu_epoch: u64 },
    /// Offloading I/O finished; the instance frees up.
    IoDone { inst: InstanceId, epoch: u64 },
    /// Checkpoint serialization (freeze) finished; ship the state.
    MigFrozen {
        dst: usize,
        ckpt: Box<Checkpoint>,
        epoch: u64,
    },
    /// A migrated-in container finished restoring. `bytes` is the
    /// checkpoint size measured on the destination before restore, so
    /// control can verify end-to-end state conservation.
    MigReady {
        inst: InstanceId,
        mig: usize,
        bytes: u64,
        epoch: u64,
    },
    /// Pool maintenance tick: reclaim idle, refill warm spares.
    Maintain { epoch: u64 },
    /// A control message crossed the window boundary.
    Deliver { msg: Wire },
}

/// One admitted request waiting for (or holding) an instance.
#[derive(Debug, Clone, Copy)]
struct Pending {
    req: usize,
    rgen: u32,
    task: TaskRequest,
    xfer_seed: u64,
}

/// Where one instance is in its life on this host.
#[derive(Debug, Clone, Copy)]
enum InstState {
    /// Provisioned, still booting.
    Booting,
    /// Restored by an in-flight migration, not serving yet.
    Restoring,
    /// Idle since this instant.
    Idle(SimTime),
    /// Serving `pend`; `job` is absent during code load and I/O.
    Busy { pend: Pending, job: Option<JobId> },
}

fn state_of(insts: &mut [(InstanceId, InstState)], inst: InstanceId) -> &mut InstState {
    let slot = insts.iter_mut().find(|(i, _)| *i == inst);
    &mut slot.expect("instance is in the table").1
}

/// A single cloud host as a logical process: instance pool, CPU
/// executor, code warehouse, and device-side link. Built and driven
/// only by [`ControlLayout::run`], for flat fleets and
/// multi-region topologies alike; everything else should go through
/// [`run_fleet`].
pub(crate) struct HostLp {
    cfg: HostConfig,
    /// Pool maintenance cadence: the cell's control-loop interval.
    scan_interval: SimDuration,
    rec: Recorder,
    queue: EventQueue<HostEvent>,
    host: CloudHost,
    cpu: FairShareExecutor<InstanceId>,
    warehouse: AppWarehouse,
    link: Link,
    /// Every instance on the host and its state. The host hands ids
    /// out in increasing order and new instances are pushed at the
    /// back, so the table is always in id order — the order every walk
    /// (idle pick, reclaim, crash cancel) visits instances in.
    insts: Vec<(InstanceId, InstState)>,
    /// Admitted requests waiting for an instance.
    wait: VecDeque<Pending>,
    /// Last warm/cold hint published to control, per workload.
    published: Vec<bool>,
    aids: Vec<Aid>,
    serving: bool,
    drain_mode: bool,
    shut: bool,
    epoch: u64,
    served: u64,
    peak_instances: usize,
    peak_memory: u64,
}

impl HostLp {
    /// Build host `h` (cell-local) of `cell`, recording into `rec`.
    /// Hosts with `h < cell.initial_active` start serving (and filling
    /// their warm pool) at `t = 0`; the rest wait in standby for an
    /// activation.
    pub fn new(cell: &CellLayout, h: usize, rec: Recorder) -> Self {
        let (cfg, spec) = (cell.host, cell.specs[h]);
        let mut host = CloudHost::new(spec);
        host.kernel.load_android_container_driver();
        host.attach_recorder(rec.clone());
        let mut cpu = FairShareExecutor::new(spec.cores as f64, 1.0);
        // The fleet samples no per-pop state, so dropping superseded
        // completion checks from the pop stream is digest-neutral here
        // (locked by the fleet golden test) and saves a stale pop per
        // job-set mutation — exp_mega reschedules millions of times.
        cpu.eager_check_cancel();
        let warehouse = AppWarehouse::new(cfg.warehouse_capacity);
        let link = Link::new(cfg.access);
        let aids: Vec<Aid> = WorkloadKind::ALL
            .iter()
            .map(|k| aid_of(k.app_id()))
            .collect();
        let serving = h < cell.initial_active;
        let mut queue = EventQueue::new();
        if serving {
            // Initially active hosts fill their warm pools from t = 0.
            queue.schedule(SimTime::ZERO, HostEvent::Maintain { epoch: 0 });
        }
        HostLp {
            cfg,
            scan_interval: cell.autoscale.scan_interval,
            rec,
            queue,
            host,
            cpu,
            warehouse,
            link,
            insts: Vec::new(),
            wait: VecDeque::new(),
            published: vec![false; WorkloadKind::ALL.len()],
            aids,
            serving,
            drain_mode: false,
            shut: false,
            epoch: 0,
            served: 0,
            peak_instances: 0,
            peak_memory: 0,
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: HostEvent, out: &mut Outbox<Wire>) {
        match ev {
            HostEvent::BootDone { inst, epoch } => {
                if epoch == self.epoch {
                    *state_of(&mut self.insts, inst) = InstState::Idle(now);
                    self.pump(now, out);
                }
            }
            HostEvent::CodeLoaded { inst, epoch } => {
                if epoch == self.epoch {
                    self.on_code_loaded(now, inst);
                }
            }
            HostEvent::CpuPoll { cpu_epoch } => self.on_cpu_poll(now, cpu_epoch),
            HostEvent::IoDone { inst, epoch } => {
                if epoch == self.epoch {
                    self.on_io_done(now, inst, out);
                }
            }
            HostEvent::MigFrozen { dst, ckpt, epoch } => {
                if epoch == self.epoch {
                    out.send(now, CTL, Wire::MigState { dst, ckpt });
                }
            }
            HostEvent::MigReady {
                inst,
                mig,
                bytes,
                epoch,
            } => {
                if epoch == self.epoch {
                    self.on_mig_ready(now, inst, mig, bytes, out);
                }
            }
            HostEvent::Maintain { epoch } => {
                if epoch == self.epoch {
                    self.on_maintain(now, out);
                }
            }
            HostEvent::Deliver { msg } => self.on_msg(now, msg, out),
        }
    }

    fn on_msg(&mut self, now: SimTime, msg: Wire, out: &mut Outbox<Wire>) {
        match msg {
            Wire::Start {
                req,
                rgen,
                task,
                xfer_seed,
            } => {
                // A `Start` racing this host's crash arrives after the
                // `Crash` message (per-source FIFO) and is dropped:
                // control has already stranded and re-routed the
                // request.
                if self.serving {
                    self.rec.set_current_request(Some(req as u64));
                    self.attach_or_queue(
                        now,
                        Pending {
                            req,
                            rgen,
                            task,
                            xfer_seed,
                        },
                        out,
                    );
                }
            }
            Wire::Online => self.on_online(now),
            Wire::Crash => self.on_crash(now, out),
            Wire::Drain => self.drain_mode = true,
            Wire::FinishDrain => self.on_finish_drain(now, out),
            Wire::MigOut { dst } => self.on_mig_out(now, dst, out),
            Wire::MigIn { mig, ckpt } => self.on_mig_in(now, mig, &ckpt),
            Wire::Shutdown => {
                self.shut = true;
                self.serving = false;
                self.epoch += 1;
            }
            _ => unreachable!("host-bound message"),
        }
    }

    // --------------------------------------------------- request service

    /// Give the request an idle instance, provision a new one, or park
    /// it in the wait queue.
    fn attach_or_queue(&mut self, now: SimTime, pend: Pending, out: &mut Outbox<Wire>) {
        if let Some(inst) = self.pick_idle(pend.task.kind) {
            self.start_code_load(now, pend, inst, out);
            return;
        }
        // No idle instance: grow the pool if the policy and DRAM allow.
        if self.host.instance_count() < self.cfg.pool.max_instances {
            if let Ok((inst, setup)) = self.host.provision(self.cfg.runtime) {
                self.note_provisioned();
                self.insts.push((inst, InstState::Booting));
                let epoch = self.epoch;
                self.queue.schedule(
                    now.saturating_add(setup),
                    HostEvent::BootDone { inst, epoch },
                );
            }
        }
        self.wait.push_back(pend);
    }

    /// Idle instances, in id order.
    fn idle(&self) -> impl Iterator<Item = InstanceId> + '_ {
        let idle = |&(i, s)| matches!(s, InstState::Idle(_)).then_some(i);
        self.insts.iter().filter_map(idle)
    }

    fn count(&self, state: impl Fn(&InstState) -> bool) -> usize {
        self.insts.iter().filter(|(_, s)| state(s)).count()
    }

    /// Prefer an idle instance that already holds the app's code.
    fn pick_idle(&self, kind: WorkloadKind) -> Option<InstanceId> {
        let aid = &self.aids[kind_ix(kind)];
        let with_app = self.idle().find(|&i| {
            self.host
                .instance(i)
                .map(|r| r.apps_loaded.contains(aid))
                .unwrap_or(false)
        });
        with_app.or_else(|| self.idle().next())
    }

    /// Load the app into `inst` (free when resident), charging a code
    /// upload from the device when even the App Warehouse misses.
    fn start_code_load(
        &mut self,
        now: SimTime,
        pend: Pending,
        inst: InstanceId,
        out: &mut Outbox<Wire>,
    ) {
        let kind = pend.task.kind;
        let kix = kind_ix(kind);
        let app_id = kind.app_id();
        let aid = &self.aids[kix];
        let code_bytes = kind.profile().app_code_bytes;
        let resident = self
            .host
            .instance(inst)
            .map(|r| r.apps_loaded.contains(aid))
            .unwrap_or(false);
        let mut t = SimDuration::ZERO;
        let cold = !resident && !self.warehouse.lookup(aid);
        if cold {
            // Cold everywhere: the device must push the code first.
            let mut rng = SimRng::new(pend.xfer_seed);
            t += self
                .link
                .transfer_time(code_bytes, Direction::Upload, &mut rng);
            self.warehouse.insert(*aid, app_id, code_bytes);
        }
        t += self
            .host
            .load_app(inst, app_id, code_bytes)
            .expect("instance is live");
        let cached = self.warehouse.note_loaded(aid, inst);
        *state_of(&mut self.insts, inst) = InstState::Busy { pend, job: None };
        if cold {
            // The insert may have evicted other apps' code.
            self.publish_warm(now, out);
        } else {
            // Only this app's CID column changed: it lists `inst` now.
            self.publish_kind(now, kix, cached, out);
        }
        let epoch = self.epoch;
        self.queue
            .schedule(now.saturating_add(t), HostEvent::CodeLoaded { inst, epoch });
    }

    fn on_code_loaded(&mut self, now: SimTime, inst: InstanceId) {
        let InstState::Busy { pend, .. } = *state_of(&mut self.insts, inst) else {
            unreachable!("code loads into a busy instance");
        };
        self.rec.set_current_request(Some(pend.req as u64));
        let spec = self.cfg.runtime.spec();
        let ghz = self.host.host_spec().clock_ghz;
        let work = self
            .cfg
            .compute_prices
            .price(&pend.task, ghz, spec.cpu_efficiency);
        let job = Some(self.cpu.submit(now, work, inst));
        *state_of(&mut self.insts, inst) = InstState::Busy { pend, job };
        self.cpu
            .reschedule(now, &mut self.queue, |cpu_epoch| HostEvent::CpuPoll {
                cpu_epoch,
            });
    }

    fn on_cpu_poll(&mut self, now: SimTime, cpu_epoch: u64) {
        let (runtime, epoch) = (self.cfg.runtime, self.epoch);
        let disk = self.host.host_spec().disk_bandwidth;
        let (insts, rec, queue) = (&mut self.insts, &self.rec, &mut self.queue);
        let fresh = self.cpu.poll_with(now, cpu_epoch, |_, inst| {
            let InstState::Busy { pend, job } = state_of(insts, inst) else {
                unreachable!("CPU jobs belong to busy instances");
            };
            *job = None;
            rec.set_current_request(Some(pend.req as u64));
            let t = io_time(runtime, disk, pend.task.io_bytes);
            queue.schedule(now.saturating_add(t), HostEvent::IoDone { inst, epoch });
        });
        if !fresh {
            return; // stale schedule point
        }
        self.cpu
            .reschedule(now, &mut self.queue, |cpu_epoch| HostEvent::CpuPoll {
                cpu_epoch,
            });
    }

    fn on_io_done(&mut self, now: SimTime, inst: InstanceId, out: &mut Outbox<Wire>) {
        let state = state_of(&mut self.insts, inst);
        let InstState::Busy { pend, .. } = std::mem::replace(state, InstState::Idle(now)) else {
            unreachable!("instance was serving");
        };
        self.rec.set_current_request(Some(pend.req as u64));
        self.served += 1;
        out.send(
            now,
            CTL,
            Wire::Done {
                req: pend.req,
                rgen: pend.rgen,
            },
        );
        self.pump(now, out);
    }

    /// Hand idle instances to waiting requests, in FIFO order.
    fn pump(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        while self.idle().next().is_some() {
            let Some(pend) = self.wait.pop_front() else {
                return;
            };
            self.rec.set_current_request(Some(pend.req as u64));
            let inst = self.pick_idle(pend.task.kind).expect("idle non-empty");
            self.start_code_load(now, pend, inst, out);
        }
    }

    // ----------------------------------------------------------- lifecycle

    fn on_online(&mut self, now: SimTime) {
        if self.shut {
            return;
        }
        self.serving = true;
        self.drain_mode = false;
        self.epoch += 1;
        let epoch = self.epoch;
        self.queue.schedule(now, HostEvent::Maintain { epoch });
    }

    /// The host dies: every instance, job, and cached byte is lost.
    fn on_crash(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        self.serving = false;
        self.drain_mode = false;
        self.epoch += 1;
        for (_, state) in &self.insts {
            if let InstState::Busy { job: Some(job), .. } = *state {
                self.cpu.cancel(now, job);
            }
        }
        self.cpu
            .reschedule(now, &mut self.queue, |cpu_epoch| HostEvent::CpuPoll {
                cpu_epoch,
            });
        self.teardown_all();
        self.publish_warm(now, out);
    }

    fn on_finish_drain(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        if self.shut {
            return;
        }
        self.serving = false;
        self.drain_mode = false;
        self.epoch += 1;
        self.teardown_all();
        self.publish_warm(now, out);
    }

    fn teardown_all(&mut self) {
        for inst in self.host.instance_ids() {
            let _ = self.host.teardown(inst);
        }
        self.insts.clear();
        self.wait.clear();
        self.warehouse = AppWarehouse::new(self.cfg.warehouse_capacity);
    }

    /// Pool maintenance: reclaim instances idle past the policy
    /// window, keep the warm-spare floor, and report drain progress.
    /// Replaces the monolithic engine's central scan for everything
    /// host-local.
    fn on_maintain(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        self.rec.set_current_request(None);
        if !self.serving {
            return;
        }
        self.reclaim_idle(now, out);
        if self.drain_mode {
            let working =
                |s: &InstState| matches!(s, InstState::Busy { .. } | InstState::Restoring);
            if self.count(working) == 0 && self.wait.is_empty() {
                out.send(now, CTL, Wire::DrainEmpty);
            }
        } else {
            self.fill_warm_pool(now);
        }
        let epoch = self.epoch;
        self.queue
            .schedule_in(self.scan_interval, HostEvent::Maintain { epoch });
    }

    /// Reclaim the oldest instances idle past the keep-alive, down to
    /// the warm floor (none while draining).
    fn reclaim_idle(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        let pool = self.cfg.pool;
        let expired =
            |s: &InstState| matches!(*s, InstState::Idle(since) if pool.expired(since, now));
        let mut n = pool.to_reclaim(self.count(expired), self.idle().count(), self.drain_mode);
        if n == 0 {
            return;
        }
        // Oldest first: the table is in id order.
        let (host, warehouse) = (&mut self.host, &mut self.warehouse);
        self.insts.retain(|&(inst, state)| {
            let reclaim = n > 0 && expired(&state);
            if reclaim {
                let _ = host.teardown(inst);
                warehouse.invalidate_container(inst);
                n -= 1;
            }
            !reclaim
        });
        self.publish_warm(now, out);
    }

    /// Keep `warm_spares` instances idle or booting.
    fn fill_warm_pool(&mut self, now: SimTime) {
        let spare = |s: &InstState| matches!(s, InstState::Idle(_) | InstState::Booting);
        let spares = self.count(spare);
        for _ in 0..self.cfg.pool.to_start(spares, self.host.instance_count()) {
            match self.host.provision(self.cfg.runtime) {
                Ok((inst, setup)) => {
                    self.note_provisioned();
                    self.insts.push((inst, InstState::Booting));
                    let epoch = self.epoch;
                    self.queue.schedule(
                        now.saturating_add(setup),
                        HostEvent::BootDone { inst, epoch },
                    );
                }
                Err(_) => break, // DRAM exhausted: stop growing
            }
        }
    }

    // ----------------------------------------------------------- migration

    /// Control asked this host to ship one warm container to `dst`:
    /// checkpoint the lowest-id idle instance that has an app loaded.
    fn on_mig_out(&mut self, now: SimTime, dst: usize, out: &mut Outbox<Wire>) {
        if !self.serving {
            return;
        }
        let victim = self.idle().find(|&i| {
            self.host
                .instance(i)
                .map(|r| !r.apps_loaded.is_empty())
                .unwrap_or(false)
        });
        let Some(victim) = victim else {
            return; // nothing warm to move; control's pacing is not spent
        };
        self.rec.set_current_request(None);
        let Ok((ckpt, freeze)) = checkpoint(&self.host, victim) else {
            return;
        };
        if self.rec.is_enabled() {
            let span = self.rec.span_start_at(
                Subsystem::Virt,
                "migrate",
                SpanId::NONE,
                now.as_micros(),
                attrs![
                    ("instance", AttrValue::U64(victim.0 as u64)),
                    ("dst", AttrValue::U64(dst as u64)),
                    ("state_bytes", AttrValue::U64(ckpt.state_bytes())),
                ],
            );
            self.rec
                .span_end_at(span, now.saturating_add(freeze).as_micros(), vec![]);
        }
        let _ = self.host.teardown(victim);
        self.insts.retain(|&(i, _)| i != victim);
        self.warehouse.invalidate_container(victim);
        self.publish_warm(now, out);
        let epoch = self.epoch;
        self.queue.schedule(
            now.saturating_add(freeze),
            HostEvent::MigFrozen {
                dst,
                ckpt: Box::new(ckpt),
                epoch,
            },
        );
    }

    /// Migration state arrived over the fabric: rebuild the container.
    fn on_mig_in(&mut self, now: SimTime, mig: usize, ckpt: &Checkpoint) {
        if !self.serving || self.host.instance_count() >= self.cfg.pool.max_instances {
            return; // the move is orphaned; control never sees MigLanded
        }
        self.rec.set_current_request(None);
        let bytes = ckpt.state_bytes();
        let Ok((inst, d)) = restore(&mut self.host, ckpt) else {
            return; // DRAM is full — the state is dropped
        };
        self.note_provisioned();
        self.insts.push((inst, InstState::Restoring));
        let epoch = self.epoch;
        self.queue.schedule(
            now.saturating_add(d),
            HostEvent::MigReady {
                inst,
                mig,
                bytes,
                epoch,
            },
        );
    }

    fn on_mig_ready(
        &mut self,
        now: SimTime,
        inst: InstanceId,
        mig: usize,
        bytes: u64,
        out: &mut Outbox<Wire>,
    ) {
        *state_of(&mut self.insts, inst) = InstState::Idle(now);
        // Publish the arrived container's apps as warm CID hints, in
        // package-name order (the warehouse's LRU clock ticks per insert).
        let mut kinds = WorkloadKind::ALL;
        kinds.sort_by_key(|k| k.app_id());
        for kind in kinds {
            let aid = self.aids[kind_ix(kind)];
            let loaded = |r: &virt::RuntimeInstance| r.apps_loaded.contains(&aid);
            if self.host.instance(inst).is_ok_and(loaded) {
                let code_bytes = kind.profile().app_code_bytes;
                self.warehouse.insert(aid, kind.app_id(), code_bytes);
                self.warehouse.note_loaded(&aid, inst);
            }
        }
        self.publish_warm(now, out);
        out.send(now, CTL, Wire::MigLanded { mig, bytes });
        self.pump(now, out);
    }

    // ------------------------------------------------------------- helpers

    /// Diff the warehouse's warm set against what control last heard
    /// and send only the flips — the router's affinity hints.
    fn publish_warm(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        for ix in 0..self.aids.len() {
            let warm = !self.warehouse.containers_with(&self.aids[ix]).is_empty();
            self.publish_kind(now, ix, warm, out);
        }
    }

    /// Tell control app `ix` is now `warm` here, if that is news.
    fn publish_kind(&mut self, now: SimTime, ix: usize, warm: bool, out: &mut Outbox<Wire>) {
        if warm != self.published[ix] {
            self.published[ix] = warm;
            out.send(now, CTL, Wire::WarmInfo { kind_ix: ix, warm });
        }
    }

    fn note_provisioned(&mut self) {
        self.peak_instances = self.peak_instances.max(self.host.instance_count());
        self.peak_memory = self.peak_memory.max(self.host.memory_reserved());
    }

    /// Earliest pending local event, if any (the LP's `next_time`).
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Drain local events strictly below `bound` (the LP's
    /// `run_window`), emitting control-bound messages into `out`.
    pub fn run_window(&mut self, bound: SimTime, out: &mut Outbox<Wire>) {
        while let Some((now, ev)) = self.queue.pop_before(bound) {
            self.rec.set_now(now.as_micros());
            self.dispatch(now, ev, out);
        }
    }

    /// Deliver a control-plane message at `at` (the LP's `accept`).
    /// Hosts only ever hear from their control LP, so no source index
    /// is taken.
    pub fn accept(&mut self, at: SimTime, msg: Wire) {
        self.queue.schedule(at, HostEvent::Deliver { msg });
    }

    /// Consume the shard and surface its lifetime counters.
    pub fn finish_lp(self) -> HostOut {
        self.rec.set_current_request(None);
        HostOut {
            served: self.served,
            peak_instances: self.peak_instances,
            peak_memory: self.peak_memory,
            snapshot: self.rec.snapshot(),
        }
    }
}

/// Offloading-I/O wall time of `runtime` on a host whose disk moves
/// `disk_bps` bytes/s: the shared in-memory layer for the optimized
/// class, the virtualized disk path otherwise.
fn io_time(runtime: RuntimeClass, disk_bps: f64, bytes: u64) -> SimDuration {
    if bytes == 0 {
        return SimDuration::ZERO;
    }
    let spec = runtime.spec();
    if spec.uses_shared_io_layer {
        SimDuration::from_secs_f64(bytes as f64 / virt::TMPFS_BANDWIDTH)
    } else {
        SimDuration::from_secs_f64(bytes as f64 / (disk_bps * spec.io_efficiency))
    }
}

/// What a host shard reports when its run ends; [`ControlLayout::run`]
/// folds it into the host's [`crate::HostReport`].
pub(crate) struct HostOut {
    /// Requests this host completed.
    pub served: u64,
    /// High-water mark of concurrently provisioned instances.
    pub peak_instances: usize,
    /// High-water mark of reserved memory, bytes.
    pub peak_memory: u64,
    /// The host's trace buffer, for merging in LP order.
    pub snapshot: TraceSnapshot,
}

// ====================================================================
// Entry points
// ====================================================================

/// Run a fleet scenario to completion (untraced).
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    run_fleet_traced(cfg, Recorder::disabled())
}

/// Run a fleet scenario with an observability recorder attached.
/// Recording must not perturb the simulation: the report digest is
/// identical with a disabled recorder.
pub fn run_fleet_traced(cfg: &FleetConfig, rec: Recorder) -> FleetReport {
    let report = Arc::new(flat_layout(cfg)).run(&rec);
    // The crash re-route and radio-deferral paths give slots back by
    // hand; the plane counts any request admitted while still holding
    // one.
    debug_assert_eq!(report.control.double_admissions, 0, "single admission");
    report
}

/// The flat layout: every host in one cell behind one ring, every
/// device in one region on the config's access network, one
/// interconnect fabric with no propagation leg, and no WAN.
fn flat_layout(cfg: &FleetConfig) -> ControlLayout {
    assert!(
        cfg.initial_active >= 1 && cfg.initial_active <= cfg.host_specs.len(),
        "initial_active must name a non-empty prefix of host_specs"
    );
    ControlLayout {
        seed: cfg.seed,
        subsystem: Subsystem::Fleet,
        cells: vec![CellLayout {
            hosts: 0..cfg.host_specs.len(),
            initial_active: cfg.initial_active,
            autoscale: cfg.autoscale,
            burst_to: None,
            rebalances: true,
            specs: cfg.host_specs.clone(),
            host: HostConfig {
                runtime: cfg.runtime,
                pool: cfg.pool,
                warehouse_capacity: cfg.warehouse_capacity,
                access: cfg.scenario,
                compute_prices: cfg.calibration.resolve(exec::HostClass::PAPER_SERVER),
            },
        }],
        regions: vec![RegionLayout {
            first_user: 0,
            users: cfg.traffic.users,
            trace_seed: derive_seed(cfg.seed, STREAM_TRAFFIC),
            start_hour: 8.0,
            access: cfg.scenario,
            device: cfg.device,
        }],
        fabrics: vec![FabricLayout {
            bps: cfg.interconnect_bps,
            rtt: SimDuration::ZERO,
        }],
        fabric_of: vec![0],
        legs: vec![None],
        route: Box::new(|_, aid, rings, warm, admissible| {
            rings[0]
                .route(aid, warm(0), admissible)
                .map(|d| CellDecision {
                    cell: 0,
                    host: d.host,
                    reason: d.reason,
                    cross_region: false,
                })
        }),
        traffic: cfg.traffic.clone(),
        app_weights: app_weights(cfg.app_skew),
        admission_capacity: cfg.admission_capacity,
        rebalance: cfg.rebalance,
        resilience: cfg.resilience.clone(),
        faults: cfg.faults.clone(),
        crash_reboot: cfg.crash_reboot,
        scan_interval: cfg.autoscale.scan_interval,
        sync_window: cfg.sync_window,
        scenario_plan: cfg.scenario_plan.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::faults::FaultConfig;

    fn small(hosts: usize, seed: u64) -> FleetConfig {
        let mut cfg = FleetConfig::paper_default(hosts, seed);
        cfg.traffic.users = 12;
        cfg.traffic.duration = SimDuration::from_secs(600);
        cfg
    }

    #[test]
    fn every_request_terminates() {
        let rep = run_fleet(&small(2, 11));
        assert!(rep.summary.submitted > 0, "trace produced arrivals");
        for r in &rep.records {
            assert!(
                r.phase.is_terminal(),
                "request {} stuck in {:?}",
                r.id,
                r.phase
            );
        }
        assert_eq!(
            rep.summary.completed_remote + rep.summary.fallback_local + rep.summary.abandoned,
            rep.summary.submitted
        );
    }

    #[test]
    fn same_seed_same_digest() {
        let cfg = small(3, 42);
        let a = run_fleet(&cfg);
        let b = run_fleet(&cfg);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.records.len(), b.records.len());
    }

    #[test]
    fn different_seed_different_digest() {
        assert_ne!(
            run_fleet(&small(2, 1)).digest(),
            run_fleet(&small(2, 2)).digest()
        );
    }

    #[test]
    fn recording_does_not_perturb_the_run() {
        let cfg = small(2, 77);
        let untraced = run_fleet(&cfg);
        let rec = Recorder::enabled(obsv::RecorderConfig::default());
        let traced = run_fleet_traced(&cfg, rec.clone());
        assert_eq!(untraced.digest(), traced.digest());
        assert!(!rec.snapshot().events.is_empty(), "spans were recorded");
    }

    #[test]
    fn memory_is_never_oversubscribed() {
        let rep = run_fleet(&small(2, 5));
        for h in &rep.hosts {
            assert!(h.peak_memory <= h.memory_bytes);
        }
    }

    #[test]
    fn host_crash_reroutes_without_losing_requests() {
        let mut cfg = small(3, 9);
        cfg.faults = FaultConfig::scaled(1.5);
        let rep = run_fleet(&cfg);
        for r in &rep.records {
            assert!(r.phase.is_terminal());
        }
        if rep.control.host_crashes > 0 {
            assert_eq!(
                rep.summary.completed_remote + rep.summary.fallback_local + rep.summary.abandoned,
                rep.summary.submitted
            );
        }
    }

    #[test]
    fn migration_accounting_balances_under_churn() {
        // Faults + rebalancing exercise every drop path: out must
        // still equal in, and starts must bound completions.
        let mut cfg = small(4, 33);
        cfg.faults = FaultConfig::scaled(1.0);
        let rep = run_fleet(&cfg);
        let out: u64 = rep.hosts.iter().map(|h| h.migrations_out).sum();
        let inn: u64 = rep.hosts.iter().map(|h| h.migrations_in).sum();
        assert_eq!(out, inn);
        assert!(rep.control.migrations_completed <= rep.control.migrations_started);
    }
}
