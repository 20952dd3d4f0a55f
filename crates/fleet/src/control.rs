//! The control plane: **LP 0** of every fleet and geo run.
//!
//! One implementation serves both front-ends. It is driven by a
//! plain-data [`ControlLayout`]: *cells* (a host range with its own
//! consistent-hash ring, autoscaler and warm-hint map), *regions* (a
//! device population with its access link, trace stream and device
//! profile), one shared fabric per cell pair, and the WAN leg a
//! region's devices pay to reach each cell. A flat fleet is the
//! one-region, one-cell, one-zero-RTT-fabric layout; a geography is N
//! regions × 2 cells with per-pair fabrics and a latency-aware
//! [`RouteFn`].
//!
//! The plane owns the router, admission control, autoscaling
//! (including cloud-burst loans), the rebalancer, the device access
//! networks and the fabrics. It speaks the engine's wire protocol to
//! unmodified host shards (LP `g + 1` is global host `g`), and
//! [`ControlLayout::run`] returns the finished [`FleetReport`] —
//! counters only a multi-cell layout can move and every
//! [`MigrationRecord`] included, so a front-end adds only what its
//! geography knows.
//!
//! Every random draw comes from a stream derived from the layout's
//! master seed (control streams draw in event order; network streams
//! are derived per request), so one layout reproduces one outcome bit
//! for bit.

use crate::admission::AdmissionCtl;
use crate::autoscaler::{Autoscaler, FleetAction};
use crate::config::{AutoscalePolicy, HostConfig, RebalancePolicy};
use crate::engine::{kind_ix, HostLp, HostOut, Wire, CTL};
use crate::rebalance::Rebalancer;
use crate::report::{
    ControlStats, FleetReport, FleetRequestRecord, HostReport, MigrationRecord, ScenarioStats,
};
use crate::router::{RouteReason, Router};
use hostkernel::HostSpec;
use netsim::{Direction, Link, NetworkScenario, SharedLink};
use obsv::{attrs, AttrValue, Recorder, SpanId, Subsystem, TraceSnapshot};
use rattrap::warehouse::{aid_of, Aid};
use rattrap::{DeviceSpec, Phase, ResiliencePolicy};
use scenario::{ScenarioDriver, ScenarioSpec};
use simkit::faults::{FaultConfig, FaultPlan, TransferOutcome};
use simkit::shard::{run_sharded, Lp, Outbox, ShardMode};
use simkit::{derive_seed, EventQueue, SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;
use traces::livelab::TraceConfig;
use virt::migrate::Checkpoint;
use workloads::{TaskRequest, WorkloadKind};

/// Virtual nodes per host on each cell's consistent-hash ring.
const RING_VNODES: usize = 64;

/// Derived-stream tags (master seed × tag → independent stream).
/// Front-ends derive their regions' trace seeds from this one.
pub const STREAM_TRAFFIC: u64 = 1;
const STREAM_APPS: u64 = 2;
const STREAM_NET: u64 = 3;
const STREAM_SVC: u64 = 4;
const STREAM_RETRY: u64 = 5;
const STREAM_FAULTS: u64 = 6;
const STREAM_SCENARIO: u64 = 7;

// ====================================================================
// Layout
// ====================================================================

/// One cell: a dense range of global host indices fronted by its own
/// ring, scaled by its own policy.
#[derive(Debug, Clone)]
pub struct CellLayout {
    /// Global indices of the cell's hosts (cells are dense, in order).
    pub hosts: Range<usize>,
    /// The first `initial_active` hosts of the range start routable;
    /// the rest are standby.
    pub initial_active: usize,
    /// The cell's credit-damped scaling policy, including its own
    /// standby boot time.
    pub autoscale: AutoscalePolicy,
    /// Cloud-burst: the cell whose standby hosts this cell may power
    /// on when it saturates with no spare of its own.
    pub burst_to: Option<usize>,
    /// Whether the cell's hosts take part in hot → cold rebalancing.
    pub rebalances: bool,
    /// Hardware of each host in `hosts`, in order.
    pub specs: Vec<HostSpec>,
    /// What the cell's host shards run under.
    pub host: HostConfig,
}

/// One region: a device population and how it reaches the platform.
#[derive(Debug, Clone)]
pub struct RegionLayout {
    /// First user id of the region; ids are region-major and dense.
    pub first_user: u32,
    /// Devices homed here.
    pub users: u32,
    /// Seed of the region's arrival trace.
    pub trace_seed: u64,
    /// Local wall-clock hour at sim time zero (diurnal phase).
    pub start_hour: f64,
    /// The population's access network.
    pub access: NetworkScenario,
    /// The population's device profile (shed-to-local fallback).
    pub device: DeviceSpec,
}

/// The shared fabric between one unordered pair of cells.
#[derive(Debug, Clone, Copy)]
pub struct FabricLayout {
    /// Bandwidth, bytes/s.
    pub bps: f64,
    /// Propagation delay migration state rides after draining through
    /// the fabric. Zero for a flat fleet.
    pub rtt: SimDuration,
}

/// The extra leg a region's devices pay to be served by a cell beyond
/// their access link.
#[derive(Debug, Clone, Copy)]
pub struct WanLeg {
    /// Extra round trip.
    pub rtt: SimDuration,
    /// Bandwidth of the shared leg, bytes/s.
    pub bps: f64,
}

/// Where a request was placed, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellDecision {
    /// The chosen cell.
    pub cell: usize,
    /// The chosen host (global index).
    pub host: usize,
    /// The in-cell router's reason (affinity / hash / spill).
    pub reason: RouteReason,
    /// Whether the cell sits outside the device's home region.
    pub cross_region: bool,
}

/// The cell-selection policy: place one request homed in a region,
/// given the per-cell rings, each cell's warm hosts for the app (the
/// plane's scratch, valid for the call), and which hosts will admit.
/// `None` sheds.
pub type RouteFn = dyn for<'a> Fn(
        usize,
        &Aid,
        &[Router],
        &'a dyn Fn(usize) -> &'a [usize],
        &mut dyn FnMut(usize) -> bool,
    ) -> Option<CellDecision>
    + Send
    + Sync;

/// Everything the control plane needs to know about where things are
/// and how they are governed. Built by a front-end from its config.
pub struct ControlLayout {
    /// Master seed; every stream in the run is derived from it.
    pub seed: u64,
    /// The subsystem the plane's trace events are labelled with.
    pub subsystem: Subsystem,
    /// Cells, index order; host ranges are dense and ascending.
    pub cells: Vec<CellLayout>,
    /// Regions, index order.
    pub regions: Vec<RegionLayout>,
    /// One fabric per unordered cell pair.
    pub fabrics: Vec<FabricLayout>,
    /// `fabric_of[a * n_cells + b]` indexes `fabrics` for the pair.
    pub fabric_of: Vec<usize>,
    /// `legs[region * n_cells + cell]`; `None` when the cell serves
    /// the region's devices with no WAN leg at all.
    pub legs: Vec<Option<WanLeg>>,
    /// The cell-selection policy.
    pub route: Box<RouteFn>,
    /// Arrival template; `users` and `seed` come from each region.
    pub traffic: TraceConfig,
    /// Per-user app weights, [`WorkloadKind::ALL`] order.
    pub app_weights: Vec<f64>,
    /// Per-host bound on concurrently admitted requests.
    pub admission_capacity: usize,
    /// Migration pacing.
    pub rebalance: RebalancePolicy,
    /// Shed, retry and backoff behaviour.
    pub resilience: ResiliencePolicy,
    /// Fault injection; only crash events are interpreted.
    pub faults: FaultConfig,
    /// Time for a crashed host to reboot and rejoin.
    pub crash_reboot: SimDuration,
    /// Control-loop cadence.
    pub scan_interval: SimDuration,
    /// Window of the LP runner: the latency of one control ↔ host
    /// message.
    pub sync_window: SimDuration,
    /// Optional adversarial-traffic scenario.
    pub scenario_plan: Option<ScenarioSpec>,
}

impl ControlLayout {
    /// Devices across every region.
    pub fn total_users(&self) -> u32 {
        self.regions.last().map_or(0, |r| r.first_user + r.users)
    }

    /// Home region of `user`. Ids past the population (a scenario's
    /// synthetic extras) fold onto it, so each has a home.
    fn region_of_user(&self, user: u32) -> usize {
        let user = user % self.total_users().max(1);
        self.regions.partition_point(|r| r.first_user <= user) - 1
    }
}

// ====================================================================
// State
// ====================================================================

/// Where a host sits in its lifecycle (control-plane view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostStatus {
    /// Routable and serving.
    Active,
    /// Powering on (autoscaler activation); not routable yet.
    Booting,
    /// Finishing its admitted work; not routable.
    Draining,
    /// Crashed; rebooting.
    Down,
    /// Powered-off spare capacity.
    Standby,
}

/// Control-plane events.
#[derive(Debug)]
enum CtlEvent {
    /// One trace arrival from `user`.
    Arrive { user: u32, kind: WorkloadKind },
    /// Request payload finished uploading (access link + WAN leg).
    UploadDone { req: usize, rgen: u32 },
    /// Result reached the device.
    DownloadDone { req: usize, rgen: u32 },
    /// Backoff elapsed; re-route the request.
    RetryFire { req: usize, rgen: u32 },
    /// On-device (fallback) execution finished.
    LocalDone { req: usize },
    /// Fault plan: take a whole host down.
    HostCrash { selector: u64 },
    /// A crashed or activated host becomes routable.
    HostUp { host: usize, hgen: u64 },
    /// Schedule point of one cell-pair fabric.
    FabricPoll { fabric: usize, epoch: u64 },
    /// Migration state finished its post-fabric propagation delay.
    WanArrive { mig: usize },
    /// Control-loop tick: observe every cell, scale, burst, rebalance.
    Scan,
    /// A host message crossed the window boundary.
    Deliver { src: usize, msg: Wire },
}

/// A [`CtlEvent::Arrive`] as it waits in the queue's backlog: 8 bytes
/// per trace arrival, not the event enum's widest variant (a [`Wire`]).
#[derive(Debug)]
struct Arrival {
    user: u32,
    kind: WorkloadKind,
}

impl From<Arrival> for CtlEvent {
    fn from(Arrival { user, kind }: Arrival) -> Self {
        CtlEvent::Arrive { user, kind }
    }
}

/// One request's control-plane state.
#[derive(Debug)]
struct ReqState {
    user: u32,
    region: usize,
    kind: WorkloadKind,
    task: TaskRequest,
    arrival: SimTime,
    finished: SimTime,
    phase: Phase,
    fell_back: bool,
    host: Option<usize>,
    attempts: u32,
    rerouted: u32,
    reason: Option<RouteReason>,
    /// Whether the request currently holds an admission slot — the
    /// single-admission invariant's ground truth. Every path that
    /// takes or gives back a slot goes through [`ControlLp::release`]
    /// or the admit in [`ControlLp::route_request`].
    holding: bool,
    /// Bumped on crash re-route and radio deferral; stale in-flight
    /// events and messages are dropped.
    gen: u32,
}

/// Per-host control-plane state (the host's own pool lives in its LP).
struct HostSlot {
    cell: usize,
    status: HostStatus,
    /// Bumped on crash; stale `HostUp` events and fabric deliveries
    /// are dropped.
    gen: u64,
    crashes: u64,
    migrations_out: u64,
    migrations_in: u64,
    /// Open `scale_up` span while booting (activation).
    scale_span: SpanId,
}

/// Per-cell control state: its scaler and its warm hints (the ring
/// lives in [`ControlLp::routers`], which the route policy borrows as
/// a slice).
struct CellState {
    autoscaler: Autoscaler,
    /// Hosts (global) believed warm per workload
    /// ([`WorkloadKind::ALL`] order), maintained from
    /// [`Wire::WarmInfo`] flips. At most one window stale — an
    /// acceptable hint-propagation delay.
    warm: Vec<BTreeSet<usize>>,
    /// Scratch of [`ControlLp::route_request`]: the cell's active warm
    /// hosts for the app being routed.
    warm_active: Vec<usize>,
}

/// An in-flight migration (control side).
struct MigSlot {
    rec: MigrationRecord,
    /// Taken when the state is forwarded to the destination.
    ckpt: Option<Box<Checkpoint>>,
    /// Destination host generation at transfer start; a crash there
    /// orphans the move.
    gen_to: u64,
}

struct ControlLp {
    layout: Arc<ControlLayout>,
    rec: Recorder,
    queue: EventQueue<CtlEvent, Arrival>,
    hosts: Vec<HostSlot>,
    cells: Vec<CellState>,
    /// Per-cell consistent-hash rings over global host indices.
    routers: Vec<Router>,
    admission: AdmissionCtl,
    rebalancer: Rebalancer,
    fabrics: Vec<SharedLink<usize>>,
    /// Per-region device access link.
    links: Vec<Link>,
    reqs: Vec<ReqState>,
    migs: Vec<MigSlot>,
    control: ControlStats,
    aids: Vec<Aid>,
    rng_svc: SimRng,
    rng_retry: SimRng,
    /// Root of the per-request network streams.
    net_root: u64,
    horizon: SimTime,
    outstanding: usize,
    /// Compiled scenario plan, when the layout carries one. Compiled
    /// once at LP construction from its own derived stream, then
    /// read-only: injected arrivals enter through the ordinary event
    /// queue and cohort radio windows price uploads per event, so
    /// a scenario run replays bit for bit from its seed.
    driver: Option<ScenarioDriver>,
    /// Scenario conservation counters:
    /// (injected, submitted, suppressed, deferred).
    scn: (u64, u64, u64, u64),
}

impl ControlLp {
    fn new(layout: Arc<ControlLayout>, rec: Recorder) -> Self {
        let mut master = SimRng::new(layout.seed);
        let net_root = derive_seed(layout.seed, STREAM_NET);
        // `fork` consumes from `master`: SVC first, then RETRY, or
        // every service-time draw moves.
        let rng_svc = master.fork(STREAM_SVC);
        let rng_retry = master.fork(STREAM_RETRY);

        let mut hosts = Vec::new();
        for (cell, c) in layout.cells.iter().enumerate() {
            assert_eq!(c.hosts.start, hosts.len(), "cells are dense, in order");
            hosts.extend((0..c.hosts.len()).map(|local| HostSlot {
                cell,
                status: if local < c.initial_active {
                    HostStatus::Active
                } else {
                    HostStatus::Standby
                },
                gen: 0,
                crashes: 0,
                migrations_out: 0,
                migrations_in: 0,
                scale_span: SpanId::NONE,
            }));
        }
        let cells = layout
            .cells
            .iter()
            .map(|c| CellState {
                autoscaler: Autoscaler::new(c.autoscale),
                warm: vec![BTreeSet::new(); WorkloadKind::ALL.len()],
                warm_active: Vec::new(),
            })
            .collect();
        let fabrics = layout
            .fabrics
            .iter()
            .map(|f| {
                let mut fab = SharedLink::new(f.bps, f.bps);
                // Digest-neutral (no per-pop sampling); see
                // FairShareExecutor::eager_check_cancel.
                fab.eager_check_cancel();
                fab
            })
            .collect();
        let driver = layout.scenario_plan.as_ref().map(|spec| {
            ScenarioDriver::compile(
                spec,
                layout.total_users(),
                derive_seed(layout.seed, STREAM_SCENARIO),
            )
        });

        let mut lp = ControlLp {
            rec,
            queue: EventQueue::default(),
            cells,
            routers: (0..layout.cells.len())
                .map(|_| Router::new(RING_VNODES))
                .collect(),
            admission: AdmissionCtl::new(hosts.len(), layout.admission_capacity),
            hosts,
            rebalancer: Rebalancer::new(layout.rebalance),
            fabrics,
            links: layout.regions.iter().map(|r| Link::new(r.access)).collect(),
            reqs: Vec::new(),
            migs: Vec::new(),
            control: ControlStats::default(),
            aids: WorkloadKind::ALL
                .iter()
                .map(|k| aid_of(k.app_id()))
                .collect(),
            rng_svc,
            rng_retry,
            net_root,
            horizon: SimTime::ZERO.saturating_add(layout.traffic.duration),
            outstanding: 0,
            driver,
            scn: (0, 0, 0, 0),
            layout,
        };
        for cell in 0..lp.cells.len() {
            lp.rebuild_ring(cell);
        }
        lp.seed_events();
        lp
    }

    fn seed_events(&mut self) {
        // Per-user home app under the configured Zipf skew: skewed
        // popularity is what makes code-cache-affinity routing pay.
        let mut rng_apps = SimRng::new(derive_seed(self.layout.seed, STREAM_APPS));
        let weights = &self.layout.app_weights;
        let mut user_app: Vec<WorkloadKind> = (0..self.layout.total_users())
            .map(|_| WorkloadKind::ALL[rng_apps.weighted_index(weights)])
            .collect();
        // Explicit tenancy re-partitions the base population: each
        // base user's app comes from its tenant's mix instead of the
        // global Zipf draw.
        if let Some(d) = &self.driver {
            for (u, app) in user_app.iter_mut().enumerate() {
                if let Some(k) = d.base_kind_override(u as u32) {
                    *app = k;
                }
            }
        }

        // Each region draws its own trace stream at its own diurnal
        // phase. Seed and start hour are layout data: the flat fleet's
        // single region carries the stream and the 08:00 start
        // `traces::generate` always used. Known up front and never
        // cancelled, the arrivals enter as the queue's backlog, not as
        // a slab entry each — sorted here, as 16-byte pairs, by time
        // with ties left in (region, user, trace) order: the order
        // their sequence numbers give them.
        let mut arrivals: Vec<(SimTime, u32)> = Vec::new();
        for region in &self.layout.regions {
            let mut traffic = self.layout.traffic.clone();
            traffic.users = region.users;
            traffic.seed = region.trace_seed;
            let trace = traces::livelab::generate_with_start(&traffic, region.start_hour);
            for (u, times) in trace.into_iter().enumerate() {
                let user = region.first_user + u as u32;
                arrivals.extend(times.into_iter().map(|t| (t, user)));
            }
        }
        arrivals.sort_by_key(|&(t, _)| t);
        let scripted = self.driver.as_ref().map_or(0, |d| d.planned_offloads());
        self.reqs.reserve_exact(arrivals.len() + scripted as usize);
        self.queue
            .load_backlog(arrivals.into_iter().map(|(t, user)| {
                let kind = user_app[user as usize];
                (t, Arrival { user, kind })
            }));

        let plan = FaultPlan::generate(
            &self.layout.faults,
            derive_seed(self.layout.seed, STREAM_FAULTS),
        );
        for (at, selector) in plan.crashes() {
            self.queue.schedule(at, CtlEvent::HostCrash { selector });
        }

        // Scenario arrival script: offload events enter the platform
        // as ordinary arrivals; device-local scripted interactions
        // (touches that never offload) are counted suppressed. The
        // conservation contract: injected == submitted + suppressed.
        // Synthetic users (flash-crowd extras, storm containers) keep
        // their raw ids, so tenant stats and cohort windows see them
        // as the scenario compiled them; the layout's
        // `region_of_user` folds them onto the population to give
        // each a home.
        if let Some(d) = &self.driver {
            self.scn.0 = d.injected();
            self.scn.1 = d.planned_offloads();
            self.scn.2 = self.scn.0 - self.scn.1;
            let offloads = d.arrivals().iter().filter(|a| a.offload);
            self.queue.load_backlog(offloads.map(|a| {
                let (user, kind) = (a.user, a.kind);
                (a.at, Arrival { user, kind })
            }));
        }

        self.queue
            .schedule_in(self.layout.scan_interval, CtlEvent::Scan);
    }

    /// Independent network stream for one request. Tags keep the
    /// upload attempts, the download, and the host-side code push on
    /// disjoint streams of the request's own seed, so host shards
    /// never contend with control for a shared generator.
    fn req_rng(&self, req: usize, tag: u64) -> SimRng {
        SimRng::new(derive_seed(derive_seed(self.net_root, req as u64), tag))
    }

    fn dispatch(&mut self, now: SimTime, ev: CtlEvent, out: &mut Outbox<Wire>) {
        match ev {
            CtlEvent::Arrive { user, kind } => self.on_arrive(now, user, kind),
            CtlEvent::UploadDone { req, rgen } => self.on_upload_done(now, req, rgen, out),
            CtlEvent::DownloadDone { req, rgen } => {
                if !self.stale(req, rgen) {
                    self.finish(now, req, Phase::Done);
                }
            }
            CtlEvent::RetryFire { req, rgen } => {
                if !self.stale(req, rgen) {
                    self.rec.set_current_request(Some(req as u64));
                    self.route_request(now, req);
                }
            }
            CtlEvent::LocalDone { req } => self.finish(now, req, Phase::Done),
            CtlEvent::HostCrash { selector } => self.on_host_crash(now, selector, out),
            CtlEvent::HostUp { host, hgen } => self.on_host_up(now, host, hgen, out),
            CtlEvent::FabricPoll { fabric, epoch } => self.on_fabric_poll(now, fabric, epoch, out),
            CtlEvent::WanArrive { mig } => self.forward_mig(now, mig, out),
            CtlEvent::Scan => self.on_scan(now, out),
            CtlEvent::Deliver { src, msg } => self.on_msg(now, src, msg, out),
        }
    }

    fn on_msg(&mut self, now: SimTime, src: usize, msg: Wire, out: &mut Outbox<Wire>) {
        let h = src - 1;
        match msg {
            Wire::Done { req, rgen } => self.on_done(now, req, rgen),
            Wire::WarmInfo { kind_ix, warm } => {
                let hints = &mut self.cells[self.hosts[h].cell].warm[kind_ix];
                if warm {
                    hints.insert(h);
                } else {
                    hints.remove(&h);
                }
            }
            Wire::DrainEmpty => {
                if self.hosts[h].status == HostStatus::Draining && self.admission.depth(h) == 0 {
                    self.hosts[h].status = HostStatus::Standby;
                    out.send(now, src, Wire::FinishDrain);
                }
            }
            Wire::MigState { dst, ckpt } => self.on_mig_state(now, h, dst, ckpt),
            Wire::MigLanded { mig, bytes } => self.on_mig_landed(mig, bytes),
            _ => unreachable!("control-bound message"),
        }
    }

    // ----------------------------------------------------- request intake

    fn on_arrive(&mut self, now: SimTime, user: u32, kind: WorkloadKind) {
        let task = kind.profile().sample(&mut self.rng_svc);
        let req = self.reqs.len();
        self.reqs.push(ReqState {
            user,
            region: self.layout.region_of_user(user),
            kind,
            task,
            arrival: now,
            finished: now,
            phase: Phase::Dispatch,
            fell_back: false,
            host: None,
            attempts: 1,
            rerouted: 0,
            reason: None,
            holding: false,
            gen: 0,
        });
        self.outstanding += 1;
        self.rec.set_current_request(Some(req as u64));
        self.route_request(now, req);
    }

    /// Route (or re-route) `req` through the layout's policy: pick a
    /// cell, a host by the cell's own ring, admit, and start the
    /// upload — or shed to the resilience layer.
    fn route_request(&mut self, now: SimTime, req: usize) {
        let kix = kind_ix(self.reqs[req].kind);
        let region = self.reqs[req].region;
        let (hosts, admission) = (&self.hosts, &self.admission);
        // Every cell's warm list, straight from its hint set.
        for cell in &mut self.cells {
            let active = |&g: &usize| hosts[g].status == HostStatus::Active;
            cell.warm_active.clear();
            cell.warm_active
                .extend(cell.warm[kix].iter().copied().filter(active));
        }
        let cells = &self.cells;
        let warm = |cell: usize| cells[cell].warm_active.as_slice();
        let decision =
            (self.layout.route)(region, &self.aids[kix], &self.routers, &warm, &mut |g| {
                hosts[g].status == HostStatus::Active && admission.has_room(g)
            });
        let Some(d) = decision else {
            return self.shed(now, req);
        };
        // A request must never hold two slots at once, however it
        // spilled, re-routed or deferred.
        if self.reqs[req].holding {
            self.control.double_admissions += 1;
        }
        assert!(self.admission.admit(d.host), "router picked a full host");
        match d.reason {
            RouteReason::Affinity => self.control.affinity_routes += 1,
            RouteReason::Hash => self.control.hash_routes += 1,
            RouteReason::Spill => self.control.spill_routes += 1,
        }
        if d.cross_region {
            self.control.cross_region_routes += 1;
        }
        let r = &mut self.reqs[req];
        r.holding = true;
        r.host = Some(d.host);
        r.reason = Some(d.reason);
        if self.rec.is_enabled() {
            self.rec.instant(
                self.layout.subsystem,
                "route",
                attrs![
                    ("cell", AttrValue::U64(d.cell as u64)),
                    ("host", AttrValue::U64(d.host as u64)),
                    ("reason", AttrValue::Str(d.reason.label())),
                    ("cross_region", AttrValue::Bool(d.cross_region)),
                    ("aid", AttrValue::Text(self.aids[kix].to_string())),
                    ("depth", AttrValue::U64(self.admission.depth(d.host) as u64)),
                ],
            );
        }
        self.begin_upload(now, req);
    }

    /// Upload = the device's access radio plus the WAN leg toward the
    /// serving cell (none when the home cell serves it).
    fn begin_upload(&mut self, now: SimTime, req: usize) {
        self.reqs[req].phase = Phase::DataTransferUp;
        let bytes = self.reqs[req].task.control_bytes + self.reqs[req].task.payload_bytes;
        let mut rng = self.req_rng(req, 10 + self.reqs[req].attempts as u64);
        let link = &self.links[self.reqs[req].region];
        let mut t =
            link.connect_time(&mut rng) + link.transfer_time(bytes, Direction::Upload, &mut rng);
        t += self.wan_leg(req, bytes);
        let rgen = self.reqs[req].gen;
        // Scenario cohort radio windows price the uplink: degradation
        // stretches the transfer, an outage cuts it and defers the
        // attempt to the window edge — where the whole cohort
        // re-offloads at once (the thundering herd).
        let outcome = match &self.driver {
            Some(d) => d.price_transfer(self.reqs[req].user, now, t),
            None => TransferOutcome::Completes {
                at: now.saturating_add(t),
            },
        };
        match outcome {
            TransferOutcome::Completes { at } => {
                self.queue.schedule(at, CtlEvent::UploadDone { req, rgen });
            }
            TransferOutcome::Interrupted { .. } => {
                let release = self
                    .driver
                    .as_ref()
                    .expect("an interrupted transfer implies a driver")
                    .release_time(self.reqs[req].user, now);
                self.defer_upload(now, req, release);
            }
        }
    }

    /// The WAN contribution of serving `req` from the cell it was
    /// routed to: the extra round trip plus `bytes` over the shared
    /// leg.
    fn wan_leg(&mut self, req: usize, bytes: u64) -> SimDuration {
        let cell = self.hosts[self.reqs[req].host.expect("routed")].cell;
        match self.layout.legs[self.reqs[req].region * self.cells.len() + cell] {
            None => SimDuration::ZERO,
            Some(leg) => {
                self.control.wan_request_bytes += bytes;
                leg.rtt + SimDuration::from_secs_f64(bytes as f64 / leg.bps)
            }
        }
    }

    /// Give back `req`'s admission slot, if it holds one.
    fn release(&mut self, req: usize) {
        if std::mem::take(&mut self.reqs[req].holding) {
            self.admission
                .release(self.reqs[req].host.expect("holding implies routed"));
        }
    }

    /// A cohort outage cut this upload: release the admitted slot and
    /// re-route when the radio returns (or degrade when the retry
    /// budget is spent). Every deferred request re-fires at the same
    /// window edge, so the restore instant is a genuine herd.
    fn defer_upload(&mut self, now: SimTime, req: usize, release: SimTime) {
        self.scn.3 += 1;
        self.release(req);
        let r = &mut self.reqs[req];
        r.host = None;
        r.gen += 1;
        r.attempts += 1;
        if self.rec.is_enabled() {
            self.rec.instant(
                self.layout.subsystem,
                "radio_defer",
                attrs![
                    ("release_us", AttrValue::U64(release.as_micros())),
                    ("attempt", AttrValue::U64(self.reqs[req].attempts as u64)),
                ],
            );
        }
        self.retry_or_degrade(now, req, |_| release.max(now));
    }

    /// Re-route `req` at `at(self)` while its retry budget lasts (the
    /// instant is only computed — and its backoff only drawn — then);
    /// degrade once the budget is spent.
    fn retry_or_degrade(
        &mut self,
        now: SimTime,
        req: usize,
        at: impl FnOnce(&mut Self) -> SimTime,
    ) {
        if self.reqs[req].attempts <= self.layout.resilience.max_retries + 1 {
            self.reqs[req].phase = Phase::Retrying;
            let at = at(self);
            let rgen = self.reqs[req].gen;
            self.queue.schedule(at, CtlEvent::RetryFire { req, rgen });
        } else {
            self.degrade(now, req);
        }
    }

    /// No host admitted the request: degrade per the resilience policy.
    fn shed(&mut self, now: SimTime, req: usize) {
        self.control.shed += 1;
        self.admission.count_shed();
        self.reqs[req].host = None;
        if self.rec.is_enabled() {
            self.rec.instant(
                self.layout.subsystem,
                "shed",
                attrs![
                    ("region", AttrValue::U64(self.reqs[req].region as u64)),
                    (
                        "fallback",
                        AttrValue::U64(self.layout.resilience.fallback_local as u64),
                    ),
                ],
            );
        }
        self.degrade(now, req);
    }

    /// Finish on-device or abandon, per policy.
    fn degrade(&mut self, now: SimTime, req: usize) {
        if self.layout.resilience.fallback_local {
            self.reqs[req].fell_back = true;
            self.reqs[req].phase = Phase::FallbackLocal;
            let device = self.layout.regions[self.reqs[req].region].device;
            let t = device.local_execution_time(self.reqs[req].task.compute);
            self.queue
                .schedule(now.saturating_add(t), CtlEvent::LocalDone { req });
        } else {
            self.finish(now, req, Phase::Abandoned);
        }
    }

    fn stale(&self, req: usize, rgen: u32) -> bool {
        self.reqs[req].gen != rgen || self.reqs[req].phase.is_terminal()
    }

    // ------------------------------------------------- service hand-off

    fn on_upload_done(&mut self, now: SimTime, req: usize, rgen: u32, out: &mut Outbox<Wire>) {
        if self.stale(req, rgen) {
            return;
        }
        self.rec.set_current_request(Some(req as u64));
        self.reqs[req].phase = Phase::RuntimePrep;
        let g = self.reqs[req].host.expect("routed");
        let req_seed = derive_seed(self.net_root, req as u64);
        out.send(
            now,
            g + 1,
            Wire::Start {
                req,
                rgen,
                task: self.reqs[req].task,
                xfer_seed: derive_seed(req_seed, 1000 + self.reqs[req].attempts as u64),
            },
        );
    }

    /// The host reported the result ready: release admission and start
    /// the download. Arrives one window after the host-side completion
    /// — the control plane's notification latency.
    fn on_done(&mut self, now: SimTime, req: usize, rgen: u32) {
        if self.stale(req, rgen) {
            return;
        }
        self.rec.set_current_request(Some(req as u64));
        debug_assert!(self.reqs[req].holding, "done without an admission slot");
        self.release(req);
        self.reqs[req].phase = Phase::DataTransferDown;
        let mut rng = self.req_rng(req, 1);
        let bytes = self.reqs[req].task.result_bytes;
        let mut t =
            self.links[self.reqs[req].region].transfer_time(bytes, Direction::Download, &mut rng);
        t += self.wan_leg(req, bytes);
        self.queue
            .schedule(now.saturating_add(t), CtlEvent::DownloadDone { req, rgen });
    }

    fn finish(&mut self, now: SimTime, req: usize, phase: Phase) {
        debug_assert!(phase.is_terminal());
        self.rec.set_current_request(Some(req as u64));
        self.reqs[req].phase = phase;
        self.reqs[req].finished = now;
        self.outstanding -= 1;
        self.rec.set_current_request(None);
    }

    // ------------------------------------------------------------ failures

    fn on_host_crash(&mut self, now: SimTime, selector: u64, out: &mut Outbox<Wire>) {
        self.rec.set_current_request(None);
        let live: Vec<usize> = (0..self.hosts.len())
            .filter(|&h| {
                matches!(
                    self.hosts[h].status,
                    HostStatus::Active | HostStatus::Draining
                )
            })
            .collect();
        if live.is_empty() {
            return;
        }
        let victim = live[(selector % live.len() as u64) as usize];
        let cell = self.hosts[victim].cell;
        self.control.host_crashes += 1;
        self.hosts[victim].crashes += 1;
        self.hosts[victim].gen += 1;
        self.hosts[victim].status = HostStatus::Down;
        self.admission.reset_host(victim);
        self.cells[cell].autoscaler.forget(victim);
        for warm in &mut self.cells[cell].warm {
            warm.remove(&victim);
        }
        self.rebuild_ring(cell);
        out.send(now, victim + 1, Wire::Crash);

        // Every stranded request consumes one attempt and re-routes
        // after backoff (or degrades when the budget is gone). The
        // host learns of its own death one window later; any `Done` it
        // sent in the meantime carries a stale generation and is
        // dropped.
        let affected: Vec<usize> = (0..self.reqs.len())
            .filter(|&r| self.reqs[r].host == Some(victim) && !self.reqs[r].phase.is_terminal())
            .collect();
        if self.rec.is_enabled() {
            self.rec.instant(
                self.layout.subsystem,
                "host_crash",
                attrs![
                    ("host", AttrValue::U64(victim as u64)),
                    ("stranded", AttrValue::U64(affected.len() as u64)),
                ],
            );
        }
        for req in affected {
            self.rec.set_current_request(Some(req as u64));
            let r = &mut self.reqs[req];
            // `reset_host` wiped the victim's slots wholesale.
            r.holding = false;
            r.gen += 1;
            r.host = None;
            r.attempts += 1;
            r.rerouted += 1;
            self.control.crash_reroutes += 1;
            if self.rec.is_enabled() {
                self.rec.instant(
                    self.layout.subsystem,
                    "reroute",
                    attrs![
                        ("from_host", AttrValue::U64(victim as u64)),
                        ("attempt", AttrValue::U64(self.reqs[req].attempts as u64)),
                    ],
                );
            }
            self.retry_or_degrade(now, req, |lp| {
                let backoff = lp
                    .layout
                    .resilience
                    .backoff_delay(lp.reqs[req].attempts - 1, &mut lp.rng_retry);
                now.saturating_add(backoff)
            });
        }
        self.rec.set_current_request(None);

        let hgen = self.hosts[victim].gen;
        self.queue.schedule(
            now.saturating_add(self.layout.crash_reboot),
            CtlEvent::HostUp { host: victim, hgen },
        );
    }

    fn on_host_up(&mut self, now: SimTime, host: usize, hgen: u64, out: &mut Outbox<Wire>) {
        let slot = &self.hosts[host];
        if slot.gen != hgen || !matches!(slot.status, HostStatus::Down | HostStatus::Booting) {
            return;
        }
        self.hosts[host].status = HostStatus::Active;
        if self.hosts[host].scale_span != SpanId::NONE {
            self.rec.span_end_at(
                self.hosts[host].scale_span,
                now.as_micros(),
                attrs![("host", AttrValue::U64(host as u64))],
            );
            self.hosts[host].scale_span = SpanId::NONE;
        }
        self.rebuild_ring(self.hosts[host].cell);
        out.send(now, host + 1, Wire::Online);
    }

    // ----------------------------------------------------------- migration

    /// A source host serialized a container: charge the state through
    /// the fabric of the cell pair, then let it propagate.
    fn on_mig_state(&mut self, now: SimTime, from: usize, dst: usize, ckpt: Box<Checkpoint>) {
        if self.hosts[dst].status != HostStatus::Active {
            return; // destination left while the state froze
        }
        let bytes_src = ckpt.state_bytes();
        let (from_cell, to_cell) = (self.hosts[from].cell, self.hosts[dst].cell);
        let fabric = self.layout.fabric_of[from_cell * self.cells.len() + to_cell];
        let mig = self.migs.len();
        self.migs.push(MigSlot {
            rec: MigrationRecord {
                from_host: from,
                to_host: dst,
                from_cell,
                to_cell,
                bytes_src,
                // The fabric is charged exactly what the source
                // serialized; the conservation invariant holds this to
                // the destination's measurement.
                bytes_wire: bytes_src,
                bytes_dst: 0,
                completed: false,
            },
            ckpt: Some(ckpt),
            gen_to: self.hosts[dst].gen,
        });
        self.control.migrations_started += 1;
        self.rebalancer.committed(now);
        self.fabrics[fabric].begin_transfer(now, bytes_src, mig);
        self.fabrics[fabric].reschedule(now, &mut self.queue, |epoch| CtlEvent::FabricPoll {
            fabric,
            epoch,
        });
    }

    fn on_fabric_poll(&mut self, now: SimTime, fabric: usize, epoch: u64, out: &mut Outbox<Wire>) {
        let Some(finished) = self.fabrics[fabric].poll(now, epoch) else {
            return;
        };
        let rtt = self.layout.fabrics[fabric].rtt;
        for (_, mig) in finished {
            // Serialization drained through the fabric; the state
            // still rides the pair's propagation delay. A zero delay
            // forwards here and now — a same-instant event would pop
            // after everything already queued for `now` and move the
            // hand-off's place in the outbox.
            if rtt == SimDuration::ZERO {
                self.forward_mig(now, mig, out);
            } else {
                self.queue
                    .schedule(now.saturating_add(rtt), CtlEvent::WanArrive { mig });
            }
        }
        self.fabrics[fabric].reschedule(now, &mut self.queue, |epoch| CtlEvent::FabricPoll {
            fabric,
            epoch,
        });
    }

    /// Migration state reached its destination's side of the fabric:
    /// hand it to the host, unless the host left mid-flight.
    fn forward_mig(&mut self, now: SimTime, mig: usize, out: &mut Outbox<Wire>) {
        let to = self.migs[mig].rec.to_host;
        if self.hosts[to].gen != self.migs[mig].gen_to
            || self.hosts[to].status != HostStatus::Active
        {
            return; // destination crashed or drained; the move is orphaned
        }
        let ckpt = self.migs[mig].ckpt.take().expect("delivered once");
        out.send(now, to + 1, Wire::MigIn { mig, ckpt });
    }

    /// The destination restored the container and it is serving;
    /// `bytes` is what it measured while restoring — the conservation
    /// check's third leg.
    fn on_mig_landed(&mut self, mig: usize, bytes: u64) {
        self.migs[mig].rec.bytes_dst = bytes;
        self.migs[mig].rec.completed = true;
        let m = self.migs[mig].rec;
        self.hosts[m.from_host].migrations_out += 1;
        self.hosts[m.to_host].migrations_in += 1;
        self.control.migrations_completed += 1;
        self.control.migration_bytes += bytes;
        if self.rec.is_enabled() {
            self.rec.instant(
                self.layout.subsystem,
                "migration_done",
                attrs![
                    ("from", AttrValue::U64(m.from_host as u64)),
                    ("to", AttrValue::U64(m.to_host as u64)),
                    ("from_cell", AttrValue::U64(m.from_cell as u64)),
                    ("to_cell", AttrValue::U64(m.to_cell as u64)),
                    ("state_bytes", AttrValue::U64(bytes)),
                ],
            );
        }
    }

    // -------------------------------------------------------- control loop

    /// The control loop: per-cell observation and scaling (with
    /// cloud-burst loans), then the rebalancer across every cell that
    /// takes part.
    fn on_scan(&mut self, now: SimTime, out: &mut Outbox<Wire>) {
        self.rec.set_current_request(None);
        for cell in 0..self.cells.len() {
            let active = self.cell_active(cell);
            // Observe per-host pressure into the cell's EWMA monitor.
            for &g in &active {
                let depth = self.admission.depth(g) as u32;
                self.cells[cell].autoscaler.observe(g, depth);
            }
            let saturation = if active.is_empty() {
                0.0
            } else {
                active
                    .iter()
                    .map(|&g| self.admission.utilization(g))
                    .sum::<f64>()
                    / active.len() as f64
            };
            let spare = self.standby_in(cell);
            // Cloud-burst: a saturated cell with no spare of its own
            // may borrow a standby from the cell it bursts to.
            let loan = self.layout.cells[cell]
                .burst_to
                .and_then(|core| Some((core, self.standby_in(core)?)));
            let plan = self.cells[cell].autoscaler.plan(
                now,
                saturation,
                &active,
                spare.is_some() || loan.is_some(),
            );
            match (plan, spare, loan) {
                (Some(FleetAction::Activate), Some(host), _) => {
                    self.activate(now, host);
                    self.control.scale_ups += 1;
                }
                (Some(FleetAction::Activate), None, Some((core, host))) => {
                    self.activate(now, host);
                    self.control.bursts += 1;
                    if self.rec.is_enabled() {
                        self.rec.instant(
                            self.layout.subsystem,
                            "burst",
                            attrs![
                                ("edge_cell", AttrValue::U64(cell as u64)),
                                ("core_cell", AttrValue::U64(core as u64)),
                            ],
                        );
                    }
                }
                (Some(FleetAction::Drain(victim)), ..) => self.drain(now, victim, out),
                _ => {}
            }
        }

        // Rebalance: ask the hottest host to ship one warm container
        // to the coldest when the gap warrants it (across regions this
        // follows the sun). The source commits the move, or silently
        // declines if it has nothing warm.
        let capacity = self.admission.capacity() as f64;
        let candidates = self
            .hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.status == HostStatus::Active && self.layout.cells[h.cell].rebalances)
            .map(|(g, h)| (&self.cells[h.cell].autoscaler, g));
        let hot_cold = Autoscaler::hot_cold(candidates, |_| capacity);
        if let Some(mv) = self.rebalancer.plan(now, hot_cold) {
            if self.hosts[mv.to].status == HostStatus::Active {
                out.send(now, mv.from + 1, Wire::MigOut { dst: mv.to });
            }
        }

        if now < self.horizon || self.outstanding > 0 {
            self.queue
                .schedule_in(self.layout.scan_interval, CtlEvent::Scan);
        } else {
            // Horizon passed with nothing in flight: stop every host's
            // maintenance loop so the simulation drains.
            for g in 0..self.hosts.len() {
                out.send(now, g + 1, Wire::Shutdown);
            }
        }
    }

    /// First standby host of `cell`, if any.
    fn standby_in(&self, cell: usize) -> Option<usize> {
        self.layout.cells[cell]
            .hosts
            .clone()
            .find(|&g| self.hosts[g].status == HostStatus::Standby)
    }

    /// Power on standby `host`, on its cell's own boot clock.
    fn activate(&mut self, now: SimTime, host: usize) {
        let cell = self.hosts[host].cell;
        self.hosts[host].status = HostStatus::Booting;
        if self.rec.is_enabled() {
            self.hosts[host].scale_span = self.rec.span_start_at(
                self.layout.subsystem,
                "scale_up",
                SpanId::NONE,
                now.as_micros(),
                attrs![
                    ("host", AttrValue::U64(host as u64)),
                    ("cell", AttrValue::U64(cell as u64)),
                ],
            );
        }
        let hgen = self.hosts[host].gen;
        let boot = self.layout.cells[cell].autoscale.host_boot;
        self.queue
            .schedule(now.saturating_add(boot), CtlEvent::HostUp { host, hgen });
    }

    fn drain(&mut self, now: SimTime, victim: usize, out: &mut Outbox<Wire>) {
        let cell = self.hosts[victim].cell;
        if self.hosts[victim].status != HostStatus::Active || self.cell_active(cell).len() < 2 {
            return;
        }
        self.hosts[victim].status = HostStatus::Draining;
        self.control.drains += 1;
        self.cells[cell].autoscaler.forget(victim);
        if self.rec.is_enabled() {
            self.rec.instant(
                self.layout.subsystem,
                "drain",
                attrs![
                    ("host", AttrValue::U64(victim as u64)),
                    ("cell", AttrValue::U64(cell as u64)),
                ],
            );
        }
        self.rebuild_ring(cell);
        out.send(now, victim + 1, Wire::Drain);
    }

    // ------------------------------------------------------------- helpers

    fn cell_active(&self, cell: usize) -> BTreeSet<usize> {
        self.layout.cells[cell]
            .hosts
            .clone()
            .filter(|&g| self.hosts[g].status == HostStatus::Active)
            .collect()
    }

    fn rebuild_ring(&mut self, cell: usize) {
        let active = self.cell_active(cell);
        self.routers[cell].rebuild(&active);
    }

    /// The finished report, less what only the host shards know
    /// (`served` and the two peaks, filled in by [`ControlLayout::run`]),
    /// plus the plane's trace buffer.
    fn finish_lp(self) -> (FleetReport, TraceSnapshot) {
        self.rec.set_current_request(None);
        // Consumed, not borrowed: the request table is the run's
        // largest allocation and is gone before the summary's samples
        // are.
        let records: Vec<FleetRequestRecord> = self
            .reqs
            .into_iter()
            .enumerate()
            .map(|(i, r)| FleetRequestRecord {
                id: i as u64,
                user: r.user,
                kind: r.kind,
                arrival: r.arrival,
                finished: r.finished,
                phase: r.phase,
                fell_back: r.fell_back,
                host: r.host,
                attempts: r.attempts,
                rerouted: r.rerouted,
                reason: r.reason,
            })
            .collect();
        let scenario = self.driver.as_ref().map(|d| {
            ScenarioStats::build(
                d.name(),
                self.scn,
                d.tenant_names(),
                |user| d.tenant_of(user),
                &records,
            )
        });
        let hosts = self
            .hosts
            .iter()
            .enumerate()
            .map(|(g, h)| {
                let cell = &self.layout.cells[h.cell];
                HostReport {
                    cell: h.cell,
                    memory_bytes: cell.specs[g - cell.hosts.start].memory_bytes,
                    migrations_out: h.migrations_out,
                    migrations_in: h.migrations_in,
                    crashes: h.crashes,
                    ..HostReport::default()
                }
            })
            .collect();
        let mut report =
            FleetReport::summarize(records, self.control, hosts, self.layout.traffic.duration);
        report.migrations = self.migs.into_iter().map(|m| m.rec).collect();
        report.scenario = scenario;
        (report, self.rec.snapshot())
    }
}

// ====================================================================
// LP plumbing and the one way in: `ControlLayout::run`
// ====================================================================

enum PlaneLp {
    Ctl(Box<ControlLp>),
    Host(Box<HostLp>),
}

impl Lp for PlaneLp {
    type Msg = Wire;

    fn next_time(&mut self) -> Option<SimTime> {
        match self {
            PlaneLp::Ctl(lp) => lp.queue.peek_time(),
            PlaneLp::Host(lp) => lp.next_time(),
        }
    }

    fn run_window(&mut self, bound: SimTime, out: &mut Outbox<Wire>) {
        match self {
            PlaneLp::Ctl(lp) => {
                while let Some((now, ev)) = lp.queue.pop_before(bound) {
                    lp.rec.set_now(now.as_micros());
                    lp.dispatch(now, ev, out);
                }
            }
            PlaneLp::Host(lp) => lp.run_window(bound, out),
        }
    }

    fn accept(&mut self, at: SimTime, src: usize, msg: Wire) {
        match self {
            PlaneLp::Ctl(lp) => {
                lp.queue.schedule(at, CtlEvent::Deliver { src, msg });
            }
            // Hosts only hear from control.
            PlaneLp::Host(lp) => lp.accept(at, msg),
        }
    }
}

enum LpOut {
    Ctl(Box<(FleetReport, TraceSnapshot)>),
    Host(HostOut),
}

impl ControlLayout {
    /// Run the layout to completion: the control plane as LP 0, one
    /// host shard per host (running under its cell's host config),
    /// every LP's trace merged into `rec` in LP order.
    /// Returns the run's report, hosts in global index order. The one
    /// LP build/merge path behind every `run_fleet*` and `run_geo*`.
    pub fn run(self: &Arc<Self>, rec: &Recorder) -> FleetReport {
        let n_hosts = self.cells.last().map_or(0, |c| c.hosts.end);
        let rec_cfg = rec.config();

        let build = {
            let layout = Arc::clone(self);
            move |i: usize| {
                // Each LP records into its own single-threaded recorder;
                // the snapshots merge below in LP order, so traced and
                // untraced runs pop identical event sequences.
                let lp_rec = match &rec_cfg {
                    Some(c) => Recorder::enabled(c.clone()),
                    None => Recorder::disabled(),
                };
                if i == CTL {
                    return PlaneLp::Ctl(Box::new(ControlLp::new(Arc::clone(&layout), lp_rec)));
                }
                let g = i - 1;
                let cell = layout
                    .cells
                    .iter()
                    .find(|c| c.hosts.contains(&g))
                    .expect("every host belongs to a cell");
                PlaneLp::Host(Box::new(HostLp::new(cell, g - cell.hosts.start, lp_rec)))
            }
        };
        let finish = |_: usize, lp: PlaneLp| match lp {
            PlaneLp::Ctl(c) => LpOut::Ctl(Box::new(c.finish_lp())),
            PlaneLp::Host(h) => LpOut::Host(h.finish_lp()),
        };

        let mut outs = run_sharded(
            n_hosts + 1,
            self.sync_window,
            ShardMode::Serial,
            build,
            finish,
        )
        .into_iter();
        let Some(LpOut::Ctl(ctl)) = outs.next() else {
            unreachable!("LP 0 is the control plane");
        };
        let (mut report, snapshot) = *ctl;
        rec.import(&snapshot);
        for (host, o) in report.hosts.iter_mut().zip(outs) {
            let LpOut::Host(o) = o else {
                unreachable!("one control plane");
            };
            rec.import(&o.snapshot);
            host.served = o.served;
            host.peak_instances = o.peak_instances;
            host.peak_memory = o.peak_memory;
        }
        report
    }
}
