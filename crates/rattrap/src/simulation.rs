//! End-to-end discrete-event simulation of offloading against a cloud
//! platform — the engine behind every figure and table in the
//! evaluation.
//!
//! Five (or N) client devices issue offloading requests over a network
//! scenario; the platform (VM baseline, Rattrap(W/O) or Rattrap)
//! provisions runtime environments on the [`CloudHost`], routes
//! requests through the Dispatcher / App Warehouse / Access Controller,
//! executes compute on a fair-shared server CPU and offloading I/O on
//! the (random-access-penalized) server disk, and returns results.
//!
//! The engine is a thin wiring-and-routing layer over three substrates:
//!
//! * contended devices (server CPU, offloading disk, device CPUs) are
//!   [`FairShareExecutor`]s — the epoch/job-map completion machinery
//!   lives in `simkit::executor`, not here;
//! * per-request phase accounting is the [`RequestLifecycle`] state
//!   machine in [`crate::lifecycle`], with [`PhaseObserver`] hooks on
//!   every transition;
//! * [`Simulation::run`] collects every completed request straight
//!   into the [`SimulationReport`], with its §III-B phase decomposition,
//!   beside the 1-second server-load timelines of Fig. 2. Lifecycle
//!   slots are recycled, so the engine's own state is bounded by the
//!   in-flight request count.

use crate::access::{AccessController, Action};
use crate::config::{DeviceSpec, RANDOM_IO_FACTOR};
use crate::decision::{Objective, OffloadDecider};
use crate::dispatcher::{ContainerDb, Dispatcher, InstanceState, Placement};
use crate::lifecycle::{Phase, PhaseObserver, RequestLifecycle, ResumeStage};
use crate::metrics::FaultStats;
use crate::platform::PlatformConfig;
use crate::request::{PhaseBreakdown, RequestRecord};
use crate::resilience::ResiliencePolicy;
use crate::scheduler::PoolPolicy;
use crate::warehouse::{aid_of, Aid, AppWarehouse, WarehouseStats};
use netsim::{Direction, Link, NetworkScenario};
use obsv::{attrs, AttrValue, Counter, Recorder, SpanId, Subsystem};
use simkit::faults::{
    link_available_at, transfer_outcome, FaultConfig, FaultPlan, LinkWindow, StragglerWindow,
    TransferOutcome,
};
use simkit::{
    derive_seed, EventQueue, FairShareExecutor, SimDuration, SimRng, SimTime, TimelineSampler,
};
use std::collections::BTreeMap;
use virt::{CloudHost, HostError, InstanceId, TMPFS_BANDWIDTH};
use workloads::WorkloadKind;

/// How requests arrive.
#[derive(Debug, Clone)]
pub enum ArrivalModel {
    /// Each device issues its next request one think time after the
    /// previous response (the §VI-C experiments).
    ClosedLoop {
        /// Mean exponential think time, seconds.
        think_mean_s: f64,
        /// Stagger between devices' first requests, seconds.
        stagger_s: f64,
    },
    /// Requests fire at externally supplied instants per device (the
    /// LiveLab trace replay of §VI-E) regardless of earlier responses.
    Trace(Vec<Vec<SimTime>>),
}

/// One simulation scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Platform under test.
    pub platform: PlatformConfig,
    /// Workload every device runs (unless overridden per device).
    pub workload: WorkloadKind,
    /// Per-device workload override — the multi-tenant "cloudlet"
    /// scenario where one shared pool serves different apps. Indexed by
    /// device id; devices beyond the list fall back to `workload`.
    pub device_workloads: Option<Vec<WorkloadKind>>,
    /// Number of client devices.
    pub devices: u32,
    /// Requests each device issues (closed-loop mode).
    pub requests_per_device: u32,
    /// Network scenario.
    pub scenario: NetworkScenario,
    /// Device hardware model.
    pub device_spec: DeviceSpec,
    /// Master seed.
    pub seed: u64,
    /// Timeline-sampling horizon (Fig. 2 uses 180 s).
    pub sample_horizon: SimDuration,
    /// Arrival model.
    pub arrivals: ArrivalModel,
    /// Run the client-side decision engine: tasks predicted to lose by
    /// offloading execute on the device instead (recorded with
    /// `executed_locally = true`). Off by default — the paper's
    /// experiments always offload.
    pub adaptive_offloading: bool,
    /// Fault-injection intensities. All rates zero by default; an
    /// inert config generates an empty plan and leaves the engine's
    /// event stream bit-identical to the pre-fault-plane engine.
    pub faults: FaultConfig,
    /// How the platform absorbs injected faults (timeouts, retries,
    /// fallback). The default [`ResiliencePolicy::none`] schedules no
    /// timeout events, so fault-free runs stay bit-identical.
    pub resilience: ResiliencePolicy,
    /// Ratios the cycle model's compute price is scaled by, resolved for
    /// [`exec::HostClass::PAPER_SERVER`]. The default identity map
    /// prices exactly as the bare cycle model, which every golden digest
    /// pins; [`exec::CalibrationMap::committed`] prices at the measured
    /// kernel costs.
    pub calibration: exec::CalibrationMap,
}

impl ScenarioConfig {
    /// The §VI-C setup: closed loop, LAN WiFi, 5 devices × 20 requests.
    pub fn paper_default(platform: PlatformConfig, workload: WorkloadKind, seed: u64) -> Self {
        let think = workload.profile().think_time_secs;
        ScenarioConfig {
            platform,
            workload,
            devices: crate::config::PAPER_DEVICE_COUNT,
            requests_per_device: crate::config::PAPER_REQUESTS_PER_DEVICE,
            scenario: NetworkScenario::LanWifi,
            device_spec: DeviceSpec::default_handset(),
            seed,
            sample_horizon: SimDuration::from_secs(180),
            arrivals: ArrivalModel::ClosedLoop {
                think_mean_s: think,
                stagger_s: 0.5,
            },
            device_workloads: None,
            adaptive_offloading: false,
            faults: FaultConfig::none(),
            resilience: ResiliencePolicy::none(),
            calibration: exec::CalibrationMap::identity(),
        }
    }

    /// The workload a given device runs.
    fn workload_of(&self, device: u32) -> WorkloadKind {
        self.device_workloads
            .as_ref()
            .and_then(|v| v.get(device as usize).copied())
            .unwrap_or(self.workload)
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct SimulationReport {
    /// Served requests, in completion order.
    pub requests: Vec<RequestRecord>,
    /// CPU utilization per second (fraction of provisioned vCPUs busy).
    pub cpu_timeline: Vec<f64>,
    /// Disk reads, MB/s per second.
    pub io_read_mb_s: Vec<f64>,
    /// Disk writes, MB/s per second.
    pub io_write_mb_s: Vec<f64>,
    /// Code-cache statistics.
    pub warehouse_stats: WarehouseStats,
    /// Access-controller filter invocations.
    pub access_checks: u64,
    /// Instances provisioned over the run.
    pub instances_provisioned: u32,
    /// Peak host memory reserved, bytes.
    pub peak_memory_bytes: u64,
    /// Physical disk in use at the end of the run, bytes.
    pub final_disk_bytes: u64,
    /// Peak physical disk over the run, bytes.
    pub peak_disk_bytes: u64,
    /// Simulated instant the last request completed.
    pub finished_at: SimTime,
    /// Fault-plane accounting (all zero on fault-free runs).
    pub fault_stats: FaultStats,
}

impl SimulationReport {
    /// Total bytes uploaded by all devices.
    pub fn total_upload_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.upload_bytes).sum()
    }

    /// Total bytes downloaded.
    pub fn total_download_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.download_bytes).sum()
    }

    /// Mean of a per-request metric.
    pub fn mean_of(&self, f: impl Fn(&RequestRecord) -> f64) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests.iter().map(f).sum::<f64>() / self.requests.len() as f64
    }

    /// Fraction of requests that are offloading failures.
    pub fn failure_rate(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .filter(|r| r.is_offloading_failure())
            .count() as f64
            / self.requests.len() as f64
    }
}

/// Engine events. Per-request events carry the slot *generation* that
/// scheduled them: a fault invalidates every event of the killed
/// attempt by bumping the slot's generation, so stale completions are
/// dropped on receipt instead of corrupting a retried (or recycled)
/// slot. Fault-free runs never bump a generation mid-request, so every
/// check passes and the event stream is unchanged.
#[derive(Debug, Clone)]
enum Event {
    Arrival {
        device: u32,
        seq: u32,
    },
    UploadDone {
        req: usize,
        gen: u64,
    },
    BootDone {
        instance: InstanceId,
    },
    CodeLoaded {
        req: usize,
        gen: u64,
    },
    TmpfsIoDone {
        req: usize,
        gen: u64,
    },
    CpuCheck {
        epoch: u64,
    },
    DiskCheck {
        epoch: u64,
    },
    DeviceCpuCheck {
        device: u32,
        epoch: u64,
    },
    RequestComplete {
        req: usize,
        gen: u64,
    },
    IdleScan,
    /// The `idx`-th instance crash of the fault plan fires.
    InstanceFault {
        idx: usize,
    },
    /// A link fault interrupts the in-flight transfer of `req`.
    TransferFault {
        req: usize,
        gen: u64,
    },
    /// `req` has dwelt in `phase` past the policy timeout.
    PhaseTimeout {
        req: usize,
        gen: u64,
        phase: Phase,
    },
    /// Backoff elapsed; launch the next attempt of `req`.
    Retry {
        req: usize,
        gen: u64,
    },
}

/// Per-slot trace spans, parallel to `Simulation::pending`: the
/// request's root span and the span of the phase it currently dwells
/// in. Both are [`SpanId::NONE`] when the recorder is disabled.
#[derive(Debug, Clone, Copy, Default)]
struct ReqSpans {
    root: SpanId,
    phase: SpanId,
}

/// The simulation state machine. Create with [`Simulation::new`], run
/// with [`Simulation::run`].
pub struct Simulation {
    cfg: ScenarioConfig,
    queue: EventQueue<Event>,
    host: CloudHost,
    /// Every live instance's record, the engine's runtime state included.
    db: ContainerDb,
    dispatcher: Dispatcher,
    warehouse: AppWarehouse,
    access: AccessController,
    link: Link,
    /// Server CPU: cores fair-shared across computing requests.
    cpu: FairShareExecutor<usize>,
    /// Offloading disk: random-access bandwidth fair-shared.
    disk: FairShareExecutor<usize>,
    /// Device-side CPUs (adaptive offloading executes declined tasks
    /// here), one single-core executor per device, created lazily.
    device_cpus: BTreeMap<u32, FairShareExecutor<usize>>,
    /// In-flight request lifecycles. Slots are recycled after
    /// completion (see `free_slots`), so memory is bounded by the
    /// in-flight count, not the run length.
    pending: Vec<RequestLifecycle>,
    free_slots: Vec<usize>,
    /// Per-slot generation counters (see [`Event`]), parallel to
    /// `pending`. Bumped on fault, completion, and slot recycling.
    slot_gen: Vec<u64>,
    cpu_sampler: TimelineSampler,
    io_read: TimelineSampler,
    io_write: TimelineSampler,
    last_level_at: SimTime,
    next_req_id: u64,
    /// Requests brought to a terminal phase, in completion order (ties
    /// in event order); sorted into the report when the run ends.
    records: Vec<RequestRecord>,
    finished_at: SimTime,
    instances_provisioned: u32,
    peak_disk: u64,
    /// Requests the arrival model will issue over the whole run.
    expected_requests: u64,
    /// `"device-{d}"` for every device seen so far: the access
    /// controller's connection check names the client it connects to.
    device_names: Vec<String>,
    /// Scratch for one completion check's finished requests.
    finished: Vec<usize>,
    /// Monitor & Scheduler (§IV-A): warm-pool management and idle
    /// reclamation.
    pool: PoolPolicy,
    /// Lifecycle hooks fired on every phase transition.
    observers: Vec<Box<dyn PhaseObserver>>,
    /// The device's offload decider, present when
    /// `cfg.adaptive_offloading` is on.
    decider: Option<OffloadDecider>,
    /// Link outage/degradation windows from the fault plan (empty on
    /// fault-free runs, which keeps transfer pricing integer-exact).
    link_windows: Vec<LinkWindow>,
    /// Server slowdown windows from the fault plan.
    straggler_windows: Vec<StragglerWindow>,
    /// Instance crash schedule from the fault plan.
    crash_events: Vec<(SimTime, u64)>,
    /// What the faults did and how the policy absorbed them.
    fault_stats: FaultStats,
    /// Observability recorder shared with every layer (disabled unless
    /// [`Simulation::set_recorder`] is called).
    rec: Recorder,
    /// `cfg.calibration` resolved for the paper server: prices every
    /// offloaded request's compute phase.
    compute_prices: exec::CalibrationTable,
    /// Per-slot trace spans, parallel to `pending`.
    req_spans: Vec<ReqSpans>,
    /// Events popped off the queue (no-op handle when untraced).
    ctr_events: Counter,
    /// Requests brought to a terminal phase.
    ctr_completions: Counter,
    /// Lifecycle slots recycled for reuse.
    ctr_recycled: Counter,
    /// Runtime instances provisioned.
    ctr_provisions: Counter,
}

/// Seed-stream tag for the fault plan, disjoint from every per-request
/// stream (`(device << 32) | seq`) because real devices never reach
/// `device = 0xFAB7`.
const FAULT_SEED_STREAM: u64 = 0xFAB7_0000_0000_0001;

impl Simulation {
    /// Build the simulation for `cfg`.
    pub fn new(cfg: ScenarioConfig) -> Self {
        let host = CloudHost::new(hostkernel::HostSpec::paper_server());
        let spec = host.host_spec();
        let cpu = FairShareExecutor::new(spec.cores as f64, 1.0);
        // Offloading I/O is scattered small-block traffic: the HDD
        // delivers only a fraction of its sequential bandwidth.
        let disk = FairShareExecutor::new(
            spec.disk_bandwidth * RANDOM_IO_FACTOR,
            spec.disk_bandwidth * RANDOM_IO_FACTOR,
        );
        let bin = SimDuration::from_secs(1);
        let horizon = cfg.sample_horizon;
        let dispatcher = Dispatcher::new(cfg.platform.dispatch_policy());
        let fault_plan = FaultPlan::generate(&cfg.faults, derive_seed(cfg.seed, FAULT_SEED_STREAM));
        let compute_prices = cfg.calibration.resolve(exec::HostClass::PAPER_SERVER);
        let expected_requests = match &cfg.arrivals {
            ArrivalModel::ClosedLoop { .. } => (cfg.devices * cfg.requests_per_device) as u64,
            ArrivalModel::Trace(t) => t.iter().map(|v| v.len() as u64).sum(),
        };
        let decider = cfg
            .adaptive_offloading
            .then(|| OffloadDecider::new(cfg.device_spec, Objective::Latency));
        Simulation {
            queue: EventQueue::new(),
            host,
            db: ContainerDb::new(),
            dispatcher,
            warehouse: AppWarehouse::new(512 * 1024 * 1024),
            access: AccessController::new(10),
            link: Link::new(cfg.scenario),
            cpu,
            disk,
            device_cpus: BTreeMap::new(),
            pending: Vec::new(),
            free_slots: Vec::new(),
            slot_gen: Vec::new(),
            cpu_sampler: TimelineSampler::new(bin, horizon),
            io_read: TimelineSampler::new(bin, horizon),
            io_write: TimelineSampler::new(bin, horizon),
            last_level_at: SimTime::ZERO,
            next_req_id: 0,
            // Every expected request ends in the report: size it once.
            records: Vec::with_capacity(expected_requests as usize),
            finished_at: SimTime::ZERO,
            instances_provisioned: 0,
            peak_disk: 0,
            pool: PoolPolicy::new(cfg.platform.warm_spares, cfg.platform.max_instances),
            cfg,
            expected_requests,
            device_names: Vec::new(),
            finished: Vec::new(),
            observers: Vec::new(),
            decider,
            link_windows: fault_plan.link_windows(),
            straggler_windows: fault_plan.straggler_windows(),
            crash_events: fault_plan.crashes(),
            fault_stats: FaultStats {
                injected: fault_plan.len() as u64,
                ..FaultStats::default()
            },
            rec: Recorder::disabled(),
            compute_prices,
            req_spans: Vec::new(),
            ctr_events: Counter::default(),
            ctr_completions: Counter::default(),
            ctr_recycled: Counter::default(),
            ctr_provisions: Counter::default(),
        }
    }

    /// Attach an observability recorder. One shared handle is fanned
    /// out to the host (and through it the kernel), both fair-share
    /// executors, and the engine itself, so a single trace carries
    /// spans from every layer. Recording is purely observational: no
    /// scheduled event, duration, or RNG draw depends on it, so an
    /// instrumented run reproduces the golden digests bit-for-bit.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.host.attach_recorder(rec.clone());
        self.cpu.instrument(rec.clone(), "cpu");
        self.disk.instrument(rec.clone(), "disk");
        self.ctr_events = rec.counter("rattrap.events_dispatched");
        self.ctr_completions = rec.counter("rattrap.requests_completed");
        self.ctr_recycled = rec.counter("rattrap.slots_recycled");
        self.ctr_provisions = rec.counter("rattrap.instances_provisioned");
        self.rec = rec;
    }

    /// Register a lifecycle observer; it sees every phase transition of
    /// every request for the rest of the run.
    pub fn add_observer(&mut self, observer: Box<dyn PhaseObserver>) {
        self.observers.push(observer);
    }

    /// Per-request deterministic RNG, identical across platforms so the
    /// "same inflow of requests" hits every system (§VI-C).
    fn req_rng(&self, device: u32, seq: u32) -> SimRng {
        SimRng::new(derive_seed(
            self.cfg.seed,
            ((device as u64) << 32) | seq as u64,
        ))
    }

    /// Run to completion, collecting every request into the report.
    pub fn run(mut self) -> SimulationReport {
        // Seed the arrival events.
        match self.cfg.arrivals.clone() {
            ArrivalModel::ClosedLoop { stagger_s, .. } => {
                for d in 0..self.cfg.devices {
                    if self.cfg.requests_per_device > 0 {
                        self.queue.schedule(
                            SimTime::from_secs_f64(stagger_s * d as f64),
                            Event::Arrival { device: d, seq: 0 },
                        );
                    }
                }
            }
            ArrivalModel::Trace(per_device) => {
                // Known up front, never cancelled: the queue's backlog.
                let arrivals = per_device.iter().enumerate().flat_map(|(d, times)| {
                    times.iter().enumerate().map(move |(i, &t)| {
                        let (device, seq) = (d as u32, i as u32);
                        (t, Event::Arrival { device, seq })
                    })
                });
                self.queue.load_backlog(arrivals);
            }
        }
        // Warm-pool pre-provisioning (Monitor & Scheduler).
        if !self.cfg.platform.per_device_instances {
            self.fill_warm_pool(SimTime::ZERO);
        }
        self.queue.schedule(SimTime::from_secs(10), Event::IdleScan);
        // Schedule the fault plan's instance crashes (none on
        // fault-free runs — the loop body never executes and the event
        // stream is untouched).
        for idx in 0..self.crash_events.len() {
            let at = self.crash_events[idx].0;
            self.queue.schedule(at, Event::InstanceFault { idx });
        }

        // The queue drains naturally: IdleScan stops rescheduling once
        // all expected requests completed, and resource checks stop when
        // no jobs remain.
        while let Some((now, ev)) = self.queue.pop() {
            // Close the CPU-utilization level over the elapsed interval.
            let level = self.current_cpu_level();
            self.cpu_sampler
                .record_level(self.last_level_at, now, level);
            self.last_level_at = now;
            // Share the clock with every clock-less layer (kernel,
            // host) before dispatching.
            self.rec.set_now(now.as_micros());
            self.ctr_events.inc();
            self.handle(now, ev);
            self.peak_disk = self.peak_disk.max(self.host.total_disk_usage());
        }

        // Flush the level channel through the last completion. A
        // trailing IdleScan lands after the final request in every
        // closed-loop and trace configuration, so this is normally a
        // no-op — it exists so a future arrival model whose last event
        // *is* the completion cannot silently drop the tail. (The
        // amount channels need no flush: every byte is recorded by the
        // event that moves it, clipped only at the Fig. 2 horizon.)
        let level = self.current_cpu_level();
        self.cpu_sampler
            .record_level(self.last_level_at, self.finished_at, level);

        // Surface every surviving namespace's logcat ring into the
        // trace metadata (`logcat.ns<N>` → "at_us rendered-line" per
        // line), where the text timeline exporter picks it up.
        if self.rec.is_enabled() {
            for ns in self.host.kernel.namespace_ids() {
                if let Ok(records) = self.host.kernel.dump_log(ns) {
                    let text: String = records
                        .iter()
                        .map(|r| format!("{} {}\n", r.at_us, r.render()))
                        .collect();
                    self.rec.set_meta(&format!("logcat.ns{ns}"), text);
                }
            }
        }

        let mut requests = self.records;
        requests.sort_by_key(|r| (r.completed_at, r.id));
        SimulationReport {
            requests,
            cpu_timeline: self.cpu_sampler.levels(),
            io_read_mb_s: self
                .io_read
                .rates_per_sec()
                .iter()
                .map(|b| b / 1e6)
                .collect(),
            io_write_mb_s: self
                .io_write
                .rates_per_sec()
                .iter()
                .map(|b| b / 1e6)
                .collect(),
            warehouse_stats: self.warehouse.stats(),
            access_checks: self.access.checks(),
            instances_provisioned: self.instances_provisioned,
            peak_memory_bytes: self.host.memory_peak(),
            final_disk_bytes: self.host.total_disk_usage(),
            peak_disk_bytes: self.peak_disk,
            finished_at: self.finished_at,
            fault_stats: self.fault_stats,
        }
    }

    fn all_work_finished(&self) -> bool {
        self.records.len() as u64 >= self.expected_requests
    }

    fn current_cpu_level(&self) -> f64 {
        let provisioned = self.db.len().max(1) as f64;
        let booting = self.db.booting() as f64;
        ((self.cpu.active_jobs() as f64 + 0.7 * booting) / provisioned).min(1.0)
    }

    /// Take a lifecycle slot: recycled if available, fresh otherwise.
    fn alloc_slot(&mut self, lifecycle: RequestLifecycle) -> usize {
        match self.free_slots.pop() {
            Some(slot) => {
                self.pending[slot] = lifecycle;
                self.slot_gen[slot] += 1;
                self.req_spans[slot] = ReqSpans::default();
                slot
            }
            None => {
                self.pending.push(lifecycle);
                self.slot_gen.push(0);
                self.req_spans.push(ReqSpans::default());
                self.pending.len() - 1
            }
        }
    }

    /// Record the phase edge of `req` into the trace: open the root
    /// span on first contact, close the previous phase span, and open
    /// (or, on a terminal phase, close) the next.
    fn trace_transition(&mut self, now: SimTime, req: usize, next: Phase) {
        let at = now.as_micros();
        if self.req_spans[req].root == SpanId::NONE {
            let record = &self.pending[req].record;
            self.req_spans[req].root = self.rec.span_start_at(
                Subsystem::Rattrap,
                "request",
                SpanId::NONE,
                at,
                attrs![
                    ("req", AttrValue::U64(record.id)),
                    ("device", AttrValue::U64(record.device as u64)),
                    ("app", AttrValue::Str(record.kind.app_id())),
                ],
            );
        }
        let prev = std::mem::replace(&mut self.req_spans[req].phase, SpanId::NONE);
        if prev.is_some() {
            self.rec.span_end_at(prev, at, Vec::new());
        }
        if next.is_terminal() {
            let root = std::mem::replace(&mut self.req_spans[req].root, SpanId::NONE);
            self.rec
                .span_end_at(root, at, attrs![("outcome", AttrValue::Str(next.name()))]);
        } else {
            self.req_spans[req].phase = self.rec.span_start_at(
                Subsystem::Rattrap,
                next.name(),
                self.req_spans[req].root,
                at,
                Vec::new(),
            );
        }
    }

    /// Advance request `req` to `next`, then fan the transition out to
    /// every observer.
    fn transition(&mut self, now: SimTime, req: usize, next: Phase) {
        let (from, dwell) = self.pending[req].advance(now, next);
        if self.rec.is_enabled() {
            self.trace_transition(now, req, next);
        }
        if !self.observers.is_empty() {
            let record = &self.pending[req].record;
            for obs in &mut self.observers {
                obs.on_transition(record, from, next, dwell, now);
            }
        }
        // Arm the policy timeout for the phase just entered. The
        // default policy has no timeouts, so fault-free runs schedule
        // nothing here.
        if let Some(timeout) = self.cfg.resilience.timeout_for(next) {
            self.queue.schedule(
                now + timeout,
                Event::PhaseTimeout {
                    req,
                    gen: self.slot_gen[req],
                    phase: next,
                },
            );
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        // Attribute everything a request-scoped event triggers — down
        // to kernel binder instants — to that request. Stale (dropped)
        // events attribute nothing.
        if self.rec.is_enabled() {
            let current = match &ev {
                Event::UploadDone { req, gen }
                | Event::CodeLoaded { req, gen }
                | Event::TmpfsIoDone { req, gen }
                | Event::RequestComplete { req, gen }
                | Event::TransferFault { req, gen }
                | Event::PhaseTimeout { req, gen, .. }
                | Event::Retry { req, gen } => {
                    (self.slot_gen[*req] == *gen).then(|| self.pending[*req].record.id)
                }
                _ => None,
            };
            self.rec.set_current_request(current);
        }
        match ev {
            Event::Arrival { device, seq } => self.on_arrival(now, device, seq),
            Event::UploadDone { req, gen } => {
                if self.slot_gen[req] == gen {
                    self.on_upload_done(now, req);
                }
            }
            Event::BootDone { instance } => self.on_boot_done(now, instance),
            Event::CodeLoaded { req, gen } => {
                if self.slot_gen[req] == gen {
                    self.on_code_loaded(now, req);
                }
            }
            Event::TmpfsIoDone { req, gen } => {
                if self.slot_gen[req] == gen {
                    self.finish_io(now, req);
                }
            }
            Event::CpuCheck { epoch } => self.on_cpu_check(now, epoch),
            Event::DiskCheck { epoch } => self.on_disk_check(now, epoch),
            Event::DeviceCpuCheck { device, epoch } => self.on_device_cpu_check(now, device, epoch),
            Event::RequestComplete { req, gen } => {
                if self.slot_gen[req] == gen {
                    self.on_request_complete(now, req);
                }
            }
            Event::IdleScan => self.on_idle_scan(now),
            Event::InstanceFault { idx } => self.on_instance_fault(now, idx),
            Event::TransferFault { req, gen } => {
                if self.slot_gen[req] == gen {
                    self.on_transfer_fault(now, req);
                }
            }
            Event::PhaseTimeout { req, gen, phase } => {
                if self.slot_gen[req] == gen && self.pending[req].phase() == phase {
                    self.on_phase_timeout(now, req);
                }
            }
            Event::Retry { req, gen } => {
                if self.slot_gen[req] == gen {
                    self.on_retry(now, req);
                }
            }
        }
        self.rec.set_current_request(None);
    }

    // ---- arrival & placement -------------------------------------------

    fn on_arrival(&mut self, now: SimTime, device: u32, seq: u32) {
        let mut rng = self.req_rng(device, seq);
        let kind = self.cfg.workload_of(device);
        let profile = kind.profile();
        let task = profile.sample(&mut rng);
        let app_id = kind.app_id();
        let aid = aid_of(app_id);

        // Adaptive offloading: the device predicts whether the cloud
        // wins and keeps the task local otherwise. A warm Rattrap pool
        // justifies the near-zero expected prep; cache-less platforms
        // would also predict a code upload, but the paper's framework
        // decides per *task*, so we use the steady-state estimate.
        if let Some(decider) = &self.decider {
            let report = decider.decide(self.cfg.scenario, &task, 0, SimDuration::ZERO);
            if !report.offload {
                let local = self.cfg.device_spec.local_execution_time(task.compute);
                let record = RequestRecord {
                    id: self.next_req_id,
                    device,
                    kind,
                    scenario: self.cfg.scenario,
                    seq_on_device: seq,
                    arrived_at: now,
                    completed_at: now + local, // finalized at completion
                    phases: PhaseBreakdown::default(),
                    upload_bytes: 0,
                    code_bytes_sent: 0,
                    download_bytes: 0,
                    code_transferred: false,
                    cid_affinity_hit: false,
                    local_execution: local,
                    upload_time: SimDuration::ZERO,
                    download_time: SimDuration::ZERO,
                    executed_locally: true,
                    retries: 0,
                    fell_back_local: false,
                    abandoned: false,
                };
                self.next_req_id += 1;
                let req = self.alloc_slot(RequestLifecycle::new(record, task, now));
                if self.rec.is_enabled() {
                    self.rec
                        .set_current_request(Some(self.pending[req].record.id));
                }
                self.transition(now, req, Phase::LocalExecution);
                // The task contends for the device's own (single) CPU —
                // concurrent local tasks fair-share it.
                let work = local.as_secs_f64();
                let rec = self.rec.clone();
                let phase_span = self.req_spans[req].phase;
                let exec = self.device_cpus.entry(device).or_insert_with(|| {
                    let mut e = FairShareExecutor::new(1.0, 1.0);
                    e.instrument(rec.clone(), "device_cpu");
                    e
                });
                rec.set_ambient_parent(phase_span);
                exec.submit(now, work, req);
                rec.set_ambient_parent(SpanId::NONE);
                exec.reschedule(now, &mut self.queue, |epoch| Event::DeviceCpuCheck {
                    device,
                    epoch,
                });
                return;
            }
        }

        // Access controller: analyze on first contact, then filter the
        // request workflow (counted even for benign workloads).
        if self.cfg.platform.access_control {
            self.access.admit(app_id, profile.payload_bytes_mean);
            for d in self.device_names.len() as u32..=device {
                self.device_names.push(format!("device-{d}"));
            }
            let dest = &self.device_names[device as usize];
            let _ = self.access.check(app_id, &Action::NetConnect { dest });
            let _ = self.access.check(
                app_id,
                &Action::FsWrite {
                    bytes: task.payload_bytes,
                },
            );
            let _ = self.access.check(
                app_id,
                &Action::BinderCall {
                    service: "offloadcontroller",
                },
            );
        }

        // Placement.
        let instance = self.place(now, device, aid);

        // Does this request carry the mobile code over the network, and
        // does the runtime still need a (local) code load?
        let (code_transferred, resident) = self.code_state(instance, kind, aid);
        let code_bytes_sent = if code_transferred {
            profile.app_code_bytes
        } else {
            0
        };
        let affinity_hit = resident && !code_transferred;
        let code_to_load = if resident { 0 } else { profile.app_code_bytes };

        // Network: connect + upload. The transfer is walked across the
        // fault plan's link windows; with no overlapping window the
        // outcome is the integer-exact `now + connect + upload_time`.
        let connect = self.link.connect_time(&mut rng);
        let upload_bytes = task.payload_bytes + task.control_bytes + code_bytes_sent;
        let upload_time = self
            .link
            .transfer_time(upload_bytes, Direction::Upload, &mut rng);
        let start = now + connect;
        let outcome = transfer_outcome(&self.link_windows, start, upload_time);
        // Interrupted attempts charge nothing up front: the whole
        // attempt dwell is attributed to fault recovery when the
        // TransferFault lands.
        let (charged_connect, charged_upload) = match outcome {
            TransferOutcome::Completes { at } => (connect, at.saturating_since(start)),
            TransferOutcome::Interrupted { .. } => (SimDuration::ZERO, SimDuration::ZERO),
        };

        let local = self.cfg.device_spec.local_execution_time(task.compute);
        let record = RequestRecord {
            id: self.next_req_id,
            device,
            kind,
            scenario: self.cfg.scenario,
            seq_on_device: seq,
            arrived_at: now,
            completed_at: now, // finalized later
            phases: PhaseBreakdown {
                network_connection: charged_connect,
                data_transfer: charged_upload,
                ..Default::default()
            },
            upload_bytes,
            code_bytes_sent,
            download_bytes: 0,
            code_transferred,
            cid_affinity_hit: affinity_hit,
            local_execution: local,
            upload_time: charged_upload,
            download_time: SimDuration::ZERO,
            executed_locally: false,
            retries: 0,
            fell_back_local: false,
            abandoned: false,
        };
        self.next_req_id += 1;

        let mut lifecycle = RequestLifecycle::new(record, task, now);
        lifecycle.instance = Some(instance);
        lifecycle.code_to_load = code_to_load;
        lifecycle.upfront_connect = charged_connect;
        lifecycle.upfront_transfer = charged_upload;
        let req = self.alloc_slot(lifecycle);
        if self.rec.is_enabled() {
            self.rec
                .set_current_request(Some(self.pending[req].record.id));
        }
        self.transition(now, req, Phase::DataTransferUp);
        match outcome {
            TransferOutcome::Completes { at } => {
                let gen = self.slot_gen[req];
                self.queue.schedule(at, Event::UploadDone { req, gen });
                self.trace_transfer(now, at, req, "upload", upload_bytes, false);
            }
            TransferOutcome::Interrupted { at, fraction_done } => {
                let remaining =
                    (((1.0 - fraction_done) * upload_bytes as f64).ceil() as u64).max(1);
                self.pending[req].resume = Some(ResumeStage::Upload { bytes: remaining });
                let gen = self.slot_gen[req];
                self.queue.schedule(at, Event::TransferFault { req, gen });
                self.trace_transfer(now, at, req, "upload", upload_bytes, true);
            }
        }
    }

    /// Record a link transfer of `req` as a [`Subsystem::Netsim`] span
    /// under the request's root. Both endpoints are already priced, so
    /// the span is opened and closed immediately.
    fn trace_transfer(
        &self,
        start: SimTime,
        end: SimTime,
        req: usize,
        name: &'static str,
        bytes: u64,
        interrupted: bool,
    ) {
        if !self.rec.is_enabled() {
            return;
        }
        let span = self.rec.span_start_at(
            Subsystem::Netsim,
            name,
            self.req_spans[req].root,
            start.as_micros(),
            attrs![("bytes", AttrValue::U64(bytes))],
        );
        let attrs = if interrupted {
            attrs![("interrupted", AttrValue::Bool(true))]
        } else {
            attrs![]
        };
        self.rec.span_end_at(span, end.as_micros(), attrs);
    }

    /// Place a request of `device` for app `aid`: the dispatcher's
    /// choice (the warehouse's CID column is its affinity hint), with a
    /// new runtime provisioned when it asks for one. The request counts
    /// against the instance from here on.
    fn place(&mut self, now: SimTime, device: u32, aid: Aid) -> InstanceId {
        let cid_hint = self.warehouse.containers_with(&aid);
        let instance = match self.dispatcher.place(&self.db, device, cid_hint) {
            Placement::Existing(id) => id,
            Placement::Provision => match self.provision(now, device) {
                Some(id) => id,
                None => {
                    // Pool exhausted and nothing to queue on: shouldn't
                    // happen with sane configs; route to least loaded.
                    self.dispatcher
                        .place(&self.db, device, &[])
                        .existing_or_first(&self.db)
                        .expect("some instance exists")
                }
            },
        };
        self.db.add_job(instance);
        instance
    }

    /// Where the code of app `kind` stands for a request just placed on
    /// `instance`: whether this request carries it over the network
    /// (recorded, so the next one does not), and whether the runtime
    /// already has it loaded.
    fn code_state(&mut self, instance: InstanceId, kind: WorkloadKind, aid: Aid) -> (bool, bool) {
        let code_transferred = if self.cfg.platform.code_cache {
            // Rattrap: once and for all, platform-wide — the warehouse
            // preserves the code after this transfer.
            let miss = !self.warehouse.lookup(&aid);
            if miss {
                let code_bytes = kind.profile().app_code_bytes;
                self.warehouse.insert(aid, kind.app_id(), code_bytes);
            }
            miss
        } else {
            // VM / W-O: the client pushes the code into *this* runtime
            // on its first request there (and remembers having done so).
            let runtime = self.db.runtime_mut(instance).expect("placed");
            let first = !runtime.code_pushed.contains(&aid);
            if first {
                runtime.code_pushed.push(aid);
            }
            first
        };
        let resident = self
            .host
            .instance(instance)
            .map(|i| i.apps_loaded.contains(&aid))
            .unwrap_or(false);
        (code_transferred, resident)
    }

    fn provision(&mut self, now: SimTime, device: u32) -> Option<InstanceId> {
        let class = self.cfg.platform.runtime_class;
        match self.host.provision(class) {
            Ok((id, setup)) => {
                self.instances_provisioned += 1;
                self.ctr_provisions.inc();
                let owner = if self.cfg.platform.per_device_instances {
                    Some(device)
                } else {
                    None
                };
                self.db.register(id, now + setup, owner);
                self.queue
                    .schedule(now + setup, Event::BootDone { instance: id });
                // Boot reads the image from disk (Fig. 2's early read
                // plateau): VMs stream most of the image, optimized
                // containers only the shared-layer metadata.
                self.io_read
                    .record_amount_over(now, now + setup, class.boot_read_bytes());
                Some(id)
            }
            Err(HostError::OutOfMemory(_)) => None,
            Err(e) => panic!("provisioning failed: {e}"),
        }
    }

    // ---- pipeline stages -------------------------------------------------

    fn on_upload_done(&mut self, now: SimTime, req: usize) {
        // Receiving migrated data writes it to the offloading store.
        let payload = self.pending[req].task.payload_bytes as f64;
        self.io_write.record_amount(now, payload);
        let instance = self.pending[req].instance.expect("placed at arrival");
        self.transition(now, req, Phase::RuntimePrep);
        let booting = match self.db.get(instance).map(|r| r.state) {
            Some(InstanceState::Ready) => return self.try_start_service(now, instance, req),
            Some(InstanceState::Booting) => instance,
            None => {
                // Instance was torn down while we were uploading (can
                // only happen in trace mode with long uploads): place
                // again by provisioning a fresh one.
                let device = self.pending[req].record.device;
                let id = self
                    .provision(now, device)
                    .expect("re-provision after teardown");
                self.db.add_job(id);
                self.pending[req].instance = Some(id);
                id
            }
        };
        let runtime = self.db.runtime_mut(booting).expect("a live instance");
        runtime.boot_waiters.push(req);
    }

    fn try_start_service(&mut self, now: SimTime, instance: InstanceId, req: usize) {
        let runtime = self.db.runtime_mut(instance).expect("a ready instance");
        if runtime.busy {
            runtime.queue.push_back(req);
        } else {
            runtime.busy = true;
            self.start_service(now, instance, req);
        }
    }

    /// Serve `req` on `instance`, whose runtime the caller marked busy.
    fn start_service(&mut self, now: SimTime, instance: InstanceId, req: usize) {
        // This can run mid-handler for a *queued* request (finish_io
        // releasing the runtime), so scope the trace attribution to
        // this request and restore the caller's afterwards.
        let saved_req = self.rec.current_request();
        if self.rec.is_enabled() {
            self.rec
                .set_current_request(Some(self.pending[req].record.id));
        }
        // Everything since UploadDone was runtime preparation (boot wait
        // + queueing for the runtime) — charged by leaving RuntimePrep.
        self.transition(now, req, Phase::CodeLoad);

        // The control-plane hop into the runtime: dispatcher → the
        // instance's `offloadcontroller` binder service. Zero sim-time;
        // the kernel's binder bookkeeping is not part of any report.
        self.host
            .offload_rpc(instance, self.pending[req].task.control_bytes)
            .expect("offload RPC against a live runtime");

        // Load the mobile code into the runtime if it is not resident.
        let app_id = self.pending[req].record.kind.app_id();
        let code = self.pending[req].code_to_load;
        let load_time = self
            .host
            .load_app(instance, app_id, code)
            .expect("instance exists while serving");
        if code > 0 {
            self.io_read.record_amount(now, code as f64);
            self.warehouse.note_loaded(&aid_of(app_id), instance);
        }
        let gen = self.slot_gen[req];
        self.queue
            .schedule(now + load_time, Event::CodeLoaded { req, gen });
        self.rec.set_current_request(saved_req);
    }

    fn on_code_loaded(&mut self, now: SimTime, req: usize) {
        // Code loading counts toward runtime preparation — charged by
        // leaving CodeLoad.
        self.transition(now, req, Phase::Compute);

        // Start the computation on the shared server CPU.
        let eff = self.cfg.platform.runtime_class.spec().cpu_efficiency;
        let ghz = self.host.host_spec().clock_ghz;
        let mut work_core_seconds = self.compute_prices.price(&self.pending[req].task, ghz, eff);
        // Straggler fault: computations started inside a slowdown
        // window carry the inflation factor (no window — fault-free or
        // otherwise — touches the work term at all).
        if let Some(factor) = self.straggler_factor_at(now) {
            work_core_seconds *= factor;
        }
        self.rec.set_ambient_parent(self.req_spans[req].phase);
        let job = self.cpu.submit(now, work_core_seconds, req);
        self.rec.set_ambient_parent(SpanId::NONE);
        self.pending[req].cpu_job = Some(job);
        self.cpu
            .reschedule(now, &mut self.queue, |epoch| Event::CpuCheck { epoch });
    }

    fn on_cpu_check(&mut self, now: SimTime, epoch: u64) {
        let mut finished = std::mem::take(&mut self.finished);
        // (A stale schedule finishes nothing; a newer one exists.)
        if self.cpu.poll_with(now, epoch, |_, req| finished.push(req)) {
            for req in finished.drain(..) {
                if self.rec.is_enabled() {
                    self.rec
                        .set_current_request(Some(self.pending[req].record.id));
                }
                self.pending[req].cpu_job = None;
                self.transition(now, req, Phase::OffloadIo);
                self.begin_io(now, req);
            }
            self.cpu
                .reschedule(now, &mut self.queue, |epoch| Event::CpuCheck { epoch });
        }
        self.finished = finished;
    }

    fn on_device_cpu_check(&mut self, now: SimTime, device: u32, epoch: u64) {
        let Some(exec) = self.device_cpus.get_mut(&device) else {
            return;
        };
        let mut finished = std::mem::take(&mut self.finished);
        if exec.poll_with(now, epoch, |_, req| finished.push(req)) {
            for req in finished.drain(..) {
                if self.rec.is_enabled() {
                    self.rec
                        .set_current_request(Some(self.pending[req].record.id));
                }
                self.on_request_complete(now, req);
            }
            if let Some(exec) = self.device_cpus.get_mut(&device) {
                exec.reschedule(now, &mut self.queue, |epoch| Event::DeviceCpuCheck {
                    device,
                    epoch,
                });
            }
        }
        self.finished = finished;
    }

    fn begin_io(&mut self, now: SimTime, req: usize) {
        let bytes = self.pending[req].task.io_bytes;
        if bytes == 0 {
            self.finish_io(now, req);
            return;
        }
        let instance = self.pending[req].instance.expect("serving");
        let spec = self.cfg.platform.runtime_class.spec();
        if spec.uses_shared_io_layer {
            // Sharing Offloading I/O: the in-memory layer sidesteps the
            // disk entirely (and burns after reading).
            let t = SimDuration::from_secs_f64(bytes as f64 / TMPFS_BANDWIDTH);
            self.io_write.record_amount_over(
                now,
                now + t.max(SimDuration::from_micros(1)),
                bytes as f64,
            );
            if self.rec.is_enabled() {
                self.rec.instant(
                    Subsystem::Containerfs,
                    "tmpfs.io",
                    attrs![
                        ("instance", AttrValue::U64(instance.0 as u64)),
                        ("bytes", AttrValue::U64(bytes)),
                    ],
                );
            }
            let gen = self.slot_gen[req];
            self.queue
                .schedule(now + t, Event::TmpfsIoDone { req, gen });
        } else {
            // Random-access traffic on the shared HDD, inflated by the
            // virtualization I/O path.
            let work = bytes as f64 / spec.io_efficiency;
            self.rec.set_ambient_parent(self.req_spans[req].phase);
            let job = self.disk.submit(now, work, req);
            self.rec.set_ambient_parent(SpanId::NONE);
            self.pending[req].disk_job = Some(job);
            self.disk
                .reschedule(now, &mut self.queue, |epoch| Event::DiskCheck { epoch });
        }
    }

    fn on_disk_check(&mut self, now: SimTime, epoch: u64) {
        let mut finished = std::mem::take(&mut self.finished);
        if self.disk.poll_with(now, epoch, |_, req| finished.push(req)) {
            for req in finished.drain(..) {
                if self.rec.is_enabled() {
                    self.rec
                        .set_current_request(Some(self.pending[req].record.id));
                }
                self.pending[req].disk_job = None;
                let from = self.pending[req].phase_started();
                let bytes = self.pending[req].task.io_bytes as f64;
                if now > from {
                    self.io_write.record_amount_over(from, now, bytes);
                } else {
                    // Sub-microsecond I/O would make the interval empty
                    // and silently drop the bytes; bin them at the
                    // instant instead. (Unreachable with the current
                    // +2 µs check slack — kept so faster disks can't
                    // lose the tail.)
                    self.io_write.record_amount(now, bytes);
                }
                self.finish_io(now, req);
            }
            self.disk
                .reschedule(now, &mut self.queue, |epoch| Event::DiskCheck { epoch });
        }
        self.finished = finished;
    }

    /// `instance` finished (or lost) the request it was serving: it goes
    /// idle, or straight on to the next queued request. A crashed
    /// instance is already gone and has nothing to release.
    fn release_runtime(&mut self, now: SimTime, instance: InstanceId) {
        self.db.finish_job(instance, now);
        let Some(runtime) = self.db.runtime_mut(instance) else {
            return;
        };
        let next = runtime.queue.pop_front();
        runtime.busy = next.is_some();
        if let Some(next) = next {
            self.start_service(now, instance, next);
        }
    }

    fn finish_io(&mut self, now: SimTime, req: usize) {
        // Offloading I/O is part of computation execution in the phase
        // accounting (§VI-C discusses it under pure computation) —
        // charged by leaving OffloadIo.
        self.transition(now, req, Phase::DataTransferDown);

        // Release the runtime for the next queued request.
        let instance = self.pending[req].instance.expect("serving");
        self.release_runtime(now, instance);

        // Download the result, walked across the fault plan's link
        // windows exactly like the upload.
        let device = self.pending[req].record.device;
        let seq = self.pending[req].record.seq_on_device;
        let mut rng = self.req_rng(device, seq).fork(0xD0);
        let bytes = self.pending[req].task.result_bytes;
        let dl = self
            .link
            .transfer_time(bytes, Direction::Download, &mut rng);
        self.pending[req].record.download_bytes = bytes;
        self.schedule_download(now, req, bytes, dl);
    }

    /// Price the download of `bytes` (nominal duration `dl`) starting
    /// at `now` against the link windows, charge accordingly, and
    /// schedule the completion or interruption event.
    fn schedule_download(&mut self, now: SimTime, req: usize, bytes: u64, dl: SimDuration) {
        match transfer_outcome(&self.link_windows, now, dl) {
            TransferOutcome::Completes { at } => {
                let actual = at.saturating_since(now);
                let lc = &mut self.pending[req];
                lc.record.download_time += actual;
                lc.record.phases.data_transfer += actual;
                lc.upfront_connect = SimDuration::ZERO;
                lc.upfront_transfer = actual;
                let gen = self.slot_gen[req];
                self.queue.schedule(at, Event::RequestComplete { req, gen });
                self.trace_transfer(now, at, req, "download", bytes, false);
            }
            TransferOutcome::Interrupted { at, fraction_done } => {
                let remaining = (((1.0 - fraction_done) * bytes as f64).ceil() as u64).max(1);
                let lc = &mut self.pending[req];
                lc.upfront_connect = SimDuration::ZERO;
                lc.upfront_transfer = SimDuration::ZERO;
                lc.resume = Some(ResumeStage::Download { bytes: remaining });
                let gen = self.slot_gen[req];
                self.queue.schedule(at, Event::TransferFault { req, gen });
                self.trace_transfer(now, at, req, "download", bytes, true);
            }
        }
    }

    fn on_request_complete(&mut self, now: SimTime, req: usize) {
        self.complete_request(now, req, Phase::Done);
    }

    /// Record `req` in terminal phase `terminal` (Done for
    /// served or fallback requests, Abandoned for exhausted ones) and
    /// recycle its slot. Abandoned requests still count as completed —
    /// the run-termination accounting must drain every request.
    fn complete_request(&mut self, now: SimTime, req: usize, terminal: Phase) {
        if self.rec.is_enabled() {
            self.rec
                .set_current_request(Some(self.pending[req].record.id));
        }
        self.transition(now, req, terminal);
        self.ctr_completions.inc();
        self.finished_at = self.finished_at.max(now);
        self.fault_stats.time_lost += self.pending[req].record.phases.fault_recovery;
        self.records.push(self.pending[req].record.clone());

        // Closed loop: think, then issue the next request.
        if let ArrivalModel::ClosedLoop { think_mean_s, .. } = self.cfg.arrivals {
            let device = self.pending[req].record.device;
            let seq = self.pending[req].record.seq_on_device + 1;
            if seq < self.cfg.requests_per_device {
                let mut rng = self.req_rng(device, seq).fork(0x7417);
                let think = SimDuration::from_secs_f64(rng.exponential(think_mean_s));
                self.queue
                    .schedule(now + think, Event::Arrival { device, seq });
            }
        }

        // The slot holds no live state now; recycle it. The generation
        // bump drops any event still in flight for this slot.
        self.slot_gen[req] += 1;
        self.free_slots.push(req);
        self.ctr_recycled.inc();
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Rattrap,
                "slot.recycle",
                attrs![
                    ("slot", AttrValue::U64(req as u64)),
                    ("generation", AttrValue::U64(self.slot_gen[req])),
                ],
            );
        }
    }

    fn on_boot_done(&mut self, now: SimTime, instance: InstanceId) {
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Rattrap,
                "boot.done",
                attrs![("instance", AttrValue::U64(instance.0 as u64))],
            );
        }
        self.db.mark_ready(instance);
        // (A crash may have taken the instance before its boot finished.)
        let runtime = self.db.runtime_mut(instance);
        let waiters = runtime.map(|r| std::mem::take(&mut r.boot_waiters));
        for req in waiters.unwrap_or_default() {
            self.try_start_service(now, instance, req);
        }
    }

    // ---- fault plane -----------------------------------------------------

    /// The server slowdown factor at `t`, if any window covers it.
    fn straggler_factor_at(&self, t: SimTime) -> Option<f64> {
        let factor = self
            .straggler_windows
            .iter()
            .filter(|w| w.start <= t && t < w.end)
            .map(|w| w.factor)
            .fold(1.0_f64, f64::max);
        (factor > 1.0).then_some(factor)
    }

    /// An instance-crash event fires: pick the victim by the plan's
    /// selector over the live instances (deterministic: sorted ids) and
    /// kill it. A crash with no live instance fizzles.
    fn on_instance_fault(&mut self, now: SimTime, idx: usize) {
        let selector = self.crash_events[idx].1;
        let mut ids: Vec<InstanceId> = self.db.iter().map(|r| r.id).collect();
        if ids.is_empty() {
            return;
        }
        ids.sort();
        let victim = ids[(selector % ids.len() as u64) as usize];
        self.crash_instance(now, victim);
    }

    /// Kill `victim` now: every request waiting on its boot, queued for
    /// it, or being served by it loses the attempt. Requests still
    /// *uploading* toward it are spared — their upload lands and the
    /// existing instance-gone path re-provisions transparently, exactly
    /// as for an idle-reclaimed instance.
    fn crash_instance(&mut self, now: SimTime, victim: InstanceId) {
        if self.host.teardown(victim).is_err() {
            return;
        }
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Simkit,
                "fault.instance_crash",
                attrs![("instance", AttrValue::U64(victim.0 as u64))],
            );
        }
        let mut hit: Vec<usize> = Vec::new();
        if let Some(record) = self.db.remove(victim) {
            hit.extend(record.runtime.boot_waiters);
            hit.extend(record.runtime.queue);
        }
        for i in 0..self.pending.len() {
            let lc = &self.pending[i];
            if lc.instance == Some(victim)
                && matches!(
                    lc.phase(),
                    Phase::CodeLoad | Phase::Compute | Phase::OffloadIo
                )
                && !hit.contains(&i)
            {
                hit.push(i);
            }
        }
        hit.sort_unstable();
        self.warehouse.invalidate_container(victim);
        for req in hit {
            let task = &self.pending[req].task;
            let resume = ResumeStage::Upload {
                bytes: task.payload_bytes + task.control_bytes,
            };
            self.fault_request(now, req, resume);
        }
    }

    /// A link fault interrupted the in-flight transfer of `req`; the
    /// resume stage (with the partial-progress remainder) was stored
    /// when the interruption was priced.
    fn on_transfer_fault(&mut self, now: SimTime, req: usize) {
        let resume = self.pending[req].resume.take().unwrap_or_else(|| {
            let task = &self.pending[req].task;
            ResumeStage::Upload {
                bytes: task.payload_bytes + task.control_bytes,
            }
        });
        self.fault_request(now, req, resume);
    }

    /// `req` dwelt past the policy timeout in its current phase. The
    /// timeout knows nothing about partial progress, so the retry
    /// restarts the pipeline stage from scratch.
    fn on_phase_timeout(&mut self, now: SimTime, req: usize) {
        let task = &self.pending[req].task;
        let resume = match self.pending[req].phase() {
            Phase::DataTransferDown => ResumeStage::Download {
                bytes: task.result_bytes,
            },
            _ => ResumeStage::Upload {
                bytes: task.payload_bytes + task.control_bytes,
            },
        };
        self.fault_request(now, req, resume);
    }

    /// The attempt of `req` just died (crash, link fault, or timeout).
    /// Undo the attempt's up-front charges and resource holds, park the
    /// request in [`Phase::Retrying`], and spend the policy budget:
    /// backoff + retry while attempts remain, then graceful degradation
    /// to on-device execution, then abandonment.
    fn fault_request(&mut self, now: SimTime, req: usize, resume: ResumeStage) {
        let phase = self.pending[req].phase();
        self.fault_stats.record_strike(phase);
        if self.rec.is_enabled() {
            self.rec
                .set_current_request(Some(self.pending[req].record.id));
            self.rec.instant(
                Subsystem::Simkit,
                "fault.strike",
                attrs![("phase", AttrValue::Str(phase.name()))],
            );
        }
        // Invalidate every event the dead attempt scheduled.
        self.slot_gen[req] += 1;
        let instance = self.pending[req].instance;
        match phase {
            Phase::DataTransferUp => {
                // Reverse the up-front transfer charges (zero when the
                // attempt was priced as interrupted) — the dwell lands
                // in fault_recovery instead via the transition below.
                let connect = self.pending[req].upfront_connect;
                let transfer = self.pending[req].upfront_transfer;
                let record = &mut self.pending[req].record;
                record.phases.network_connection -= connect;
                record.phases.data_transfer -= transfer;
                record.upload_time -= transfer;
                if let Some(id) = instance {
                    self.db.withdraw_job(id);
                }
            }
            Phase::RuntimePrep => {
                if let Some(id) = instance {
                    if let Some(runtime) = self.db.runtime_mut(id) {
                        runtime.boot_waiters.retain(|&r| r != req);
                        runtime.queue.retain(|&r| r != req);
                    }
                    self.db.withdraw_job(id);
                }
            }
            Phase::CodeLoad | Phase::Compute | Phase::OffloadIo => {
                if let Some(job) = self.pending[req].cpu_job.take() {
                    self.cpu.cancel(now, job);
                    self.cpu
                        .reschedule(now, &mut self.queue, |epoch| Event::CpuCheck { epoch });
                }
                if let Some(job) = self.pending[req].disk_job.take() {
                    self.disk.cancel(now, job);
                    self.disk
                        .reschedule(now, &mut self.queue, |epoch| Event::DiskCheck { epoch });
                }
                // Release the runtime like finish_io does (a no-op when
                // the fault *is* the runtime crashing).
                if let Some(id) = instance {
                    self.release_runtime(now, id);
                }
            }
            Phase::DataTransferDown => {
                let transfer = self.pending[req].upfront_transfer;
                let record = &mut self.pending[req].record;
                record.phases.data_transfer -= transfer;
                record.download_time -= transfer;
            }
            _ => {}
        }
        self.pending[req].upfront_connect = SimDuration::ZERO;
        self.pending[req].upfront_transfer = SimDuration::ZERO;
        self.pending[req].instance = None;

        self.transition(now, req, Phase::Retrying);
        self.pending[req].resume = Some(resume);
        self.pending[req].attempts += 1;
        let attempts = self.pending[req].attempts;
        let policy = self.cfg.resilience.clone();
        if attempts <= policy.max_retries {
            let device = self.pending[req].record.device;
            let seq = self.pending[req].record.seq_on_device;
            let mut rng = self
                .req_rng(device, seq)
                .fork(0xB0FF ^ ((attempts as u64) << 16));
            let backoff = policy.backoff_delay(attempts, &mut rng);
            // Retrying into a known outage is pointless — wait it out.
            let retry_at = link_available_at(&self.link_windows, now + backoff);
            let gen = self.slot_gen[req];
            self.queue.schedule(retry_at, Event::Retry { req, gen });
        } else if policy.fallback_local {
            self.fault_stats.fallbacks += 1;
            self.pending[req].record.fell_back_local = true;
            self.transition(now, req, Phase::FallbackLocal);
            // Graceful degradation: finish on the device's own CPU,
            // fair-shared with whatever else the device is running.
            let device = self.pending[req].record.device;
            let work = self.pending[req].record.local_execution.as_secs_f64();
            let rec = self.rec.clone();
            let phase_span = self.req_spans[req].phase;
            let exec = self.device_cpus.entry(device).or_insert_with(|| {
                let mut e = FairShareExecutor::new(1.0, 1.0);
                e.instrument(rec.clone(), "device_cpu");
                e
            });
            rec.set_ambient_parent(phase_span);
            exec.submit(now, work, req);
            rec.set_ambient_parent(SpanId::NONE);
            exec.reschedule(now, &mut self.queue, |epoch| Event::DeviceCpuCheck {
                device,
                epoch,
            });
        } else {
            self.fault_stats.abandoned += 1;
            self.pending[req].record.abandoned = true;
            self.complete_request(now, req, Phase::Abandoned);
        }
    }

    /// Backoff elapsed: launch the next attempt from the stored resume
    /// stage. A download remainder re-prices only the missing bytes; an
    /// upload restart re-places the request (the old instance may be
    /// dead) and re-sends code if the new runtime needs it.
    fn on_retry(&mut self, now: SimTime, req: usize) {
        debug_assert_eq!(self.pending[req].phase(), Phase::Retrying);
        let resume = self.pending[req].resume.take().unwrap_or_else(|| {
            let task = &self.pending[req].task;
            ResumeStage::Upload {
                bytes: task.payload_bytes + task.control_bytes,
            }
        });
        self.fault_stats.retries += 1;
        self.pending[req].record.retries += 1;
        let device = self.pending[req].record.device;
        let seq = self.pending[req].record.seq_on_device;
        let attempt = self.pending[req].attempts as u64;
        if self.rec.is_enabled() {
            self.rec.instant(
                Subsystem::Rattrap,
                "retry",
                attrs![("attempt", AttrValue::U64(attempt))],
            );
        }
        match resume {
            ResumeStage::Download { bytes } => {
                self.transition(now, req, Phase::DataTransferDown);
                let mut rng = self.req_rng(device, seq).fork(0xD0F0 ^ (attempt << 8));
                let dl = self
                    .link
                    .transfer_time(bytes, Direction::Download, &mut rng);
                self.schedule_download(now, req, bytes, dl);
            }
            ResumeStage::Upload { bytes } => {
                let kind = self.pending[req].record.kind;
                let profile = kind.profile();
                // Re-place: the original instance may be gone.
                let aid = aid_of(kind.app_id());
                let instance = self.place(now, device, aid);
                let (code_transferred, resident) = self.code_state(instance, kind, aid);
                let code_bytes_now = if code_transferred {
                    profile.app_code_bytes
                } else {
                    0
                };
                {
                    let lc = &mut self.pending[req];
                    lc.instance = Some(instance);
                    lc.code_to_load = if resident { 0 } else { profile.app_code_bytes };
                    lc.record.code_bytes_sent += code_bytes_now;
                    lc.record.code_transferred |= code_transferred;
                    lc.record.upload_bytes += code_bytes_now;
                }
                let mut rng = self.req_rng(device, seq).fork(0xFA00 ^ (attempt << 8));
                let connect = self.link.connect_time(&mut rng);
                let wire_bytes = bytes + code_bytes_now;
                let up = self
                    .link
                    .transfer_time(wire_bytes, Direction::Upload, &mut rng);
                self.transition(now, req, Phase::DataTransferUp);
                let start = now + connect;
                match transfer_outcome(&self.link_windows, start, up) {
                    TransferOutcome::Completes { at } => {
                        let actual = at.saturating_since(start);
                        let lc = &mut self.pending[req];
                        lc.record.phases.network_connection += connect;
                        lc.record.phases.data_transfer += actual;
                        lc.record.upload_time += actual;
                        lc.upfront_connect = connect;
                        lc.upfront_transfer = actual;
                        let gen = self.slot_gen[req];
                        self.queue.schedule(at, Event::UploadDone { req, gen });
                        self.trace_transfer(now, at, req, "upload", wire_bytes, false);
                    }
                    TransferOutcome::Interrupted { at, fraction_done } => {
                        let remaining =
                            (((1.0 - fraction_done) * wire_bytes as f64).ceil() as u64).max(1);
                        let lc = &mut self.pending[req];
                        lc.upfront_connect = SimDuration::ZERO;
                        lc.upfront_transfer = SimDuration::ZERO;
                        lc.resume = Some(ResumeStage::Upload { bytes: remaining });
                        let gen = self.slot_gen[req];
                        self.queue.schedule(at, Event::TransferFault { req, gen });
                        self.trace_transfer(now, at, req, "upload", wire_bytes, true);
                    }
                }
            }
        }
    }

    /// Start the spares the warm pool is short of.
    fn fill_warm_pool(&mut self, now: SimTime) {
        let spares = self.db.ready_idle() + self.db.booting();
        for _ in 0..self.pool.to_start(spares, self.db.len()) {
            self.provision(now, 0);
        }
    }

    fn on_idle_scan(&mut self, now: SimTime) {
        // Warm-pool refills, then idle reclamation: the oldest expired
        // instances above the warm floor.
        if !self.cfg.platform.per_device_instances && !self.all_work_finished() {
            self.fill_warm_pool(now);
        }
        let pool = self.pool;
        let expired = self.db.idle().filter(|&(_, t)| pool.expired(t, now));
        let expired: Vec<InstanceId> = expired.map(|(id, _)| id).collect();
        let n = pool.to_reclaim(expired.len(), self.db.ready_idle(), false);
        for id in expired.into_iter().take(n) {
            // Don't reclaim instances with queued work, boot waiters, or
            // placed-but-uploading requests.
            let in_use = self.db.get(id).is_some_and(|r| {
                let runtime = &r.runtime;
                r.active_jobs > 0 || !runtime.queue.is_empty() || !runtime.boot_waiters.is_empty()
            });
            if !in_use && self.host.teardown(id).is_ok() {
                self.db.remove(id);
                self.warehouse.invalidate_container(id);
            }
        }
        if !self.all_work_finished() {
            self.queue
                .schedule_in(SimDuration::from_secs(10), Event::IdleScan);
        }
    }
}

impl Placement {
    fn existing_or_first(self, db: &ContainerDb) -> Option<InstanceId> {
        match self {
            Placement::Existing(id) => Some(id),
            Placement::Provision => db.iter().next().map(|r| r.id),
        }
    }
}

/// Convenience: run one scenario.
pub fn run_scenario(cfg: ScenarioConfig) -> SimulationReport {
    Simulation::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformKind;

    fn run(platform: PlatformKind, workload: WorkloadKind, seed: u64) -> SimulationReport {
        run_scenario(ScenarioConfig::paper_default(
            platform.config(),
            workload,
            seed,
        ))
    }

    #[test]
    fn vm_first_request_is_offloading_failure() {
        let rep = run(PlatformKind::VmBaseline, WorkloadKind::Ocr, 1);
        let firsts: Vec<_> = rep
            .requests
            .iter()
            .filter(|r| r.seq_on_device == 0)
            .collect();
        assert_eq!(firsts.len(), 5);
        for r in firsts {
            assert!(
                r.is_offloading_failure(),
                "cold VM start must fail: speedup {}",
                r.speedup()
            );
            assert!(r.phases.runtime_preparation > SimDuration::from_secs(20));
        }
        // Warm requests succeed.
        let warm: Vec<_> = rep
            .requests
            .iter()
            .filter(|r| r.seq_on_device >= 2)
            .collect();
        let warm_ok = warm.iter().filter(|r| !r.is_offloading_failure()).count();
        assert!(warm_ok as f64 / warm.len() as f64 > 0.9);
    }

    #[test]
    fn rattrap_first_request_survives() {
        let rep = run(PlatformKind::Rattrap, WorkloadKind::Ocr, 1);
        let failures = rep.failure_rate();
        assert!(failures < 0.05, "Rattrap failure rate {failures}");
    }

    #[test]
    fn all_requests_complete_on_every_platform() {
        for kind in PlatformKind::ALL {
            let rep = run(kind, WorkloadKind::ChessGame, 7);
            assert_eq!(rep.requests.len(), 100, "{}", kind.label());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(PlatformKind::Rattrap, WorkloadKind::VirusScan, 42);
        let b = run(PlatformKind::Rattrap, WorkloadKind::VirusScan, 42);
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x, y);
        }
        assert_eq!(a.total_upload_bytes(), b.total_upload_bytes());
    }

    #[test]
    fn report_holds_every_request_in_completion_order() {
        let rep = run(PlatformKind::Rattrap, WorkloadKind::Ocr, 42);
        assert_eq!(rep.requests.len(), 100);
        assert!(rep
            .requests
            .windows(2)
            .all(|w| (w[0].completed_at, w[0].id) < (w[1].completed_at, w[1].id)));
        let last = rep.requests.last().expect("requests served");
        assert_eq!(rep.finished_at, last.completed_at);
    }

    #[test]
    fn phase_observers_see_full_lifecycles() {
        let cfg =
            ScenarioConfig::paper_default(PlatformKind::Rattrap.config(), WorkloadKind::Ocr, 5);
        let mut sim = Simulation::new(cfg);
        // The simulation owns its observers: a counting probe reports
        // through shared cells so the test can assert on the stream.
        use std::cell::RefCell;
        use std::rc::Rc;
        #[derive(Default)]
        struct Probe {
            dones: Rc<RefCell<u32>>,
            edges: Rc<RefCell<u32>>,
        }
        impl PhaseObserver for Probe {
            fn on_transition(
                &mut self,
                _record: &RequestRecord,
                _from: Phase,
                to: Phase,
                _dwell: SimDuration,
                _now: SimTime,
            ) {
                *self.edges.borrow_mut() += 1;
                if to == Phase::Done {
                    *self.dones.borrow_mut() += 1;
                }
            }
        }
        let dones = Rc::new(RefCell::new(0));
        let edges = Rc::new(RefCell::new(0));
        sim.add_observer(Box::new(Probe {
            dones: dones.clone(),
            edges: edges.clone(),
        }));
        let rep = sim.run();
        assert_eq!(*dones.borrow() as usize, rep.requests.len());
        // Every offloaded request takes 7 edges (Dispatch→…→Done).
        assert_eq!(*edges.borrow() as usize, rep.requests.len() * 7);
    }

    #[test]
    fn code_cache_slashes_upload_volume() {
        let rattrap = run(PlatformKind::Rattrap, WorkloadKind::ChessGame, 3);
        let vm = run(PlatformKind::VmBaseline, WorkloadKind::ChessGame, 3);
        let code_rattrap: u64 = rattrap.requests.iter().map(|r| r.code_bytes_sent).sum();
        let code_vm: u64 = vm.requests.iter().map(|r| r.code_bytes_sent).sum();
        // Rattrap transfers the chess engine once; the VM platform once
        // per VM (5 devices).
        let app = WorkloadKind::ChessGame.profile().app_code_bytes;
        assert_eq!(code_rattrap, app);
        assert_eq!(code_vm, 5 * app);
        assert!(rattrap.total_upload_bytes() < vm.total_upload_bytes());
        assert_eq!(rattrap.warehouse_stats.misses, 1);
        assert_eq!(rattrap.warehouse_stats.hits, 99);
    }

    #[test]
    fn runtime_preparation_speedup_matches_paper_band() {
        let mut prep = BTreeMap::new();
        for kind in PlatformKind::ALL {
            let rep = run(kind, WorkloadKind::Ocr, 11);
            prep.insert(
                kind,
                rep.mean_of(|r| r.phases.runtime_preparation.as_secs_f64()),
            );
        }
        let vm = prep[&PlatformKind::VmBaseline];
        let wo = prep[&PlatformKind::RattrapWithout];
        let rt = prep[&PlatformKind::Rattrap];
        let s_wo = vm / wo;
        let s_rt = vm / rt;
        // §VI-C: 4.14–4.71× (W/O) and 16.29–16.98× (Rattrap); we allow
        // generous slack for queueing noise.
        assert!(s_wo > 3.0 && s_wo < 6.5, "W/O prep speedup {s_wo}");
        assert!(s_rt > 10.0 && s_rt < 25.0, "Rattrap prep speedup {s_rt}");
    }

    #[test]
    fn compute_speedup_ordering_holds() {
        // VirusScan gains the most from the shared I/O layer (§VI-C).
        let vm = run(PlatformKind::VmBaseline, WorkloadKind::VirusScan, 5);
        let wo = run(PlatformKind::RattrapWithout, WorkloadKind::VirusScan, 5);
        let rt = run(PlatformKind::Rattrap, WorkloadKind::VirusScan, 5);
        let exec =
            |r: &SimulationReport| r.mean_of(|q| q.phases.computation_execution.as_secs_f64());
        let (e_vm, e_wo, e_rt) = (exec(&vm), exec(&wo), exec(&rt));
        assert!(e_vm > e_wo, "container beats VM: {e_vm} vs {e_wo}");
        assert!(
            e_wo > e_rt,
            "shared I/O beats plain container: {e_wo} vs {e_rt}"
        );
        let speedup = e_vm / e_rt;
        assert!(
            speedup > 1.15 && speedup < 1.9,
            "VirusScan exec speedup {speedup}"
        );
    }

    #[test]
    fn cpu_timeline_shows_boot_then_bursts() {
        let rep = run(PlatformKind::VmBaseline, WorkloadKind::Linpack, 9);
        // Early bins (while VMs boot) show elevated load.
        let early: f64 = rep.cpu_timeline[..25].iter().sum::<f64>() / 25.0;
        assert!(early > 0.2, "boot-phase load {early}");
        assert!(rep.cpu_timeline.iter().all(|&l| (0.0..=1.0).contains(&l)));
        // Boot streams the image: reads appear early.
        let early_reads: f64 = rep.io_read_mb_s[..30].iter().sum();
        assert!(early_reads > 10.0, "boot reads {early_reads} MB");
    }

    #[test]
    fn per_device_vms_versus_shared_pool() {
        let vm = run(PlatformKind::VmBaseline, WorkloadKind::Linpack, 13);
        assert_eq!(vm.instances_provisioned, 5, "one VM per device");
        let rt = run(PlatformKind::Rattrap, WorkloadKind::Linpack, 13);
        assert!(rt.instances_provisioned <= 8, "pool bounded");
        assert!(rt.instances_provisioned >= 1);
    }

    #[test]
    fn access_controller_sees_traffic_only_when_enabled() {
        let rt = run(PlatformKind::Rattrap, WorkloadKind::Ocr, 15);
        assert!(rt.access_checks >= 300, "3 checks per request");
        let vm = run(PlatformKind::VmBaseline, WorkloadKind::Ocr, 15);
        assert_eq!(vm.access_checks, 0);
    }

    #[test]
    fn adaptive_offloading_keeps_losing_tasks_local() {
        // On the paper's 3G link, VirusScan's ~900 KB uploads lose to
        // local execution; the adaptive client must keep them on the
        // device and thereby beat the always-offload configuration.
        let mut base = ScenarioConfig::paper_default(
            PlatformKind::Rattrap.config(),
            WorkloadKind::VirusScan,
            31,
        );
        base.scenario = netsim::NetworkScenario::ThreeG;
        let always = run_scenario(base.clone());
        let mut adaptive_cfg = base;
        adaptive_cfg.adaptive_offloading = true;
        let adaptive = run_scenario(adaptive_cfg);
        assert_eq!(adaptive.requests.len(), 100, "local tasks still complete");
        let local_count = adaptive
            .requests
            .iter()
            .filter(|r| r.executed_locally)
            .count();
        assert!(
            local_count > 80,
            "most 3G VirusScan tasks stay local: {local_count}"
        );
        let mean = |rep: &SimulationReport| rep.mean_of(|r| r.response_time().as_secs_f64());
        assert!(
            mean(&adaptive) < mean(&always),
            "adaptive {} vs always-offload {}",
            mean(&adaptive),
            mean(&always)
        );
        // On LAN the adaptive client offloads everything — no regression.
        let mut lan = ScenarioConfig::paper_default(
            PlatformKind::Rattrap.config(),
            WorkloadKind::VirusScan,
            31,
        );
        lan.adaptive_offloading = true;
        let lan_rep = run_scenario(lan);
        assert_eq!(
            lan_rep
                .requests
                .iter()
                .filter(|r| r.executed_locally)
                .count(),
            0
        );
    }

    #[test]
    fn sampler_tails_survive_horizon_slack() {
        // Regression for trailing partial-second drops: enlarging the
        // sampling horizon must not change any shared bin — every byte
        // and every level interval inside the run is recorded by the
        // event that produces it — and bins after the last event stay
        // empty rather than absorbing phantom traffic.
        let tight = run(PlatformKind::VmBaseline, WorkloadKind::Ocr, 33);
        let mut cfg =
            ScenarioConfig::paper_default(PlatformKind::VmBaseline.config(), WorkloadKind::Ocr, 33);
        cfg.sample_horizon = SimDuration::from_secs(400);
        let wide = run_scenario(cfg);
        assert_eq!(tight.finished_at, wide.finished_at);
        let shared = tight.cpu_timeline.len().min(wide.cpu_timeline.len());
        assert_eq!(tight.cpu_timeline[..shared], wide.cpu_timeline[..shared]);
        assert_eq!(tight.io_read_mb_s[..shared], wide.io_read_mb_s[..shared]);
        assert_eq!(tight.io_write_mb_s[..shared], wide.io_write_mb_s[..shared]);
        // The run ends well before 400 s; later bins carry nothing.
        let last_event_bin = wide.finished_at.as_secs_f64().ceil() as usize + 11;
        assert!(wide.io_write_mb_s[last_event_bin..]
            .iter()
            .all(|&b| b == 0.0));
        assert!(wide.cpu_timeline[last_event_bin..]
            .iter()
            .all(|&b| b == 0.0));
        // Every payload upload landed in the write channel: totals
        // dominate the sum of request payloads (payload + offload I/O).
        let written: f64 = wide.io_write_mb_s.iter().sum::<f64>() * 1e6;
        let uploaded: f64 = wide
            .requests
            .iter()
            .map(|r| (r.upload_bytes - r.code_bytes_sent) as f64)
            .sum();
        assert!(
            written > 0.9 * uploaded,
            "written {written} vs uploaded {uploaded}"
        );
    }

    #[test]
    fn disk_footprint_rattrap_far_below_vm() {
        let rt = run(PlatformKind::Rattrap, WorkloadKind::Ocr, 21);
        let vm = run(PlatformKind::VmBaseline, WorkloadKind::Ocr, 21);
        // "at least 79% disk savings": 5 VMs ≈ 5.5 GiB vs shared layer +
        // a few MiB per container.
        assert!(
            (rt.peak_disk_bytes as f64) < 0.21 * vm.peak_disk_bytes as f64,
            "rattrap {} vs vm {}",
            rt.peak_disk_bytes,
            vm.peak_disk_bytes
        );
    }
}
