//! The simulator workloads: `fleet_dense`, `fleet_long` (the fleet
//! engine at two opposite shapes) and `paper_replay` (the paper's own
//! single-host engine under a LiveLab trace).
//!
//! A repetition is one user-visible call — `fleet::run_fleet` or twelve
//! `rattrap::run_scenario` — timed from outside. Simulated statistics
//! are deterministic, so they are checked (request conservation, equal
//! digests across repetitions and the traced run, a pinned digest for
//! the default seed), never compared; the metrics are host time.

use crate::span::Trace;
use crate::stats::{quietest, Window};
use crate::{probe, spec, sys, Outcome, RunArgs};
use fleet::{run_fleet, run_fleet_traced, FleetConfig, FleetReport};
use obsv::{AttrValue, Recorder, RecorderConfig, TraceEvent, TraceSnapshot};
use rattrap::{
    run_scenario, ArrivalModel, PlatformKind, ReportHasher, ScenarioConfig, Simulation,
    SimulationReport,
};
use simkit::SimDuration;
use std::collections::HashSet;
use std::time::{Duration, Instant};
use traces::TraceConfig;
use virt::RuntimeClass;
use workloads::WorkloadKind;

/// Times set-up is repeated; `setup_s` is the quietest of them.
const SETUP_REPEATS: usize = 5;
/// Fewest repetitions in a run.
const MIN_REPS: usize = 3;
/// Ring capacity of the traced repetition's recorders: large enough
/// that nothing is dropped, so counts read off the snapshot are exact.
const TRACE_CAPACITY: usize = 1 << 23;
/// Queue events per fleet request, for attribution only: the fleet
/// engine exposes no event counter, so this is the paper engine's
/// measured ratio (`rattrap.events_dispatched` / requests ≈ 7) plus
/// the two control-plane hops of a routed request.
const FLEET_EVENTS_PER_REQUEST: f64 = 9.0;

/// What distinguishes one simulator workload from another.
#[derive(Debug, Clone, Copy)]
pub enum SimShape {
    /// `FleetConfig::paper_default(hosts, seed)` with this many
    /// LiveLab users over this horizon.
    Fleet {
        hosts: usize,
        users: u32,
        horizon_s: u64,
        pinned_digest: u64,
    },
    /// One LiveLab trace (Fig. 11's session parameters) replayed on
    /// all three platforms × all four apps.
    Paper {
        users: u32,
        horizon_s: u64,
        pinned_digest: u64,
    },
}

/// Wide and filling up: `exp_mega`'s shape at half the hosts, cut off
/// as the fleet saturates. A fifth of the requests are hash, spill or
/// shed routes, each of which walks the whole 128 × 64-point ring.
pub const FLEET_DENSE: SimShape = SimShape::Fleet {
    hosts: 128,
    users: 150_000,
    horizon_s: 21,
    pinned_digest: 0x5f80_193e_2e84_99b4,
};
/// Narrow and long: `exp_cluster`'s 8-host cell run for an hour. A
/// hundred thousand requests (a million events), nearly all routed by
/// affinity, so per-event engine costs dominate and anything O(hosts)
/// is invisible.
pub const FLEET_LONG: SimShape = SimShape::Fleet {
    hosts: 8,
    users: 1600,
    horizon_s: 3600,
    pinned_digest: 0x68d9_1474_e94a_cf0d,
};
/// 70 users × 4 h, 12 runs per repetition: the only workload that
/// crosses VM boot, cold starts, insmod and union mounts at volume.
pub const PAPER_REPLAY: SimShape = SimShape::Paper {
    users: 70,
    horizon_s: 4 * 3600,
    pinned_digest: 0x5045_a4e6_42df_19de,
};

/// Generated inputs of one run.
enum Input {
    Fleet(Box<FleetConfig>),
    Paper(Vec<ScenarioConfig>),
}

impl SimShape {
    fn pinned_digest(&self) -> u64 {
        match *self {
            SimShape::Fleet { pinned_digest, .. } | SimShape::Paper { pinned_digest, .. } => {
                pinned_digest
            }
        }
    }

    fn hosts(&self) -> usize {
        match *self {
            SimShape::Fleet { hosts, .. } => hosts,
            SimShape::Paper { .. } => 1,
        }
    }

    /// The arrival process. `--smoke` runs a tenth of the horizon.
    fn traffic(&self, seed: u64, smoke: bool) -> TraceConfig {
        let shrink = if smoke { 10 } else { 1 };
        match *self {
            SimShape::Fleet {
                hosts,
                users,
                horizon_s,
                ..
            } => TraceConfig {
                users,
                duration: SimDuration::from_secs(horizon_s / shrink),
                ..FleetConfig::paper_default(hosts, seed).traffic
            },
            SimShape::Paper {
                users, horizon_s, ..
            } => TraceConfig {
                users,
                duration: SimDuration::from_secs(horizon_s / shrink),
                sessions_per_hour: 2.5,
                mean_session_len: 18.0,
                intra_gap_s: 25.0,
                seed,
            },
        }
    }
}

/// One trace, every platform × every app.
fn replay_scenarios(traffic: &TraceConfig) -> Vec<ScenarioConfig> {
    let trace = traces::generate(traffic);
    PlatformKind::ALL
        .into_iter()
        .flat_map(|platform| WorkloadKind::ALL.map(|kind| (platform, kind)))
        .map(|(platform, kind)| ScenarioConfig {
            arrivals: ArrivalModel::Trace(trace.clone()),
            devices: traffic.users,
            requests_per_device: 0, // ignored in trace mode
            sample_horizon: SimDuration::from_secs(60),
            ..ScenarioConfig::paper_default(platform.config(), kind, traffic.seed)
        })
        .collect()
}

/// Everything before the timed region: inputs, then one discarded
/// warm-up run of the engine under test (a 20k-user, 32-host fleet —
/// `exp_mega`'s smoke cell — or a five-user replay).
fn set_up(shape: &SimShape, seed: u64, smoke: bool) -> Input {
    let traffic = shape.traffic(seed, smoke);
    match *shape {
        SimShape::Fleet { hosts, .. } => {
            let mut warm = FleetConfig::paper_default(32, seed);
            warm.traffic.users = 20_000;
            warm.traffic.duration = SimDuration::from_secs(60);
            std::hint::black_box(run_fleet(&warm));
            Input::Fleet(Box::new(FleetConfig {
                traffic,
                ..FleetConfig::paper_default(hosts, seed)
            }))
        }
        SimShape::Paper { .. } => {
            let warm = TraceConfig {
                users: 5,
                duration: SimDuration::from_secs(6 * 3600),
                ..traffic.clone()
            };
            for cfg in replay_scenarios(&warm) {
                std::hint::black_box(run_scenario(cfg));
            }
            Input::Paper(replay_scenarios(&traffic))
        }
    }
}

/// Exact work counts of one repetition, read off its reports.
#[derive(Debug, Default, Clone, PartialEq)]
struct Work {
    requests: u64,
    /// Requests not brought to a terminal phase, or lost by the
    /// conservation check.
    bad: u64,
    remote: u64,
    shed: u64,
    routes_affinity: u64,
    routes_hash: u64,
    routes_spill: u64,
    migrations: u64,
    rattrap_provisions: u64,
    warehouse_hits: u64,
    warehouse_misses: u64,
    /// Simulated µs per phase: connect, transfer, prepare, compute.
    phase_us: [u64; 4],
}

impl Work {
    fn add_fleet(&mut self, r: &FleetReport) {
        let s = &r.summary;
        self.requests += s.submitted;
        let accounted = s.completed_remote + s.fallback_local + s.abandoned;
        let open = r.records.iter().filter(|x| !x.phase.is_terminal()).count() as u64;
        self.bad += open.max(s.submitted.abs_diff(accounted));
        self.remote += s.completed_remote;
        self.shed += r.control.shed;
        self.routes_affinity += r.control.affinity_routes;
        self.routes_hash += r.control.hash_routes;
        self.routes_spill += r.control.spill_routes;
        self.migrations += r.control.migrations_completed;
    }

    fn add_replay(&mut self, r: &SimulationReport, arrivals: u64) {
        let served = r.requests.len() as u64;
        self.requests += arrivals;
        let abandoned = r.requests.iter().filter(|x| x.abandoned).count() as u64;
        self.bad += arrivals.abs_diff(served) + abandoned;
        self.rattrap_provisions += r.instances_provisioned as u64;
        self.warehouse_hits += r.warehouse_stats.hits;
        self.warehouse_misses += r.warehouse_stats.misses;
        for x in &r.requests {
            let p = &x.phases;
            for (sum, phase) in self.phase_us.iter_mut().zip([
                p.network_connection,
                p.data_transfer,
                p.runtime_preparation,
                p.computation_execution,
            ]) {
                *sum += phase.as_micros();
            }
        }
    }
}

/// Work counts only the trace can give.
#[derive(Debug, Default)]
struct TraceCounts {
    /// Provisions per runtime class, in `RuntimeClass::ALL` order.
    provisions: [u64; 3],
    load_apps: u64,
    union_mounts: u64,
    /// Events the paper engine popped (its own counter).
    events_dispatched: u64,
    dropped: u64,
    /// 1 ms windows in which some request arrived or finished: the
    /// windows the sharded runner cannot have skipped.
    windows: u64,
}

impl TraceCounts {
    fn absorb(&mut self, snap: &TraceSnapshot) {
        self.dropped += snap.dropped;
        self.events_dispatched += snap
            .counters
            .get("rattrap.events_dispatched")
            .copied()
            .unwrap_or(0);
        for e in &snap.events {
            match e {
                TraceEvent::Begin { name, attrs, .. } if *name == "provision" => {
                    let label = attrs.iter().find_map(|(k, v)| match (k, v) {
                        (&"class", AttrValue::Str(s)) => Some(*s),
                        _ => None,
                    });
                    let class = RuntimeClass::ALL
                        .iter()
                        .position(|c| Some(c.label()) == label);
                    self.provisions[class.expect("provision span names its class")] += 1;
                }
                TraceEvent::Begin { name, .. } if *name == "load_app" => self.load_apps += 1,
                TraceEvent::Instant { name, .. } if *name == "union.mount" => {
                    self.union_mounts += 1;
                }
                _ => {}
            }
        }
    }

    fn count_windows(&mut self, r: &FleetReport, window_us: u64) {
        let busy: HashSet<u64> = r
            .records
            .iter()
            .flat_map(|x| [x.arrival.as_micros(), x.finished.as_micros()])
            .map(|us| us / window_us)
            .collect();
        self.windows += busy.len() as u64;
    }
}

/// One timed repetition.
struct Rep {
    wall_s: f64,
    digest: u64,
    /// Host ns `digest()` took per record, outside `wall_s`.
    digest_ns_per_record: f64,
    work: Work,
}

/// Run the workload once. With `traced`, through the traced entry
/// points with a recorder attached, folding the snapshot's counts in.
fn rep(input: &Input, mut traced: Option<&mut TraceCounts>) -> Rep {
    let recorder = || Recorder::enabled(RecorderConfig::with_capacity(TRACE_CAPACITY));
    let mut work = Work::default();
    let (wall, digest, digest_time, records);
    match input {
        Input::Fleet(cfg) => {
            let rec = traced.as_ref().map(|_| recorder());
            let t = Instant::now();
            let report = match &rec {
                Some(rec) => run_fleet_traced(cfg, rec.clone()),
                None => run_fleet(cfg),
            };
            wall = t.elapsed();
            let t = Instant::now();
            digest = report.digest();
            digest_time = t.elapsed();
            records = report.records.len();
            work.add_fleet(&report);
            if let (Some(counts), Some(rec)) = (traced.as_deref_mut(), rec) {
                counts.absorb(&rec.snapshot());
                counts.count_windows(&report, cfg.sync_window.as_micros());
            }
        }
        Input::Paper(cfgs) => {
            let mut fold = ReportHasher::new();
            let (mut run_time, mut hash_time, mut served) = (Duration::ZERO, Duration::ZERO, 0);
            for cfg in cfgs {
                let ArrivalModel::Trace(trace) = &cfg.arrivals else {
                    unreachable!("replay scenarios are trace-driven");
                };
                let arrivals = trace.iter().map(Vec::len).sum::<usize>() as u64;
                let rec = traced.as_ref().map(|_| recorder());
                let t = Instant::now();
                let report = match &rec {
                    Some(rec) => {
                        let mut sim = Simulation::new(cfg.clone());
                        sim.set_recorder(rec.clone());
                        sim.run()
                    }
                    None => run_scenario(cfg.clone()),
                };
                run_time += t.elapsed();
                let t = Instant::now();
                fold.write_u64(report.digest());
                hash_time += t.elapsed();
                served += report.requests.len();
                work.add_replay(&report, arrivals);
                if let (Some(counts), Some(rec)) = (traced.as_deref_mut(), rec) {
                    counts.absorb(&rec.snapshot());
                }
            }
            (wall, digest, digest_time, records) = (run_time, fold.finish(), hash_time, served);
        }
    }
    Rep {
        wall_s: wall.as_secs_f64(),
        digest,
        digest_ns_per_record: digest_time.as_nanos() as f64 / records.max(1) as f64,
        work,
    }
}

/// Fold one repetition's checks into the outcome.
fn check(out: &mut Outcome, r: &Rep, expect_digest: u64, what: &str) {
    out.attempted += r.work.requests;
    out.failed += r.work.bad;
    if r.work.bad > 0 {
        out.problems.push(format!(
            "{what}: {} of {} requests not terminal or not conserved",
            r.work.bad, r.work.requests
        ));
    }
    if r.digest != expect_digest {
        out.failed += r.work.requests - r.work.bad;
        out.problems.push(format!(
            "{what}: digest {:016x}, expected {expect_digest:016x}",
            r.digest
        ));
    }
}

pub fn run(shape: &SimShape, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut input = None;
    for _ in 0..if args.smoke { 1 } else { SETUP_REPEATS } {
        let t = Instant::now();
        input = Some(set_up(shape, args.seed, args.smoke));
        setups.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up ran");
    let setup_s = setups.into_iter().fold(f64::INFINITY, f64::min);
    // The default seed at full size must reproduce the pinned digest:
    // a simulator speed-up has to leave every simulated statistic alone.
    let pinned = (args.seed == spec::DEFAULT_SEED && !args.smoke).then(|| shape.pinned_digest());

    if args.trace {
        return run_traced(shape, args, &input, pinned, out);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let r = rep(&input, None);
        let next_would_end = Instant::now() + Duration::from_secs_f64(r.wall_s);
        reps.push(r);
        let enough = reps.len() >= if args.smoke { 1 } else { MIN_REPS };
        if enough && (args.smoke || next_would_end > deadline) {
            break;
        }
    }
    let expect = pinned.unwrap_or(reps[0].digest);
    for (i, r) in reps.iter().enumerate() {
        check(&mut out, r, expect, &format!("repetition {}", i + 1));
    }
    // Each repetition is one window (and one latency sample: the
    // time a caller waits for the run); the quietest is reported.
    let windows: Vec<Window> = reps
        .iter()
        .map(|r| Window {
            work: r.work.requests as f64,
            seconds: r.wall_s,
            latencies_ms: vec![r.wall_s * 1e3],
        })
        .collect();
    let quiet = quietest(&windows).expect("reps ran");
    out.notes.push(format!(
        "{} repetitions of {} simulated requests, digest {:016x}; figures are those of the \
         fastest repetition, rates per host second",
        reps.len(),
        reps[0].work.requests,
        reps[0].digest,
    ));
    out.metrics = vec![
        ("req_per_s", quiet.rate_per_s),
        ("latency_p50_ms", quiet.p50_ms),
        ("latency_p99_ms", quiet.p99_ms),
        ("peak_rss_mb", sys::peak_rss_mb()),
        ("setup_s", setup_s),
    ];
    out
}

fn run_traced(
    shape: &SimShape,
    args: &RunArgs,
    input: &Input,
    pinned: Option<u64>,
    mut out: Outcome,
) -> Outcome {
    // Plain and traced repetitions alternate for half the run; the
    // fastest of each stands for it, as in the untraced run.
    let mut trace = Trace::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    let (mut plain, mut traced): (Option<Rep>, Option<Rep>) = (None, None);
    let mut counts = TraceCounts::default();
    let mut expect = pinned;
    while plain.is_none() || Instant::now() < deadline {
        let p = trace.scope("rep.untraced", || rep(input, None));
        counts = TraceCounts::default();
        let t = trace.scope("rep.traced", || rep(input, Some(&mut counts)));
        let expect = *expect.get_or_insert(p.digest);
        check(&mut out, &p, expect, "untraced repetition");
        check(&mut out, &t, expect, "traced repetition");
        let faster = |best: Option<Rep>, new: Rep| match best {
            Some(b) if b.wall_s <= new.wall_s => Some(b),
            _ => Some(new),
        };
        (plain, traced) = (faster(plain, p), faster(traced, t));
        if args.smoke {
            break;
        }
    }
    let (plain, traced) = (plain.expect("a pair ran"), traced.expect("a pair ran"));
    if counts.dropped > 0 {
        out.problems.push(format!(
            "recorder dropped {} events: counts are not exact",
            counts.dropped
        ));
    }

    let w = &plain.work;
    out.metrics = vec![
        (
            "traced.req_per_s",
            traced.work.requests as f64 / traced.wall_s,
        ),
        ("traced.latency_p50_ms", traced.wall_s * 1e3),
        ("obsv.trace_overhead_ratio", traced.wall_s / plain.wall_s),
        (
            "virt.provisions",
            counts.provisions.iter().sum::<u64>() as f64,
        ),
        ("virt.load_apps", counts.load_apps as f64),
        ("containerfs.union_mounts", counts.union_mounts as f64),
    ];
    // Work counts belong to the engine that did the work; the other
    // engine's read 0.
    match input {
        Input::Fleet(_) => out.metrics.extend([
            ("fleet.requests", w.requests as f64),
            ("fleet.remote", w.remote as f64),
            ("fleet.shed", w.shed as f64),
            ("fleet.routes_affinity", w.routes_affinity as f64),
            ("fleet.routes_hash", w.routes_hash as f64),
            ("fleet.routes_spill", w.routes_spill as f64),
            ("fleet.migrations", w.migrations as f64),
            (
                "fleet.report.digest_ns_per_record",
                plain.digest_ns_per_record,
            ),
        ]),
        Input::Paper(_) => {
            let total = w.phase_us.iter().sum::<u64>().max(1) as f64;
            let share = |i: usize| w.phase_us[i] as f64 / total;
            out.metrics.extend([
                ("rattrap.requests", w.requests as f64),
                ("rattrap.provisions", w.rattrap_provisions as f64),
                ("rattrap.warehouse_hits", w.warehouse_hits as f64),
                ("rattrap.warehouse_misses", w.warehouse_misses as f64),
                ("rattrap.sim_share_connect", share(0)),
                ("rattrap.sim_share_transfer", share(1)),
                ("rattrap.sim_share_prepare", share(2)),
                ("rattrap.sim_share_compute", share(3)),
                (
                    "rattrap.report.digest_ns_per_record",
                    plain.digest_ns_per_record,
                ),
            ]);
        }
    }

    let traffic = shape.traffic(args.seed, args.smoke);
    probe::simulator_layers(
        &mut trace,
        args.probe_budget(),
        shape.hosts(),
        &traffic,
        &mut out.metrics,
    );

    // Attribution: exact count × probed unit cost ÷ untraced wall.
    let cost = |name: &str| -> f64 {
        let found = out.metrics.iter().find(|(n, _)| *n == name);
        found.expect("probe ran").1
    };
    let unrouted = (w.routes_hash + w.routes_spill + w.shed) as f64;
    let router_s = (unrouted * cost("fleet.router.route_us.miss")
        + w.routes_affinity as f64 * cost("fleet.router.route_us.warm"))
        / 1e6;
    let events = match input {
        Input::Fleet(_) => w.requests as f64 * FLEET_EVENTS_PER_REQUEST,
        Input::Paper(_) => counts.events_dispatched as f64,
    };
    let queue_s = events * cost("simkit.queue.cycle_ns.r512") / 1e9;
    let lps = (shape.hosts() + 1) as f64;
    let shard_s = counts.windows as f64 * lps * cost("simkit.shard.lp_window_ns") / 1e9;
    let provision_us = [
        cost("virt.provision_us.vm"),
        cost("virt.provision_us.cac"),
        cost("virt.provision_us.cac_opt"),
    ];
    let virt_s = (counts
        .provisions
        .iter()
        .zip(provision_us)
        .map(|(&n, us)| n as f64 * us)
        .sum::<f64>()
        + counts.load_apps as f64 * cost("virt.load_app_us"))
        / 1e6;
    let shares = [
        ("attrib.fleet.router_share", router_s / plain.wall_s),
        ("attrib.simkit.queue_share", queue_s / plain.wall_s),
        ("attrib.simkit.shard_share", shard_s / plain.wall_s),
        ("attrib.virt_share", virt_s / plain.wall_s),
    ];
    let explained: f64 = shares.iter().map(|(_, s)| s).sum();
    let dominant = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("shares");
    out.notes.push(format!(
        "untraced {:.3} s, traced {:.3} s; dominant attributed layer: {} ({:.1} %)",
        plain.wall_s,
        traced.wall_s,
        dominant.0,
        dominant.1 * 100.0
    ));
    out.metrics.extend(shares);
    out.metrics
        .push(("attrib.unexplained_share", 1.0 - explained));
    out.trace = Some(trace);
    out
}
