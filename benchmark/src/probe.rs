//! Per-layer probes: benchmark-side spans around direct calls into
//! each layer's public API, giving host time per operation at a
//! workload's shape. From outside, a simulator run is one call; these
//! unit costs times the run's exact work counts are how the traced run
//! attributes that call's wall time to layers (an estimate — see
//! README.md).

use crate::span::{now_ns, Trace};
use containerfs::{
    android_x86_44_image, customize, instance_private_files, LayerStore, UnionMount,
};
use fleet::{AdmissionCtl, Router};
use hostkernel::{HostSpec, Kernel};
use netsim::{Direction, Link, NetworkScenario, SharedLink};
use rattrap::warehouse::aid_of;
use simkit::{
    run_sharded, EventQueue, FairShareExecutor, Lp, Outbox, ShardMode, SimDuration, SimRng, SimTime,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use traces::TraceConfig;
use virt::{CloudHost, RuntimeClass};
use workloads::WorkloadKind;

/// Call `op` until `budget` is spent (at least once). `op` returns the
/// time it wants counted and how many operations that covered, so it
/// can keep its own set-up and tear-down out of the figure. Records
/// one span over the whole probe, named after the metric it feeds;
/// returns nanoseconds per operation.
pub fn per_op_ns(
    trace: &mut Trace,
    name: &'static str,
    budget: Duration,
    mut op: impl FnMut() -> (Duration, u64),
) -> f64 {
    let start = now_ns();
    let began = Instant::now();
    let (mut spent, mut ops) = (Duration::ZERO, 0u64);
    loop {
        let (t, n) = op();
        spent += t;
        ops += n;
        if began.elapsed() >= budget {
            break;
        }
    }
    trace.push(name, 0, 0, start, now_ns());
    spent.as_nanos() as f64 / ops.max(1) as f64
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// An LP that ticks once per window for a fixed number of windows
/// (LP 0) or never has anything to do (every other LP): what is left
/// of `run_sharded` is the per-window walk over all LPs.
struct IdleLp {
    next: Option<SimTime>,
    windows_left: u64,
}

impl Lp for IdleLp {
    type Msg = ();

    fn next_time(&mut self) -> Option<SimTime> {
        self.next
    }

    fn run_window(&mut self, bound: SimTime, _out: &mut Outbox<()>) {
        if self.next.is_some() {
            self.windows_left -= 1;
            self.next = (self.windows_left > 0).then_some(bound);
        }
    }

    fn accept(&mut self, _at: SimTime, _src: usize, _msg: ()) {}
}

/// `schedule` + `pop` on a queue that keeps `resident` events pending.
fn queue_cycle(trace: &mut Trace, name: &'static str, budget: Duration, resident: usize) -> f64 {
    let mut rng = SimRng::new(0x51EE);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..resident {
        q.schedule(
            SimTime::from_micros(rng.uniform_u64(1, 10_000_000)),
            i as u64,
        );
    }
    per_op_ns(trace, name, budget, || {
        const BATCH: u64 = 4096;
        let t = Instant::now();
        for _ in 0..BATCH {
            let (at, e) = q.pop().expect("queue stays resident");
            let delay = SimDuration::from_micros(rng.uniform_u64(1_000, 10_000_000));
            q.schedule(at + delay, black_box(e));
        }
        (t.elapsed(), BATCH)
    })
}

/// The executor protocol both the CPU executor and the shared link
/// speak: start a job, re-plan, collect finished jobs.
trait FairShared {
    fn start(&mut self, now: SimTime, work: u64, tag: u64);
    fn replan(&mut self, now: SimTime, q: &mut EventQueue<u64>);
    fn finished(&mut self, now: SimTime, epoch: u64) -> usize;
}

impl FairShared for FairShareExecutor<u64> {
    fn start(&mut self, now: SimTime, work: u64, tag: u64) {
        self.submit(now, work as f64, tag);
    }
    fn replan(&mut self, now: SimTime, q: &mut EventQueue<u64>) {
        self.reschedule(now, q, |epoch| epoch);
    }
    fn finished(&mut self, now: SimTime, epoch: u64) -> usize {
        self.poll(now, epoch).map_or(0, |done| done.len())
    }
}

impl FairShared for SharedLink<u64> {
    fn start(&mut self, now: SimTime, work: u64, tag: u64) {
        self.begin_transfer(now, work, tag);
    }
    fn replan(&mut self, now: SimTime, q: &mut EventQueue<u64>) {
        self.reschedule(now, q, |epoch| epoch);
    }
    fn finished(&mut self, now: SimTime, epoch: u64) -> usize {
        self.poll(now, epoch).map_or(0, |done| done.len())
    }
}

/// Host time per job through submit → reschedule → poll with
/// `concurrent` jobs in flight: every completion is replaced at once.
fn fair_share_job(
    trace: &mut Trace,
    name: &'static str,
    budget: Duration,
    concurrent: usize,
    mut dev: impl FairShared,
) -> f64 {
    let mut rng = SimRng::new(0xFA1E);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut work = move || rng.uniform_u64(50_000, 5_000_000);
    for tag in 0..concurrent {
        dev.start(SimTime::ZERO, work(), tag as u64);
    }
    dev.replan(SimTime::ZERO, &mut q);
    per_op_ns(trace, name, budget, || {
        const BATCH: u64 = 512;
        let t = Instant::now();
        let mut jobs = 0;
        while jobs < BATCH {
            let (now, epoch) = q.pop().expect("a check is always pending");
            let done = dev.finished(now, epoch);
            for _ in 0..done {
                dev.start(now, work(), jobs);
            }
            dev.replan(now, &mut q);
            jobs += done as u64;
        }
        (t.elapsed(), jobs)
    })
}

fn provision_us(
    trace: &mut Trace,
    name: &'static str,
    budget: Duration,
    class: RuntimeClass,
) -> f64 {
    per_op_ns(trace, name, budget, || {
        // A host's kernel tables grow with every instance it has ever
        // run, and provisioning slows with them; the engines provision
        // a few hundred per host at most, so the probe does too.
        const PER_HOST: u64 = 64;
        let mut host = CloudHost::new(HostSpec::paper_server());
        let mut spent = Duration::ZERO;
        for _ in 0..PER_HOST {
            let mut id = None;
            spent += timed(|| id = Some(host.provision(class).expect("an empty host has room").0));
            host.teardown(id.expect("provisioned")).expect("teardown");
        }
        (spent, PER_HOST)
    }) / 1e3
}

/// Every simulator-layer probe, at a fleet of `hosts` hosts. Appends
/// `(metric, value)` pairs to `out`.
pub fn simulator_layers(
    trace: &mut Trace,
    budget: Duration,
    hosts: usize,
    traffic: &TraceConfig,
    out: &mut Vec<(&'static str, f64)>,
) {
    // fleet: routing and admission at this host count.
    let mut router = Router::new(64);
    router.rebuild(&(0..hosts).collect());
    let aids: Vec<_> = WorkloadKind::ALL
        .iter()
        .map(|k| aid_of(k.app_id()))
        .collect();
    let mut calls = 0;
    let us = per_op_ns(trace, "fleet.router.route_us.miss", budget, || {
        // No warm host and every host refusing: the shed path, which
        // is also what every hash or spill route walks first.
        calls += 1;
        let aid = &aids[calls % aids.len()];
        let t = timed(|| {
            black_box(router.route(aid, &[], |_| false));
        });
        (t, 1)
    }) / 1e3;
    out.push(("fleet.router.route_us.miss", us));
    let us = per_op_ns(trace, "fleet.router.route_us.warm", budget, || {
        const BATCH: u64 = 256;
        let t = timed(|| {
            for i in 0..BATCH as usize {
                let aid = &aids[i % aids.len()];
                black_box(router.route(aid, black_box(&[hosts / 2]), |_| true));
            }
        });
        (t, BATCH)
    }) / 1e3;
    out.push(("fleet.router.route_us.warm", us));
    let mut admission = AdmissionCtl::new(hosts, 16);
    let ns = per_op_ns(trace, "fleet.admission.admit_ns", budget, || {
        let rounds = 4096 / hosts + 1;
        let t = timed(|| {
            for _ in 0..rounds {
                for h in 0..hosts {
                    black_box(admission.admit(black_box(h)));
                    admission.release(h);
                }
            }
        });
        (t, (rounds * hosts) as u64)
    });
    out.push(("fleet.admission.admit_ns", ns));

    // simkit: event queue, fair-share executor, window barrier.
    for (name, resident) in [
        ("simkit.queue.cycle_ns.r512", 512),
        ("simkit.queue.cycle_ns.r64k", 65_536),
    ] {
        out.push((name, queue_cycle(trace, name, budget, resident)));
    }
    for (name, concurrent) in [
        ("simkit.executor.job_ns.c8", 8),
        ("simkit.executor.job_ns.c512", 512),
    ] {
        // 12 cores of 2.66 GHz, one core per job at most.
        let exec = FairShareExecutor::new(12.0 * 2660.0, 2660.0);
        out.push((name, fair_share_job(trace, name, budget, concurrent, exec)));
    }
    let ns = per_op_ns(trace, "simkit.shard.lp_window_ns", budget, || {
        const WINDOWS: u64 = 2000;
        let t = timed(|| {
            run_sharded(
                hosts + 1,
                SimDuration::from_millis(1),
                ShardMode::Serial,
                |i| IdleLp {
                    next: (i == 0).then_some(SimTime::ZERO),
                    windows_left: WINDOWS,
                },
                |_, _| (),
            );
        });
        (t, WINDOWS * (hosts as u64 + 1))
    });
    out.push(("simkit.shard.lp_window_ns", ns));

    // netsim: contended transfers and independent pricing.
    for (name, concurrent) in [
        ("netsim.link.transfer_ns.c8", 8),
        ("netsim.link.transfer_ns.c512", 512),
    ] {
        let link: SharedLink<u64> =
            SharedLink::for_scenario(NetworkScenario::LanWifi, Direction::Upload);
        out.push((name, fair_share_job(trace, name, budget, concurrent, link)));
    }
    let link = Link::new(NetworkScenario::LanWifi);
    let mut rng = SimRng::new(0x11E7);
    let ns = per_op_ns(trace, "netsim.link.price_ns", budget, || {
        const BATCH: u64 = 1024;
        let t = timed(|| {
            for _ in 0..BATCH {
                black_box(link.connect_time(&mut rng));
                black_box(link.transfer_time(black_box(200_000), Direction::Upload, &mut rng));
            }
        });
        (t, BATCH)
    });
    out.push(("netsim.link.price_ns", ns));

    // virt, with the hostkernel and containerfs work it drives.
    for (name, class) in [
        ("virt.provision_us.cac_opt", RuntimeClass::CacOptimized),
        ("virt.provision_us.cac", RuntimeClass::CacUnoptimized),
        ("virt.provision_us.vm", RuntimeClass::AndroidVm),
    ] {
        out.push((name, provision_us(trace, name, budget, class)));
    }
    let mut host = CloudHost::new(HostSpec::paper_server());
    let app = WorkloadKind::Ocr.app_id();
    let us = per_op_ns(trace, "virt.load_app_us", budget, || {
        let (id, _) = host.provision(RuntimeClass::CacOptimized).expect("room");
        let t = timed(|| {
            black_box(host.load_app(id, app, 2_000_000).expect("instance exists"));
        });
        host.teardown(id).expect("teardown");
        (t, 1)
    }) / 1e3;
    out.push(("virt.load_app_us", us));
    let us = per_op_ns(trace, "hostkernel.insmod_us", budget, || {
        let mut kernel = Kernel::new(HostSpec::paper_server());
        let t = timed(|| {
            black_box(kernel.load_android_container_driver());
        });
        (t, 1)
    }) / 1e3;
    out.push(("hostkernel.insmod_us", us));
    let (id, _) = host.provision(RuntimeClass::CacOptimized).expect("room");
    let ns = per_op_ns(trace, "hostkernel.binder_txn_ns", budget, || {
        const BATCH: u64 = 256;
        let t = timed(|| {
            for _ in 0..BATCH {
                host.offload_rpc(id, black_box(4096)).expect("binder up");
            }
        });
        (t, BATCH)
    });
    out.push(("hostkernel.binder_txn_ns", ns));
    let mut layers = LayerStore::new();
    let shared = layers.publish(
        "shared-resource-layer",
        customize(&android_x86_44_image()).0,
    );
    let mut instance = 0;
    let us = per_op_ns(trace, "containerfs.mount_us", budget, || {
        // What provisioning an optimized container mounts: the shared
        // layer below, the instance's private files written on top.
        instance += 1;
        let mut mount = None;
        let t = timed(|| {
            let mut m = UnionMount::new(&mut layers, vec![shared]);
            for (path, entry) in instance_private_files(instance).iter() {
                m.write(&layers, path, entry.clone());
            }
            mount = Some(m);
        });
        mount.expect("mounted").unmount(&mut layers);
        (t, 1)
    }) / 1e3;
    out.push(("containerfs.mount_us", us));

    // traces and workloads: input generation.
    let sample = TraceConfig {
        users: traffic.users.min(2000),
        ..traffic.clone()
    };
    let ns = per_op_ns(trace, "traces.generate_ns_per_request", budget, || {
        let mut requests = 0;
        let t = timed(|| {
            requests = traces::generate(black_box(&sample))
                .iter()
                .map(Vec::len)
                .sum();
        });
        (t, requests as u64)
    });
    out.push(("traces.generate_ns_per_request", ns));
    let mut rng = SimRng::new(0x5A3F);
    let ns = per_op_ns(trace, "workloads.sample_ns", budget, || {
        const BATCH: u64 = 1024;
        let t = timed(|| {
            for i in 0..BATCH as usize {
                let kind = WorkloadKind::ALL[i % WorkloadKind::ALL.len()];
                black_box(kind.profile().sample(&mut rng));
            }
        });
        (t, BATCH)
    });
    out.push(("workloads.sample_ns", ns));
}
