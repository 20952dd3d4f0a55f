//! The `serve_*` workloads: a closed-loop load generator against the
//! real `exec::serve` TCP server, in one process.
//!
//! Deployment under test is fixed: `FleetHandler::new(2, 1, 16)`
//! behind `exec::serve::serve` on loopback. Two client threads (this
//! box has two cores) each keep one request outstanding. Every
//! response's checksum is compared with a table of
//! `exec::execute_kernel` outputs built during set-up.

use crate::span::{now_ns, Trace};
use crate::stats::{mean, quietest, supported_tail, Window};
use crate::{probe, sys, Outcome, RunArgs};
use exec::serve::{serve, OffloadHandler, OffloadRequest, OffloadResponse, Server};
use exec::{execute_kernel, SizeClass};
use fleet::FleetHandler;
use simkit::{derive_seed, Cdf, SimRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use workloads::WorkloadKind;

use SizeClass::{Large as L, Medium as M, Small as S};
use WorkloadKind::{ChessGame as Chess, Linpack, Ocr, VirusScan};

/// Client threads = connections in flight. Never more than the cores
/// of the measuring box, so the generator does not queue behind itself.
pub const CLIENTS: usize = 2;
/// Kernel input seeds per client.
pub const POOL: usize = 4;
/// Each client draws kernel inputs from its own fixed pool (disjoint
/// between clients, so a seed names its client and joins a handler
/// span to the request that caused it). `--seed` decides the order a
/// pool is walked in, never its contents: every run does the same
/// kernels' worth of work in another order. Chess search time varies
/// tenfold with the position a seed leads to (Chess M: 25–400 ms);
/// these eight lead to mid-range ones (45–80 ms), so that no single
/// position is the workload's whole tail.
const POOLS: [[u64; POOL]; CLIENTS] = [
    [0x5EED_0006, 0x5EED_0009, 0x5EED_001F, 0x5EED_0000],
    [0x5EED_000A, 0x5EED_0013, 0x5EED_0021, 0x5EED_0026],
];

const HOSTS: usize = 2;
const WORKERS: usize = 1;
const MAX_IN_FLIGHT: usize = 16;
/// Times set-up is repeated; `setup_s` is the quietest of them.
const SETUP_REPEATS: usize = 3;
/// The timed region is cut into equal windows and each end-to-end
/// figure is read from its best one: as many windows as leave a
/// thousand samples in each (so ten lie beyond a window's p99), but
/// at least 5 and at most 20.
fn window_count(samples: usize) -> usize {
    (samples / 1000).clamp(5, 20)
}
const IO_TIMEOUT: Duration = Duration::from_secs(20);

type Kernel = (WorkloadKind, SizeClass);

/// What distinguishes one serve workload from another.
#[derive(Debug, Clone, Copy)]
pub struct ServeShape {
    /// Kernels requested, in this order, round and round.
    pub cycle: &'static [Kernel],
    /// Requests sent on one connection before reconnecting.
    pub per_conn: usize,
    /// Requests discarded before every timed region.
    pub warmup: usize,
}

/// Sub-millisecond kernels: the serving path is most of each request.
const LIGHT: [Kernel; 4] = [(Linpack, S), (Linpack, M), (VirusScan, S), (Linpack, S)];
/// Compute-bound mix (mean ≈ 17 ms): kernel time and waiting for the
/// one worker of the warm host dominate.
const HEAVY: [Kernel; 8] = [
    (Chess, S),
    (Ocr, L),
    (Chess, S),
    (Ocr, M),
    (Chess, S),
    (Ocr, L),
    (Chess, M),
    (VirusScan, L),
];

pub const SERVE_CONNECT: ServeShape = ServeShape {
    cycle: &LIGHT,
    per_conn: 1,
    warmup: 200,
};
pub const SERVE_SESSION: ServeShape = ServeShape {
    cycle: &LIGHT,
    per_conn: 16,
    warmup: 32,
};
pub const SERVE_HEAVY: ServeShape = ServeShape {
    cycle: &HEAVY,
    per_conn: 1,
    warmup: 32,
};

/// The client whose pool holds `seed`.
fn client_of_seed(seed: u64) -> Option<usize> {
    POOLS.iter().position(|pool| pool.contains(&seed))
}

/// One client's request sequence. A round is every (cycle slot, pool
/// input) pair exactly once, in an order shuffled from `--seed`; rounds
/// repeat with fresh shuffles. So any two seeds ask for the same work
/// per round, and no fixed phase between the two clients' cycles can
/// last a whole run.
#[derive(Debug)]
pub struct Plan {
    cycle: &'static [Kernel],
    client: usize,
    rng: SimRng,
    round: Vec<usize>,
    next: usize,
}

impl Plan {
    pub fn new(shape: &ServeShape, seed: u64, client: usize) -> Plan {
        Plan {
            cycle: shape.cycle,
            client,
            rng: SimRng::new(derive_seed(seed, client as u64)),
            round: (0..shape.cycle.len() * POOL).collect(),
            next: 0,
        }
    }
}

impl Iterator for Plan {
    type Item = OffloadRequest;

    fn next(&mut self) -> Option<OffloadRequest> {
        if self.next.is_multiple_of(self.round.len()) {
            self.rng.shuffle(&mut self.round);
        }
        let pair = self.round[self.next % self.round.len()];
        self.next += 1;
        let (kind, size) = self.cycle[pair / POOL];
        Some(OffloadRequest {
            kind,
            size,
            seed: POOLS[self.client][pair % POOL],
        })
    }
}

type ChecksumTable = BTreeMap<(WorkloadKind, SizeClass, u64), u64>;

/// Expected checksum of every request any client can send.
fn checksum_table(shape: &ServeShape) -> ChecksumTable {
    let mut table = ChecksumTable::new();
    for &(kind, size) in shape.cycle {
        for seed in POOLS.into_iter().flatten() {
            table
                .entry((kind, size, seed))
                .or_insert_with(|| execute_kernel(kind, size, seed).checksum);
        }
    }
    table
}

/// Why the router placed a request where it did, parsed from the
/// response's `detail` ("… via affinity").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Affinity,
    Hash,
    Spill,
    Unknown,
}

fn route_of(detail: &str) -> Route {
    match detail.rsplit(" via ").next() {
        Some("affinity") => Route::Affinity,
        Some("hash") => Route::Hash,
        Some("spill") => Route::Spill,
        _ => Route::Unknown,
    }
}

/// One answered, verified request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    seed: u64,
    /// Client write → full response line.
    start_ns: u64,
    end_ns: u64,
    queue_us: u64,
    exec_us: u64,
    host: usize,
    route: Route,
}

#[derive(Debug, Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// `connect()` call → socket usable.
    connects: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
enum Stop {
    After(usize),
    At(Instant),
}

struct Conn {
    stream: BufReader<TcpStream>,
    used: usize,
}

fn connect(addr: SocketAddr) -> Result<Conn, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // The client must neither cause nor hide a server-side stall: no
    // Nagle on its side, one segment per request line.
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket options: {e}"))?;
    Ok(Conn {
        stream: BufReader::new(stream),
        used: 0,
    })
}

/// Send one line, wait for one line.
fn exchange(conn: &mut Conn, line: &str, reply: &mut String) -> Result<(), String> {
    conn.stream
        .get_mut()
        .write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    reply.clear();
    match conn.stream.read_line(reply) {
        Ok(0) => Err("recv: connection closed".into()),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

fn run_client(
    addr: SocketAddr,
    plan: Plan,
    table: &ChecksumTable,
    per_conn: usize,
    stop: Stop,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn: Option<Conn> = None;
    let mut reply = String::new();
    let mut failures_in_a_row = 0;
    for (j, req) in plan.enumerate() {
        let done = match stop {
            Stop::After(n) => j >= n,
            Stop::At(t) => Instant::now() >= t,
        };
        // A dead server must end the run, not spin it.
        if done || failures_in_a_row >= 50 {
            break;
        }
        log.attempted += 1;
        let mut attempt = || -> Result<Sample, String> {
            if conn.is_none() {
                let t0 = now_ns();
                conn = Some(connect(addr)?);
                log.connects.push((t0, now_ns()));
            }
            let c = conn.as_mut().expect("just connected");
            let line = format!("{}\n", req.to_json());
            let start_ns = now_ns();
            exchange(c, &line, &mut reply)?;
            let end_ns = now_ns();
            c.used += 1;
            let resp = OffloadResponse::from_json(reply.trim_end())?;
            if !resp.ok {
                return Err(format!("refused: {}", resp.error));
            }
            if table.get(&(req.kind, req.size, req.seed)) != Some(&resp.checksum) {
                return Err(format!(
                    "wrong checksum for {req:?}: {:016x}",
                    resp.checksum
                ));
            }
            Ok(Sample {
                seed: req.seed,
                start_ns,
                end_ns,
                queue_us: resp.queue_micros,
                exec_us: resp.exec_micros,
                host: resp.host,
                route: route_of(&resp.detail),
            })
        };
        match attempt() {
            Ok(sample) => {
                log.samples.push(sample);
                failures_in_a_row = 0;
                if conn.as_ref().is_some_and(|c| c.used >= per_conn) {
                    conn = None;
                }
            }
            Err(e) => {
                log.failed += 1;
                failures_in_a_row += 1;
                log.first_error.get_or_insert(e);
                conn = None;
            }
        }
    }
    log
}

/// Run every client to its stop rule; `stop` is built after the
/// clients have met at a barrier so they start together.
fn drive(
    addr: SocketAddr,
    shape: &ServeShape,
    seed: u64,
    table: &ChecksumTable,
    stop: impl Fn() -> Stop + Sync,
) -> Vec<ClientLog> {
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let plan = Plan::new(shape, seed, client);
                    barrier.wait();
                    run_client(addr, plan, table, shape.per_conn, stop())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// One malformed request must be answered `ok: false`, not dropped.
fn malformed_line_is_refused(addr: SocketAddr) -> Result<(), String> {
    let mut conn = connect(addr)?;
    let mut reply = String::new();
    exchange(&mut conn, "{\"kind\": \"Doom\"}\n", &mut reply)?;
    match OffloadResponse::from_json(reply.trim_end()) {
        Ok(resp) if !resp.ok => Ok(()),
        Ok(_) => Err("malformed request was answered ok:true".into()),
        Err(e) => Err(format!("malformed request got an unparseable reply: {e}")),
    }
}

/// A server that is up, checked and warm.
struct Live {
    server: Server,
    table: ChecksumTable,
}

/// Everything between process start and the timed region: checksum
/// table, server start, the malformed-line check, warm-up.
fn set_up<H: OffloadHandler>(shape: &ServeShape, seed: u64, handler: H) -> Result<Live, String> {
    let table = checksum_table(shape);
    let server = serve("127.0.0.1:0", handler).map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr();
    malformed_line_is_refused(addr)?;
    let per_client = shape.warmup.div_ceil(CLIENTS);
    for log in drive(addr, shape, seed, &table, || Stop::After(per_client)) {
        if let Some(e) = log.first_error {
            return Err(format!("warm-up: {e}"));
        }
    }
    Ok(Live { server, table })
}

/// `handler.handle` spans, recorded by wrapping the handler under
/// test. Only the traced run pays for the wrapper.
#[derive(Clone, Default)]
struct HandlerSpans(Arc<Mutex<Vec<(u64, u64, u64)>>>);

struct Traced<H> {
    inner: H,
    spans: HandlerSpans,
}

impl<H: OffloadHandler> OffloadHandler for Traced<H> {
    fn handle(&self, req: &OffloadRequest) -> OffloadResponse {
        let start = now_ns();
        let resp = self.inner.handle(req);
        let end = now_ns();
        self.spans
            .0
            .lock()
            .expect("span log")
            .push((req.seed, start, end));
        resp
    }
}

/// Build the span tree of a traced run: per request a
/// `client.roundtrip` root with its `handler.handle` child, plus one
/// `client.connect` root per connection. Handler spans carry only the
/// request's seed, which names the client; each client is closed-loop,
/// so its k-th handler span belongs to its k-th answered request.
/// Returns the number of requests that could not be joined.
fn join_spans(logs: &[ClientLog], handler: &[(u64, u64, u64)], trace: &mut Trace) -> u64 {
    let mut per_client: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); logs.len()];
    let mut unjoined = 0;
    for &span in handler {
        match client_of_seed(span.0) {
            Some(c) if c < logs.len() => per_client[c].push(span),
            _ => unjoined += 1,
        }
    }
    for (client, (log, spans)) in logs.iter().zip(&per_client).enumerate() {
        for &(start, end) in &log.connects {
            trace.push("client.connect", 0, 0, start, end);
        }
        unjoined += log.samples.len().abs_diff(spans.len()) as u64;
        for (k, (s, &(seed, start, end))) in log.samples.iter().zip(spans).enumerate() {
            let req = (client * 1_000_000_000 + k + 1) as u64;
            let root = trace.push("client.roundtrip", 0, req, s.start_ns, s.end_ns);
            if seed == s.seed && start >= s.start_ns && end <= s.end_ns {
                trace.push("handler.handle", root, req, start, end);
            } else {
                unjoined += 1;
            }
        }
    }
    unjoined
}

fn direct_probes(trace: &mut Trace, budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let req = OffloadRequest {
        kind: Linpack,
        size: S,
        seed: POOLS[0][0],
    };
    let resp = FleetHandler::new(1, 1, 1).handle(&req);
    let (req_line, resp_line) = (req.to_json(), resp.to_json());
    out.push((
        "exec.serve.codec_ns",
        probe::per_op_ns(trace, "exec.serve.codec_ns", budget, || {
            let t = Instant::now();
            let r = OffloadRequest::from_json(std::hint::black_box(&req_line)).expect("request");
            let p = OffloadResponse::from_json(std::hint::black_box(&resp_line)).expect("reply");
            std::hint::black_box((r.to_json(), p.to_json()));
            (t.elapsed(), 1)
        }),
    ));
    out.push((
        "obsv.json.parse_ns",
        probe::per_op_ns(trace, "obsv.json.parse_ns", budget, || {
            let t = Instant::now();
            std::hint::black_box(
                obsv::json::parse(std::hint::black_box(&resp_line)).expect("json"),
            );
            (t.elapsed(), 1)
        }),
    ));
    let backend = exec::RealBackend::new(1);
    out.push((
        "exec.pool.handoff_us",
        probe::per_op_ns(trace, "exec.pool.handoff_us", budget, || {
            let t = Instant::now();
            let (_, wall_us) = backend.execute(req.kind, req.size, req.seed);
            (
                t.elapsed().saturating_sub(Duration::from_micros(wall_us)),
                1,
            )
        }) / 1e3,
    ));
}

pub fn run(shape: &ServeShape, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let spans = HandlerSpans::default();
    let fleet = || FleetHandler::new(HOSTS, WORKERS, MAX_IN_FLIGHT);

    // Set up several times, keep the last server.
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..if args.smoke { 1 } else { SETUP_REPEATS } {
        drop(live.take()); // the previous server stops before the next starts
        let t = Instant::now();
        let made = if args.trace {
            let handler = Traced {
                inner: fleet(),
                spans: spans.clone(),
            };
            set_up(shape, args.seed, handler)
        } else {
            set_up(shape, args.seed, fleet())
        };
        setups.push(t.elapsed().as_secs_f64());
        match made {
            Ok(l) => live = Some(l),
            Err(e) => {
                out.attempted = 1;
                out.failed = 1;
                out.problems.push(format!("set-up: {e}"));
                return out;
            }
        }
    }
    let Live { mut server, table } = live.expect("at least one set-up ran");
    let setup_s = setups.into_iter().fold(f64::INFINITY, f64::min);
    spans.0.lock().expect("span log").clear();

    // The timed region.
    let seconds = Duration::from_secs_f64(args.seconds);
    let logs = drive(server.addr(), shape, args.seed, &table, || {
        Stop::At(Instant::now() + seconds)
    });
    server.shutdown();

    let samples: Vec<&Sample> = logs.iter().flat_map(|l| &l.samples).collect();
    out.attempted = logs.iter().map(|l| l.attempted).sum::<u64>().max(1);
    out.failed = logs.iter().map(|l| l.failed).sum();
    for e in logs.iter().filter_map(|l| l.first_error.as_ref()) {
        out.problems.push(format!("request failed: {e}"));
    }
    if samples.is_empty() {
        out.failed = out.failed.max(1);
        out.problems.push("no request completed".into());
        return out;
    }

    // A request belongs to the window it completed in. A window's
    // rate is timed between its first and last completion (n − 1
    // intervals), not over its nominal length, so it is a measured
    // figure rather than a count over a constant.
    let n_windows = window_count(samples.len());
    let region_start = samples.iter().map(|s| s.start_ns).min().expect("samples");
    let region_s = args.seconds;
    let slice_s = region_s / n_windows as f64;
    let mut windows = vec![Window::default(); n_windows];
    let mut span_s = vec![(f64::INFINITY, 0.0_f64); n_windows];
    for s in &samples {
        let at = (s.end_ns - region_start) as f64 / 1e9;
        // Requests in flight at the deadline complete past it: they
        // are checked and counted, but belong to no window.
        let i = (at / slice_s) as usize;
        let Some(w) = windows.get_mut(i) else {
            continue;
        };
        span_s[i] = (span_s[i].0.min(at), span_s[i].1.max(at));
        w.latencies_ms.push((s.end_ns - s.start_ns) as f64 / 1e6);
        w.work = w.latencies_ms.len() as f64 - 1.0;
        w.seconds = span_s[i].1 - span_s[i].0;
    }
    let quiet = quietest(&windows).expect("samples");
    out.notes.push(format!(
        "closed loop, {CLIENTS} clients, {} requests/connection; {} ok requests in {region_s} s; \
         each figure is the best of {n_windows} windows (at least {} samples each, enough for p{})",
        shape.per_conn,
        samples.len(),
        quiet.samples,
        supported_tail(quiet.samples) * 100.0,
    ));

    if !args.trace {
        out.metrics = vec![
            ("req_per_s", quiet.rate_per_s),
            ("latency_p50_ms", quiet.p50_ms),
            ("latency_p99_ms", quiet.p99_ms),
            ("peak_rss_mb", sys::peak_rss_mb()),
            ("setup_s", setup_s),
        ];
        return out;
    }

    // Per-layer figures of the traced run.
    let mut trace = Trace::default();
    let handler_spans = std::mem::take(&mut *spans.0.lock().expect("span log"));
    let unjoined = join_spans(&logs, &handler_spans, &mut trace);
    if unjoined > 0 {
        out.failed += unjoined;
        out.problems
            .push(format!("{unjoined} requests have no matching handler span"));
    }
    let self_ns = trace.self_times_ns();
    let self_us_of = |name: &str| {
        let spans = trace.spans().iter().zip(&self_ns);
        let named = spans.filter(|(s, _)| s.name == name);
        Cdf::from_samples(named.map(|(_, &ns)| ns as f64 / 1e3).collect())
    };
    let (connect_us, wire_us) = (self_us_of("client.connect"), self_us_of("client.roundtrip"));
    let queue_us: Vec<f64> = samples.iter().map(|s| s.queue_us as f64).collect();
    let exec_us: Vec<f64> = samples.iter().map(|s| s.exec_us as f64).collect();
    let busiest_host = (0..HOSTS)
        .map(|h| samples.iter().filter(|s| s.host == h).count())
        .max()
        .unwrap_or(0);
    let routed = |r: Route| samples.iter().filter(|s| s.route == r).count() as f64;
    let wire_p50 = wire_us.median().unwrap_or(0.0);
    let roundtrip_us = Cdf::from_samples(
        samples
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect(),
    );
    out.notes.push(format!(
        "over the whole run, exec.serve.wire_us.p50 is {:.1} % of the roundtrip p50",
        100.0 * wire_p50 / roundtrip_us.median().expect("samples"),
    ));
    out.metrics = vec![
        (
            "exec.serve.connect_us.p50",
            connect_us.median().unwrap_or(0.0),
        ),
        ("exec.serve.wire_us.p50", wire_p50),
        (
            "exec.serve.wire_us.p99",
            wire_us.quantile(0.99).unwrap_or(0.0),
        ),
        ("fleet.handler.queue_us.mean", mean(&queue_us)),
        (
            "fleet.handler.queue_us.p99",
            Cdf::from_samples(queue_us.clone())
                .quantile(0.99)
                .unwrap_or(0.0),
        ),
        ("exec.kernel.exec_us.mean", mean(&exec_us)),
        (
            "exec.pool.busy_share",
            exec_us.iter().sum::<f64>() / 1e6 / ((HOSTS * WORKERS) as f64 * region_s),
        ),
        (
            "fleet.handler.host_share_max",
            busiest_host as f64 / samples.len() as f64,
        ),
        ("exec.serve.requests", samples.len() as f64),
        ("exec.serve.connections", connect_us.len() as f64),
        ("exec.serve.failed", out.failed as f64),
        ("fleet.handler.routes_affinity", routed(Route::Affinity)),
        ("fleet.handler.routes_hash", routed(Route::Hash)),
        ("fleet.handler.routes_spill", routed(Route::Spill)),
        ("traced.req_per_s", quiet.rate_per_s),
        ("traced.latency_p50_ms", quiet.p50_ms),
    ];
    direct_probes(&mut trace, args.probe_budget(), &mut out.metrics);
    out.trace = Some(trace);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64, client: usize, n: usize) -> Vec<OffloadRequest> {
        Plan::new(&SERVE_HEAVY, seed, client).take(n).collect()
    }

    #[test]
    fn same_seed_same_request_sequence() {
        assert_eq!(sequence(11, 0, 200), sequence(11, 0, 200));
        assert_ne!(sequence(11, 0, 200), sequence(12, 0, 200));
        assert_ne!(sequence(11, 0, 200), sequence(11, 1, 200));
    }

    #[test]
    fn every_seed_does_the_same_work_in_another_order() {
        let n = HEAVY.len() * POOL;
        let key = |r: &OffloadRequest| (r.kind, r.size, r.seed);
        let mut a: Vec<_> = sequence(1, 0, n).iter().map(key).collect();
        let mut b: Vec<_> = sequence(99, 0, n).iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn pools_are_disjoint_and_name_their_client() {
        for client in 0..CLIENTS {
            for r in sequence(5, client, 100) {
                assert_eq!(client_of_seed(r.seed), Some(client));
            }
        }
        assert_eq!(client_of_seed(0), None);
    }

    #[test]
    fn handler_spans_join_their_client_roundtrips() {
        let sample = |seed, start_ns, end_ns| Sample {
            seed,
            start_ns,
            end_ns,
            queue_us: 0,
            exec_us: 0,
            host: 0,
            route: Route::Hash,
        };
        let (a, b) = (POOLS[0][1], POOLS[1][2]);
        let logs = vec![
            ClientLog {
                samples: vec![sample(a, 100, 200), sample(a, 300, 400)],
                connects: vec![(50, 90)],
                ..ClientLog::default()
            },
            ClientLog {
                samples: vec![sample(b, 110, 390)],
                ..ClientLog::default()
            },
        ];
        // Interleaved as the server saw them.
        let handler = vec![(a, 120, 180), (b, 150, 350), (a, 310, 390)];
        let mut trace = Trace::default();
        assert_eq!(join_spans(&logs, &handler, &mut trace), 0);
        let names: Vec<_> = trace.spans().iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|&&n| n == "handler.handle").count(), 3);
        assert_eq!(names.iter().filter(|&&n| n == "client.connect").count(), 1);
        for s in trace.spans().iter().filter(|s| s.name == "handler.handle") {
            let parent = &trace.spans()[s.parent - 1];
            assert_eq!((parent.name, parent.req), ("client.roundtrip", s.req));
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
        }
        // Wire time of the first request: 100 ns roundtrip, 60 inside.
        let selfs = trace.self_times_ns();
        let first = trace
            .spans()
            .iter()
            .position(|s| s.name == "client.roundtrip");
        assert_eq!(selfs[first.unwrap()], 40);

        // A handler span outside its roundtrip, or a missing one, is
        // reported rather than silently mis-attributed.
        let mut trace = Trace::default();
        assert_eq!(
            join_spans(&logs, &[(a, 0, 500), (b, 150, 350)], &mut trace),
            2
        );
    }

    #[test]
    fn route_reason_is_parsed_from_detail() {
        assert_eq!(route_of("linpack: n=64 via affinity"), Route::Affinity);
        assert_eq!(route_of("x via hash"), Route::Hash);
        assert_eq!(route_of("x via spill"), Route::Spill);
        assert_eq!(route_of("x"), Route::Unknown);
    }
}
