//! A thin offload API server over the real kernel executor.
//!
//! The wire protocol is one JSON object per line over TCP — the
//! smallest protocol that exercises the paper's full loop (submit →
//! route/admit → execute → result back):
//!
//! ```json
//! → {"kind": "OCR", "size": "M", "seed": 7}
//! ← {"ok": true, "kind": "OCR", "size": "M", "host": 3,
//!    "backend": "real", "checksum": "988d5275376ae587",
//!    "queue_micros": 120, "exec_micros": 41873, "detail": "..."}
//! ```
//!
//! Checksums travel as hex *strings*: the JSON reader holds numbers as
//! `f64`, which cannot carry a full 64-bit checksum. For the same
//! reason a request's seed must be an integer below 2^53; any other
//! seed is refused rather than rounded to a neighbour.
//!
//! Routing/admission is behind [`OffloadHandler`]; the `fleet` crate
//! provides the control-plane-backed implementation (consistent-hash
//! routing + admission bounds) over [`crate::RealBackend`] pools.

use crate::workset::{kind_from_label, SizeClass};
use obsv::json::{self, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use workloads::WorkloadKind;

/// Seeds travel as JSON numbers, read back as `f64`: every integer
/// below 2^53 survives exactly, nothing at or above it is guaranteed to.
const SEED_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Longest request line the server reads, newline included. Requests
/// are about 50 bytes; a longer line is answered with one error line
/// and its connection closed, so no client can grow the server's
/// memory without bound.
const MAX_LINE: u64 = 64 * 1024;

/// One offload request as submitted by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadRequest {
    /// Workload to execute.
    pub kind: WorkloadKind,
    /// Kernel input size.
    pub size: SizeClass,
    /// Deterministic kernel input seed.
    pub seed: u64,
}

impl OffloadRequest {
    /// Encode as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\": \"{}\", \"size\": \"{}\", \"seed\": {}}}",
            self.kind.label(),
            self.size.label(),
            self.seed
        )
    }

    /// Parse one protocol line.
    pub fn from_json(line: &str) -> Result<OffloadRequest, String> {
        let v = json::parse(line)?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .and_then(kind_from_label)
            .ok_or("request: bad or missing \"kind\"")?;
        let size = v
            .get("size")
            .and_then(Value::as_str)
            .and_then(SizeClass::from_label)
            .ok_or("request: bad or missing \"size\"")?;
        let seed = v
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or("request: bad or missing \"seed\"")?;
        if !(0.0..SEED_LIMIT).contains(&seed) || seed.fract() != 0.0 {
            return Err(format!(
                "request: \"seed\" must be an integer in [0, 2^53), got {seed}"
            ));
        }
        Ok(OffloadRequest {
            kind,
            size,
            seed: seed as u64,
        })
    }
}

/// Outcome of one served offload, as returned to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadResponse {
    /// Whether execution succeeded.
    pub ok: bool,
    /// Error description when `ok` is false.
    pub error: String,
    /// Deterministic kernel output checksum (the client's proof the
    /// right work ran).
    pub checksum: u64,
    /// Host index the request was routed to (0 for direct serving).
    pub host: usize,
    /// Backend label that executed the request.
    pub backend: String,
    /// Time spent queued/routed before execution, microseconds.
    pub queue_micros: u64,
    /// Kernel execution wall time, microseconds.
    pub exec_micros: u64,
    /// Human-readable result summary.
    pub detail: String,
}

impl OffloadResponse {
    /// An error response.
    pub fn error(msg: impl Into<String>) -> OffloadResponse {
        OffloadResponse {
            ok: false,
            error: msg.into(),
            checksum: 0,
            host: 0,
            backend: String::new(),
            queue_micros: 0,
            exec_micros: 0,
            detail: String::new(),
        }
    }

    /// Encode as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ok\": {}, \"error\": \"{}\", \"checksum\": \"{:016x}\", \"host\": {}, \
             \"backend\": \"{}\", \"queue_micros\": {}, \"exec_micros\": {}, \"detail\": \"{}\"}}",
            self.ok,
            json::escape(&self.error),
            self.checksum,
            self.host,
            self.backend,
            self.queue_micros,
            self.exec_micros,
            json::escape(&self.detail)
        )
    }

    /// Parse one protocol line.
    pub fn from_json(line: &str) -> Result<OffloadResponse, String> {
        let v = json::parse(line)?;
        let b = |key: &str| {
            v.get(key).and_then(|x| match x {
                Value::Bool(b) => Some(*b),
                _ => None,
            })
        };
        let s = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .unwrap_or_default()
        };
        let n = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let checksum = u64::from_str_radix(&s("checksum"), 16)
            .map_err(|e| format!("response: bad checksum: {e}"))?;
        Ok(OffloadResponse {
            ok: b("ok").ok_or("response: missing \"ok\"")?,
            error: s("error"),
            checksum,
            host: n("host") as usize,
            backend: s("backend"),
            queue_micros: n("queue_micros"),
            exec_micros: n("exec_micros"),
            detail: s("detail"),
        })
    }
}

/// Routes, admits, and executes one offload request. The server is
/// generic over this so the fleet control plane can sit behind it
/// without `exec` depending on `fleet`.
pub trait OffloadHandler: Send + Sync + 'static {
    /// Serve one request to completion.
    fn handle(&self, req: &OffloadRequest) -> OffloadResponse;
}

/// A running offload API server.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag between connections;
        // poke it awake with a throwaway connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start serving `handler` on `addr` (e.g. `"127.0.0.1:0"`).
/// Connections are handled one thread each; every line received is one
/// request, answered with one response line. A line over 64 KiB gets an
/// error line and ends its connection. A request whose handler panics
/// gets an error line, and its connection keeps serving.
pub fn serve<H: OffloadHandler>(addr: &str, handler: H) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let handler = Arc::new(handler);
    let stop_flag = Arc::clone(&stop);
    let accept_thread = thread::Builder::new()
        .name("exec-serve-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let handler = Arc::clone(&handler);
                let _ = thread::Builder::new()
                    .name("exec-serve-conn".into())
                    .spawn(move || serve_connection(stream, &*handler));
            }
        })?;
    Ok(Server {
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn serve_connection<H: OffloadHandler>(stream: TcpStream, handler: &H) {
    // Reads and writes go through `&TcpStream`: one socket, no `dup`.
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    loop {
        line.clear();
        let Ok(read) = reader.by_ref().take(MAX_LINE).read_line(&mut line) else {
            break;
        };
        if read == 0 {
            break;
        }
        let too_long = read as u64 == MAX_LINE && !line.ends_with('\n');
        let request = line.trim_end();
        if request.is_empty() && !too_long {
            continue;
        }
        let response = if too_long {
            OffloadResponse::error(format!("request: line longer than {MAX_LINE} bytes"))
        } else {
            match OffloadRequest::from_json(request) {
                // A handler must leave its own state whole when it
                // unwinds (`FleetHandler` gives back its slot on drop).
                Ok(req) => catch_unwind(AssertUnwindSafe(|| handler.handle(&req)))
                    .unwrap_or_else(|_| OffloadResponse::error("handler: the request panicked")),
                Err(e) => OffloadResponse::error(e),
            }
        };
        if writeln!(writer, "{}", response.to_json()).is_err() || too_long {
            break;
        }
    }
}

/// Client side: submit one request to a running server and wait for
/// the response.
pub fn submit(addr: impl ToSocketAddrs, req: &OffloadRequest) -> Result<OffloadResponse, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    writeln!(&stream, "{}", req.to_json()).map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("recv: {e}"))?;
    if line.is_empty() {
        return Err("recv: connection closed".into());
    }
    OffloadResponse::from_json(line.trim_end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::RealBackend;
    use crate::workset::execute_kernel;

    /// Every request executes on one local pool as host 0.
    struct PoolHandler(RealBackend);

    impl OffloadHandler for PoolHandler {
        fn handle(&self, req: &OffloadRequest) -> OffloadResponse {
            let (out, wall) = self.0.execute(req.kind, req.size, req.seed);
            OffloadResponse {
                ok: true,
                checksum: out.checksum,
                backend: "real".into(),
                exec_micros: wall,
                detail: out.detail,
                ..OffloadResponse::error("")
            }
        }
    }

    /// [`PoolHandler`], except that seed 13 panics.
    struct PanicsOn13(PoolHandler);

    impl OffloadHandler for PanicsOn13 {
        fn handle(&self, req: &OffloadRequest) -> OffloadResponse {
            assert_ne!(req.seed, 13, "planted handler panic");
            self.0.handle(req)
        }
    }

    fn pool_server(workers: usize) -> Server {
        serve("127.0.0.1:0", PoolHandler(RealBackend::new(workers))).unwrap()
    }

    #[test]
    fn request_and_response_round_trip() {
        let req = OffloadRequest {
            kind: WorkloadKind::VirusScan,
            size: SizeClass::Large,
            seed: 77,
        };
        assert_eq!(OffloadRequest::from_json(&req.to_json()).unwrap(), req);

        let resp = OffloadResponse {
            ok: true,
            error: String::new(),
            checksum: 0xdead_beef_0102_0304,
            host: 5,
            backend: "real".into(),
            queue_micros: 12,
            exec_micros: 3456,
            detail: "said \"hi\"".into(),
        };
        assert_eq!(OffloadResponse::from_json(&resp.to_json()).unwrap(), resp);
    }

    #[test]
    fn direct_serving_end_to_end() {
        let mut server = pool_server(2);
        let req = OffloadRequest {
            kind: WorkloadKind::Linpack,
            size: SizeClass::Small,
            seed: 11,
        };
        let resp = submit(server.addr(), &req).unwrap();
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(
            resp.checksum,
            execute_kernel(req.kind, req.size, req.seed).checksum
        );
        assert!(resp.exec_micros > 0);
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_an_error_line() {
        let mut server = pool_server(1);
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = &stream;
        let mut reader = BufReader::new(&stream);
        let mut exchange = |line: &str| {
            writeln!(writer, "{line}").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            OffloadResponse::from_json(reply.trim_end()).unwrap()
        };
        let bad_kind = exchange("{\"kind\": \"Doom\"}");
        assert!(!bad_kind.ok);
        assert!(bad_kind.error.contains("kind"));
        // A seed the reader cannot hold exactly is refused, not rounded.
        for seed in ["-5", "7.9", "9007199254740992", "1e300"] {
            let resp = exchange(&format!(
                "{{\"kind\": \"OCR\", \"size\": \"S\", \"seed\": {seed}}}"
            ));
            assert!(!resp.ok, "seed {seed} was served");
            assert!(resp.error.contains("seed"), "{}", resp.error);
        }
        // Nesting deep enough to overflow a recursive reader is an
        // error line too, and the connection keeps serving.
        assert!(!exchange(&"[".repeat(10_000)).ok);
        let ok = exchange("{\"kind\": \"Linpack\", \"size\": \"S\", \"seed\": 3}");
        assert!(ok.ok, "{}", ok.error);
        server.shutdown();
    }

    #[test]
    fn a_panicking_handler_gets_an_error_line_and_the_connection_serves_on() {
        let mut server =
            serve("127.0.0.1:0", PanicsOn13(PoolHandler(RealBackend::new(1)))).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = &stream;
        let mut reader = BufReader::new(&stream);
        let mut exchange = |seed: u64| {
            let req = OffloadRequest {
                kind: WorkloadKind::Linpack,
                size: SizeClass::Small,
                seed,
            };
            writeln!(writer, "{}", req.to_json()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            OffloadResponse::from_json(reply.trim_end()).unwrap()
        };
        let panicked = exchange(13);
        assert!(!panicked.ok);
        assert!(panicked.error.contains("panicked"), "{}", panicked.error);
        let next = exchange(14);
        assert!(next.ok, "{}", next.error);
        assert_eq!(
            next.checksum,
            execute_kernel(WorkloadKind::Linpack, SizeClass::Small, 14).checksum
        );
        server.shutdown();
    }

    #[test]
    fn an_overlong_line_ends_only_its_own_connection() {
        let mut server = pool_server(1);
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = &stream;
        // The server may close before taking the whole line: a failed
        // write is one of the allowed outcomes.
        let _ = writer.write_all(&vec![b'x'; 1 << 20]);
        let mut reply = String::new();
        if BufReader::new(&stream).read_line(&mut reply).is_ok() && !reply.is_empty() {
            let resp = OffloadResponse::from_json(reply.trim_end()).unwrap();
            assert!(!resp.ok);
            assert!(resp.error.contains("longer than"), "{}", resp.error);
        }
        let req = OffloadRequest {
            kind: WorkloadKind::Linpack,
            size: SizeClass::Small,
            seed: 5,
        };
        let resp = submit(server.addr(), &req).unwrap();
        assert!(resp.ok, "{}", resp.error);
        server.shutdown();
    }
}
