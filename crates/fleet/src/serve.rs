//! The fleet control plane behind the `exec::serve` offload API.
//!
//! [`FleetHandler`] implements [`exec::serve::OffloadHandler`] with the
//! same front-end machinery the simulated fleet runs: requests are
//! keyed by AID, routed over the consistent-hash [`Router`] with
//! warm-cache affinity, admitted under an exact per-host bound, and
//! then executed *for real* on each host's bounded
//! [`exec::RealBackend`] worker pool. The response carries the
//! deterministic kernel output checksum plus the queue/execute timing
//! breakdown — the paper's route/admit/execute/copy-back loop, served
//! over TCP:
//!
//! ```text
//! exec::serve::serve(addr, FleetHandler::new(hosts, workers, cap))
//! ```

use crate::admission::AdmissionCtl;
use crate::engine::kind_ix;
use crate::router::{RouteDecision, Router};
use exec::serve::{OffloadHandler, OffloadRequest, OffloadResponse};
use exec::RealBackend;
use rattrap::warehouse::{aid_of, Aid};
use std::sync::Mutex;
use std::time::Instant;
use workloads::WorkloadKind;

/// What a route reads and an admission writes, behind one lock so the
/// per-host bound holds exactly under concurrent submitters.
#[derive(Debug)]
struct Admission {
    ctl: AdmissionCtl,
    /// Per workload kind (by `kind_ix`), the ascending ids of the hosts
    /// that have served it: the warm list the router's affinity
    /// preference keys on.
    warm: Vec<Vec<usize>>,
}

/// Routing + admission + real execution over a small host fleet.
#[derive(Debug)]
pub struct FleetHandler {
    router: Router,
    /// One bounded worker pool per host.
    backends: Vec<RealBackend>,
    /// By `kind_ix`.
    aids: Vec<Aid>,
    /// The per-host concurrent-request bound and the warm lists: past
    /// the bound the router spills clockwise, and when every host is
    /// full the request is shed.
    admission: Mutex<Admission>,
}

impl FleetHandler {
    /// A fleet of `hosts` hosts, each with `workers` pool threads and
    /// room for `max_in_flight` concurrent requests.
    pub fn new(hosts: usize, workers: usize, max_in_flight: usize) -> FleetHandler {
        assert!(hosts > 0, "at least one host");
        let mut router = Router::new(64);
        router.rebuild(&(0..hosts).collect());
        FleetHandler {
            router,
            backends: (0..hosts).map(|_| RealBackend::new(workers)).collect(),
            aids: WorkloadKind::ALL.map(|k| aid_of(k.app_id())).to_vec(),
            admission: Mutex::new(Admission {
                ctl: AdmissionCtl::new(hosts, max_in_flight),
                warm: vec![Vec::new(); WorkloadKind::ALL.len()],
            }),
        }
    }

    /// Route a request for `kind` (warm-affinity first, then hash home,
    /// then spillover — the simulated front end's preference order),
    /// admit it and mark its host warm, all in one critical section.
    /// `None`, counted as a shed, when every host is full.
    fn admit(&self, kind: WorkloadKind) -> Option<RouteDecision> {
        let mut state = self.admission.lock().expect("admission lock");
        let Admission { ctl, warm } = &mut *state;
        let ix = kind_ix(kind);
        let Some(decision) = self
            .router
            .route(&self.aids[ix], &warm[ix], |h| ctl.has_room(h))
        else {
            ctl.count_shed();
            return None;
        };
        ctl.admit(decision.host);
        if let Err(at) = warm[ix].binary_search(&decision.host) {
            warm[ix].insert(at, decision.host);
        }
        Some(decision)
    }

    /// Give back the admission slot a served request held on `host`.
    fn release(&self, host: usize) {
        let mut state = self.admission.lock().expect("admission lock");
        state.ctl.release(host);
    }
}

impl OffloadHandler for FleetHandler {
    fn handle(&self, req: &OffloadRequest) -> OffloadResponse {
        let queued = Instant::now();
        let Some(decision) = self.admit(req.kind) else {
            return OffloadResponse::error("admission: every host is full");
        };
        // Execute for real on the host's bounded pool, outside the lock.
        let (out, wall) = self.backends[decision.host].execute(req.kind, req.size, req.seed);
        self.release(decision.host);

        let total = queued.elapsed().as_micros() as u64;
        OffloadResponse {
            ok: true,
            error: String::new(),
            checksum: out.checksum,
            host: decision.host,
            backend: "real".into(),
            queue_micros: total.saturating_sub(wall),
            exec_micros: wall,
            detail: format!("{} via {}", out.detail, decision.reason.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouteReason;
    use exec::{execute_kernel, SizeClass};
    use std::sync::Barrier;

    #[test]
    fn routes_and_executes_with_verifiable_checksum() {
        let handler = FleetHandler::new(3, 2, 4);
        let req = OffloadRequest {
            kind: WorkloadKind::Linpack,
            size: SizeClass::Small,
            seed: 99,
        };
        let resp = handler.handle(&req);
        assert!(resp.ok, "{}", resp.error);
        assert!(resp.host < 3);
        assert_eq!(
            resp.checksum,
            execute_kernel(req.kind, req.size, req.seed).checksum
        );
    }

    #[test]
    fn repeat_requests_stick_to_the_warm_host() {
        let handler = FleetHandler::new(4, 1, 8);
        let req = OffloadRequest {
            kind: WorkloadKind::ChessGame,
            size: SizeClass::Small,
            seed: 1,
        };
        let first = handler.handle(&req);
        assert!(first.ok);
        for seed in 2..6 {
            let resp = handler.handle(&OffloadRequest { seed, ..req });
            assert!(resp.ok);
            assert_eq!(resp.host, first.host, "affinity broke: {}", resp.detail);
            assert!(resp.detail.contains("affinity"), "{}", resp.detail);
        }
    }

    #[test]
    fn a_full_host_spills_and_a_full_fleet_sheds() {
        let handler = FleetHandler::new(2, 1, 1);
        let kind = WorkloadKind::Linpack;
        let first = handler.admit(kind).expect("empty fleet admits");
        assert_eq!(first.reason, RouteReason::Hash);
        let second = handler.admit(kind).expect("the other host has room");
        assert_eq!(second.reason, RouteReason::Spill);
        assert_ne!(second.host, first.host);
        assert_eq!(handler.admit(kind), None, "every host is full");
        assert_eq!(handler.admission.lock().unwrap().ctl.shed(), 1);
        handler.release(first.host);
        let again = handler.admit(kind).expect("a released slot admits");
        assert_eq!(again.host, first.host);
        assert_eq!(again.reason, RouteReason::Affinity);
    }

    #[test]
    fn concurrent_admission_never_overshoots_the_bound() {
        let (hosts, cap, threads) = (3, 2, 16);
        let handler = FleetHandler::new(hosts, 1, cap);
        let barrier = Barrier::new(threads);
        let admitted = std::thread::scope(|s| {
            let runs: Vec<_> = (0..threads)
                .map(|i| {
                    let (handler, barrier) = (&handler, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        handler.admit(WorkloadKind::ALL[i % 4]).is_some()
                    })
                })
                .collect();
            let admitted = runs.into_iter().map(|r| r.join().unwrap());
            admitted.filter(|&ok| ok).count()
        });
        assert_eq!(admitted, hosts * cap, "every slot fills, none twice");
        let state = handler.admission.lock().unwrap();
        assert!((0..hosts).all(|h| state.ctl.depth(h) == cap));
        assert_eq!(state.ctl.shed(), (threads - hosts * cap) as u64);
    }
}
