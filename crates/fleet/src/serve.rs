//! The fleet control plane behind the `exec::serve` offload API.
//!
//! [`FleetHandler`] implements [`exec::serve::OffloadHandler`] with the
//! same front-end machinery the simulated fleet runs: requests are
//! keyed by AID, routed over the consistent-hash [`Router`] with
//! warm-cache affinity, admitted under an exact per-host bound, and
//! then executed *for real* on each host's bounded
//! [`exec::RealBackend`] worker pool. Placement is idle-first: a
//! request goes to a host with a free worker (warm, then hash home,
//! then clockwise spill) before it queues behind a busy one, because a
//! warm real host costs nothing to use. Only when every worker is busy
//! does it queue on a host with room, in the same order; when no host
//! has room it is shed; [`FleetHandler::placed`] counts the idle and
//! the queued placements. The response carries the
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
use std::sync::{Mutex, MutexGuard, PoisonError};
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
    /// Requests the first routing pass placed on an idle worker.
    placed_idle: u64,
    /// Requests the second pass queued behind a busy worker.
    placed_queued: u64,
}

/// Routing + admission + real execution over a small host fleet.
#[derive(Debug)]
pub struct FleetHandler {
    router: Router,
    /// One bounded worker pool per host.
    backends: Vec<RealBackend>,
    /// Workers per host: a host with fewer admitted requests has one
    /// idle.
    workers: usize,
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
            workers: workers.max(1),
            aids: WorkloadKind::ALL.map(|k| aid_of(k.app_id())).to_vec(),
            admission: Mutex::new(Admission {
                ctl: AdmissionCtl::new(hosts, max_in_flight),
                warm: vec![Vec::new(); WorkloadKind::ALL.len()],
                placed_idle: 0,
                placed_queued: 0,
            }),
        }
    }

    /// The admission state. A panic never happens while it is held,
    /// but a poisoned lock is still read through rather than turned
    /// into a second panic inside [`Slot`]'s drop.
    fn state(&self) -> MutexGuard<'_, Admission> {
        self.admission
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Route a request for `kind`, admit it and mark its host warm,
    /// all in one critical section. Routing runs twice, each time in
    /// the simulated front end's order (warm affinity, hash home,
    /// clockwise spill): first over hosts with an idle worker, then,
    /// only if none is idle, over hosts with room, where the request
    /// queues; each pass counts what it places. `None`, counted as a
    /// shed, when every host is full.
    fn admit(&self, kind: WorkloadKind) -> Option<RouteDecision> {
        let mut state = self.state();
        let Admission {
            ctl,
            warm,
            placed_idle,
            placed_queued,
        } = &mut *state;
        let ix = kind_ix(kind);
        let (aid, warm_hosts) = (&self.aids[ix], &warm[ix]);
        let idle = |h| ctl.depth(h) < self.workers && ctl.has_room(h);
        let decision = if let Some(d) = self.router.route(aid, warm_hosts, idle) {
            *placed_idle += 1;
            d
        } else if let Some(d) = self.router.route(aid, warm_hosts, |h| ctl.has_room(h)) {
            *placed_queued += 1;
            d
        } else {
            ctl.count_shed();
            return None;
        };
        ctl.admit(decision.host);
        if let Err(at) = warm[ix].binary_search(&decision.host) {
            warm[ix].insert(at, decision.host);
        }
        Some(decision)
    }

    /// Requests placed so far `(idle, queued)`: on a host with an idle
    /// worker, or queued behind busy ones because none was idle. Sheds
    /// are neither.
    pub fn placed(&self) -> (u64, u64) {
        let state = self.state();
        (state.placed_idle, state.placed_queued)
    }

    /// Give back the admission slot a served request held on `host`.
    fn release(&self, host: usize) {
        self.state().ctl.release(host);
    }
}

/// An admitted request's slot on `host`, given back when dropped: also
/// when the kernel panics and the handler unwinds, so a failed request
/// never leaves its host looking busy.
struct Slot<'a> {
    handler: &'a FleetHandler,
    host: usize,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.handler.release(self.host);
    }
}

impl OffloadHandler for FleetHandler {
    fn handle(&self, req: &OffloadRequest) -> OffloadResponse {
        let queued = Instant::now();
        let Some(decision) = self.admit(req.kind) else {
            return OffloadResponse::error("admission: every host is full");
        };
        let _slot = Slot {
            handler: self,
            host: decision.host,
        };
        // Execute for real on the host's bounded pool, outside the lock.
        let (out, wall) = self.backends[decision.host].execute(req.kind, req.size, req.seed);

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
    fn an_idle_host_is_chosen_before_queueing_behind_a_busy_one() {
        let handler = FleetHandler::new(2, 1, 16);
        let kind = WorkloadKind::Ocr;
        let first = handler.admit(kind).expect("empty fleet admits");
        let second = handler.admit(kind).expect("the other worker is idle");
        assert_ne!(second.host, first.host, "queued behind a busy worker");
        assert_eq!(second.reason, RouteReason::Spill);
        // Both workers busy: the request queues on a warm host.
        let third = handler.admit(kind).expect("a queue has room");
        assert_eq!(third.reason, RouteReason::Affinity);
        assert_eq!(third.host, 0, "the lowest-id warm host");
        assert_eq!(handler.state().ctl.shed(), 0);
        for d in [first, second, third] {
            handler.release(d.host);
        }
        let lone = handler.admit(kind).expect("an idle fleet admits");
        assert_eq!((lone.host, lone.reason), (0, RouteReason::Affinity));
    }

    #[test]
    fn placement_counts_idle_and_queued_admissions() {
        let handler = FleetHandler::new(2, 1, 16);
        let kind = WorkloadKind::Ocr;
        let busy = handler.admit(kind).expect("empty fleet admits");
        assert_eq!(handler.placed(), (1, 0));
        // One host busy: the other one's worker is idle.
        let idle = handler.admit(kind).expect("one host is busy");
        assert_ne!(idle.host, busy.host);
        assert_eq!(handler.placed(), (2, 0));
        // Both busy: the request queues.
        handler.admit(kind).expect("a queue has room");
        assert_eq!(handler.placed(), (2, 1));
        let shed = FleetHandler::new(1, 1, 1);
        shed.admit(kind).expect("admits");
        assert_eq!(shed.admit(kind), None);
        assert_eq!(shed.placed(), (1, 0), "a shed is not a placement");
    }

    #[test]
    fn an_unwinding_request_gives_its_slot_back() {
        let handler = FleetHandler::new(1, 1, 4);
        let decision = handler.admit(WorkloadKind::Linpack).expect("admits");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = Slot {
                handler: &handler,
                host: decision.host,
            };
            assert_eq!(handler.state().ctl.depth(decision.host), 1);
            panic!("planted kernel panic");
        }));
        assert!(unwound.is_err());
        assert_eq!(handler.state().ctl.depth(decision.host), 0);
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
