//! The concrete cross-layer invariant catalogue.
//!
//! Each invariant has a stable kebab-case name; [`CATALOGUE`] is the
//! full list the explorer must exercise. Three kinds of checker feed
//! the same [`Audit`] ledger:
//!
//! - **live**: [`LifecycleAuditor`] rides a rattrap run as a
//!   [`PhaseObserver`], validating every phase edge as it happens;
//! - **post-run**: [`audit_simulation_report`] / [`audit_fleet_report`]
//!   check conservation laws on the finished report;
//! - **trace**: [`audit_trace`] checks span-tree well-formedness on an
//!   obsv snapshot.
//!
//! The model-based invariants (shared-link conservation, ENODEV
//! gating, warehouse hints, event-queue monotonicity) live in
//! [`crate::models`].

use crate::audit::Audit;
use exec::{CalibrationMap, HostClass};
use fleet::FleetReport;
use obsv::{SpanId, TraceEvent, TraceSnapshot};
use rattrap::{Phase, PhaseObserver, RequestRecord, SimulationReport};
use simkit::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Every invariant the harness knows, in catalogue order.
pub const CATALOGUE: &[&str] = &[
    LIFECYCLE_MONOTONE,
    LIFECYCLE_TERMINAL,
    WORK_CONSERVATION,
    BYTE_CONSERVATION,
    MEMORY_BOUND,
    FLEET_ACCOUNTING,
    LINK_CONSERVATION,
    ENODEV_GATE,
    WAREHOUSE_CONSISTENCY,
    GEO_MIGRATION_CONSERVATION,
    GEO_SINGLE_ADMISSION,
    SPAN_TREE,
    EVENT_MONOTONICITY,
    DIGEST_STABILITY,
    BACKEND_INERTNESS,
    SCENARIO_ARRIVAL_CONSERVATION,
    TENANT_ISOLATION_ACCOUNTING,
];

/// Phase transitions are monotone: edges chain (`from` equals the
/// previous `to`), time never runs backwards, and nothing leaves a
/// terminal phase.
pub const LIFECYCLE_MONOTONE: &str = "lifecycle-monotone";
/// Every request observed in flight reaches a terminal [`Phase`].
pub const LIFECYCLE_TERMINAL: &str = "lifecycle-terminal";
/// Served work equals submitted work: each record's phase breakdown
/// sums to its response time (within µs rounding).
pub const WORK_CONSERVATION: &str = "work-conservation";
/// Byte accounting is consistent per request and with the warehouse.
pub const BYTE_CONSERVATION: &str = "byte-conservation";
/// Host DRAM is never oversubscribed — rattrap peak and every fleet
/// host's peak stay within physical memory.
pub const MEMORY_BOUND: &str = "memory-bound";
/// Fleet conservation: completed + fallback + abandoned == submitted,
/// and migrations out == migrations in.
pub const FLEET_ACCOUNTING: &str = "fleet-accounting";
/// SharedLink conserves bytes: charged == delivered + reversed on
/// interruption, against the closed-form fair-share model.
pub const LINK_CONSERVATION: &str = "link-conservation";
/// Device access succeeds iff the providing module is resident
/// (`ENODEV` exactly when unloaded).
pub const ENODEV_GATE: &str = "enodev-gate";
/// Warehouse CID hints only name containers actually warm (noted
/// loaded, never invalidated), and its stats match a shadow model.
pub const WAREHOUSE_CONSISTENCY: &str = "warehouse-consistency";
/// Migration conserves container state byte for byte, across a WAN
/// fabric or a flat fleet's interconnect: what the source serialized
/// equals what the fabric was charged equals what the destination
/// measured while restoring. Orphaned moves (destination crashed or
/// drained mid-flight) must land nothing.
pub const GEO_MIGRATION_CONSERVATION: &str = "geo-migration-conservation";
/// No request is ever admitted twice: however routing spills
/// clockwise under saturation, re-routes off a crashed host or defers
/// behind a radio outage, a request holds at most one admission slot
/// at a time.
pub const GEO_SINGLE_ADMISSION: &str = "geo-single-admission";
/// Span-tree well-formedness: every span closed, end ≥ begin, parents
/// open before children.
pub const SPAN_TREE: &str = "span-tree";
/// The event queue pops in (time, insertion) order and cancelled
/// events never fire — slot-generation monotonicity at the engine
/// root.
pub const EVENT_MONOTONICITY: &str = "event-monotonicity";
/// Two same-seed runs in one process produce identical digests.
pub const DIGEST_STABILITY: &str = "digest-stability";
/// A config carrying a non-empty calibration map of all-1.0 cells
/// prices exactly as the default identity map: the map resolves to
/// the identity table for every host class, and the report digest
/// must not move (`modeled × 1.0` is exact in IEEE arithmetic, so any
/// divergence means the map leaked into engine state).
pub const BACKEND_INERTNESS: &str = "backend-inertness";
/// The scenario plane loses nothing: every compiled scripted event is
/// either submitted to the engine or deliberately suppressed
/// (device-local touches), so `injected == submitted + suppressed`.
pub const SCENARIO_ARRIVAL_CONSERVATION: &str = "scenario-arrival-conservation";
/// Per-tenant accounting partitions the run: tenant `submitted` sums
/// to the fleet total, and each tenant's terminal split partitions its
/// own submissions — no request is double-billed or unbilled.
pub const TENANT_ISOLATION_ACCOUNTING: &str = "tenant-isolation-accounting";

/// Every host class an engine prices compute for: the paper server
/// (rattrap, fleet) and geo's two tiers.
pub(crate) const PRICED_CLASSES: [HostClass; 3] = [
    HostClass::PAPER_SERVER,
    HostClass::EDGE_POP,
    HostClass::REGIONAL_CORE,
];

/// Tolerance for µs-rounded phase bookkeeping: each of the ~6 phase
/// buckets rounds independently, so allow a handful of microseconds.
const PHASE_SUM_SLACK: SimDuration = SimDuration::from_micros(64);

// ---------------------------------------------------------------------
// Live auditor
// ---------------------------------------------------------------------

/// A [`PhaseObserver`] that validates every lifecycle edge live and
/// checks terminal coverage at the end of the run.
///
/// Cloneable handle pattern: attach `Box::new(auditor.clone())` to the
/// simulation, keep the original, and call [`LifecycleAuditor::finish`]
/// after `run()` to collect the ledger.
#[derive(Clone, Default)]
pub struct LifecycleAuditor {
    state: Rc<RefCell<LifecycleState>>,
}

#[derive(Default)]
struct LifecycleState {
    audit: Audit,
    /// request id → (last phase entered, instant it was entered).
    last: BTreeMap<u64, (Phase, SimTime)>,
}

impl LifecycleAuditor {
    /// A fresh auditor with an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Close the ledger: every request still mid-flight is a
    /// terminal-coverage violation. Consumes this handle's view.
    pub fn finish(&self) -> Audit {
        let mut st = self.state.borrow_mut();
        st.audit.checked(LIFECYCLE_TERMINAL);
        let stuck: Vec<(u64, Phase)> = st
            .last
            .iter()
            .filter(|(_, (p, _))| !p.is_terminal())
            .map(|(&id, &(p, _))| (id, p))
            .collect();
        for (id, p) in stuck {
            st.audit.fail(
                LIFECYCLE_TERMINAL,
                format!("request {id}"),
                format!("run ended with the request still in {p:?}"),
            );
        }
        std::mem::take(&mut st.audit)
    }
}

impl PhaseObserver for LifecycleAuditor {
    fn on_transition(
        &mut self,
        record: &RequestRecord,
        from: Phase,
        to: Phase,
        _dwell: SimDuration,
        now: SimTime,
    ) {
        let mut st = self.state.borrow_mut();
        st.audit.checked(LIFECYCLE_MONOTONE);
        if let Some(&(prev, at)) = st.last.get(&record.id) {
            if prev.is_terminal() {
                st.audit.fail(
                    LIFECYCLE_MONOTONE,
                    format!("request {}", record.id),
                    format!("transition {from:?} → {to:?} after terminal {prev:?}"),
                );
            }
            if prev != from {
                st.audit.fail(
                    LIFECYCLE_MONOTONE,
                    format!("request {}", record.id),
                    format!("edge {from:?} → {to:?} does not chain from {prev:?}"),
                );
            }
            if now < at {
                st.audit.fail(
                    LIFECYCLE_MONOTONE,
                    format!("request {}", record.id),
                    format!("clock ran backwards: {at} then {now}"),
                );
            }
        }
        st.last.insert(record.id, (to, now));
    }
}

// ---------------------------------------------------------------------
// Post-run report audits
// ---------------------------------------------------------------------

/// Conservation checks on a finished rattrap run. `dram_bytes` is the
/// serving host's physical memory (the [`MEMORY_BOUND`] ceiling).
pub fn audit_simulation_report(report: &SimulationReport, dram_bytes: u64, audit: &mut Audit) {
    audit.ensure(
        MEMORY_BOUND,
        report.peak_memory_bytes <= dram_bytes,
        "host",
        || {
            format!(
                "peak memory {} exceeds DRAM {}",
                report.peak_memory_bytes, dram_bytes
            )
        },
    );

    let mut fallbacks = 0u64;
    let mut abandoned = 0u64;
    for r in &report.requests {
        let subject = format!("request {}", r.id);
        // Served work == submitted work: the phase buckets partition
        // the response time exactly (µs-rounding slack only).
        let total = r.phases.total();
        let resp = r.response_time();
        let drift = if total > resp {
            total - resp
        } else {
            resp - total
        };
        audit.ensure(
            WORK_CONSERVATION,
            drift <= PHASE_SUM_SLACK,
            &subject,
            || format!("phase sum {total} vs response time {resp} (drift {drift})"),
        );

        // Byte accounting per request.
        audit.ensure(
            BYTE_CONSERVATION,
            r.code_transferred == (r.code_bytes_sent > 0),
            &subject,
            || {
                format!(
                    "code_transferred={} but code_bytes_sent={}",
                    r.code_transferred, r.code_bytes_sent
                )
            },
        );
        // On the first attempt an affinity hit and a code push are
        // mutually exclusive; retries may re-place onto a cold
        // container and legitimately add code bytes afterwards.
        if r.cid_affinity_hit && r.retries == 0 {
            audit.ensure(BYTE_CONSERVATION, r.code_bytes_sent == 0, &subject, || {
                format!(
                    "CID-affinity hit still sent {} code bytes",
                    r.code_bytes_sent
                )
            });
        }
        if r.executed_locally {
            audit.ensure(
                BYTE_CONSERVATION,
                r.upload_bytes == 0 && r.download_bytes == 0,
                &subject,
                || {
                    format!(
                        "locally-executed request moved up={} down={} bytes",
                        r.upload_bytes, r.download_bytes
                    )
                },
            );
        } else if !(r.fell_back_local || r.abandoned) {
            // Fallback/abandoned records may retain bytes from partial
            // attempts; a successful cloud round-trip must move both
            // directions.
            audit.ensure(
                BYTE_CONSERVATION,
                r.upload_bytes > 0 && r.download_bytes > 0,
                &subject,
                || {
                    format!(
                        "cloud-served request moved up={} down={} bytes",
                        r.upload_bytes, r.download_bytes
                    )
                },
            );
        }
        fallbacks += r.fell_back_local as u64;
        abandoned += r.abandoned as u64;
    }

    // Fault-plane accounting agrees with the per-request flags.
    audit.ensure(
        BYTE_CONSERVATION,
        report.fault_stats.fallbacks == fallbacks && report.fault_stats.abandoned == abandoned,
        "fault_stats",
        || {
            format!(
                "stats say fallbacks={} abandoned={}, records say {}/{}",
                report.fault_stats.fallbacks, report.fault_stats.abandoned, fallbacks, abandoned
            )
        },
    );
    // The warehouse cannot save bytes without a hit.
    let ws = &report.warehouse_stats;
    audit.ensure(
        BYTE_CONSERVATION,
        ws.hits > 0 || ws.bytes_saved == 0,
        "warehouse",
        || format!("{} bytes saved with zero hits", ws.bytes_saved),
    );
}

/// Conservation checks on the control plane's report — every fleet,
/// scenario and geo run produces one: the accounting laws, migration
/// byte conservation across the fabric, and single admission.
pub fn audit_fleet_report(report: &FleetReport, audit: &mut Audit) {
    let s = &report.summary;
    audit.ensure(
        FLEET_ACCOUNTING,
        s.completed_remote + s.fallback_local + s.abandoned == s.submitted,
        "summary",
        || {
            format!(
                "remote {} + fallback {} + abandoned {} != submitted {}",
                s.completed_remote, s.fallback_local, s.abandoned, s.submitted
            )
        },
    );
    audit.ensure(
        FLEET_ACCOUNTING,
        report.records.len() as u64 == s.submitted,
        "records",
        || {
            format!(
                "{} records for {} submitted requests",
                report.records.len(),
                s.submitted
            )
        },
    );
    for r in &report.records {
        audit.ensure(
            FLEET_ACCOUNTING,
            r.phase.is_terminal(),
            format!("request {}", r.id),
            || format!("record finalized in non-terminal {:?}", r.phase),
        );
    }
    let (out, inn) = report.hosts.iter().fold((0u64, 0u64), |(o, i), h| {
        (o + h.migrations_out, i + h.migrations_in)
    });
    audit.ensure(FLEET_ACCOUNTING, out == inn, "migrations", || {
        format!("{out} containers left hosts but {inn} arrived")
    });
    for (i, h) in report.hosts.iter().enumerate() {
        audit.ensure(
            MEMORY_BOUND,
            h.peak_memory <= h.memory_bytes,
            format!("host {i}"),
            || {
                format!(
                    "peak memory {} exceeds DRAM {}",
                    h.peak_memory, h.memory_bytes
                )
            },
        );
    }

    // Migration byte conservation, end to end: source serialization ==
    // fabric charge == destination restore, and an orphaned move
    // (destination crashed or drained mid-flight) lands nothing.
    let c = &report.control;
    for (i, m) in report.migrations.iter().enumerate() {
        let subject = format!("migration {i} ({} → {})", m.from_host, m.to_host);
        audit.ensure(
            GEO_MIGRATION_CONSERVATION,
            m.bytes_wire == m.bytes_src,
            &subject,
            || {
                format!(
                    "source serialized {} bytes but the fabric carried {}",
                    m.bytes_src, m.bytes_wire
                )
            },
        );
        if m.completed {
            audit.ensure(
                GEO_MIGRATION_CONSERVATION,
                m.bytes_dst == m.bytes_src,
                &subject,
                || {
                    format!(
                        "source serialized {} bytes but the destination restored {}",
                        m.bytes_src, m.bytes_dst
                    )
                },
            );
        } else {
            audit.ensure(
                GEO_MIGRATION_CONSERVATION,
                m.bytes_dst == 0,
                &subject,
                || format!("orphaned move still landed {} bytes", m.bytes_dst),
            );
        }
    }
    let completed = report.migrations.iter().filter(|m| m.completed).count() as u64;
    let landed: u64 = report
        .migrations
        .iter()
        .filter(|m| m.completed)
        .map(|m| m.bytes_dst)
        .sum();
    audit.ensure(
        GEO_MIGRATION_CONSERVATION,
        c.migrations_started == report.migrations.len() as u64
            && c.migrations_completed == completed
            && c.migration_bytes == landed,
        "migration ledger",
        || {
            format!(
                "control says {}/{} moves and {} bytes, records say {}/{} and {}",
                c.migrations_started,
                c.migrations_completed,
                c.migration_bytes,
                report.migrations.len(),
                completed,
                landed
            )
        },
    );
    audit.ensure(
        GEO_MIGRATION_CONSERVATION,
        out == completed && inn == completed,
        "host migration counters",
        || format!("{completed} moves completed but hosts recorded {out} out / {inn} in"),
    );

    // Single admission: the plane counts any request that acquired a
    // second slot while still holding one; neither spillover nor a
    // crash re-route nor a radio deferral may ever do it.
    audit.ensure(
        GEO_SINGLE_ADMISSION,
        c.double_admissions == 0,
        "admission",
        || {
            format!(
                "{} requests held two admission slots at once",
                c.double_admissions
            )
        },
    );
    for r in report.records.iter().filter(|r| r.remote()) {
        audit.ensure(
            GEO_SINGLE_ADMISSION,
            r.host.is_some(),
            format!("request {}", r.id),
            || "remotely completed without a recorded placement".to_string(),
        );
    }
    if let Some(sc) = &report.scenario {
        audit_scenario_stats(sc, s.submitted, audit);
    }
}

/// Conservation checks on a fleet run's scenario block: arrival
/// conservation and per-tenant isolation accounting.
fn audit_scenario_stats(sc: &fleet::ScenarioStats, fleet_submitted: u64, audit: &mut Audit) {
    audit.ensure(
        SCENARIO_ARRIVAL_CONSERVATION,
        sc.injected == sc.submitted + sc.suppressed,
        format!("scenario {}", sc.name),
        || {
            format!(
                "injected {} != submitted {} + suppressed {}",
                sc.injected, sc.submitted, sc.suppressed
            )
        },
    );
    audit.checked(TENANT_ISOLATION_ACCOUNTING);
    let tenant_total: u64 = sc.tenants.iter().map(|t| t.submitted).sum();
    if tenant_total != fleet_submitted {
        audit.fail(
            TENANT_ISOLATION_ACCOUNTING,
            format!("scenario {}", sc.name),
            format!(
                "tenant submissions sum to {tenant_total} but the fleet served {fleet_submitted}"
            ),
        );
    }
    for t in &sc.tenants {
        audit.ensure(
            TENANT_ISOLATION_ACCOUNTING,
            t.completed_remote + t.fallback_local + t.abandoned == t.submitted,
            format!("tenant {}", t.name),
            || {
                format!(
                    "remote {} + fallback {} + abandoned {} != submitted {}",
                    t.completed_remote, t.fallback_local, t.abandoned, t.submitted
                )
            },
        );
    }
}

// ---------------------------------------------------------------------
// Trace audit
// ---------------------------------------------------------------------

/// Span-tree well-formedness over an obsv snapshot. Skipped when the
/// ring dropped events (a truncated tree is legitimately ragged).
pub fn audit_trace(snap: &TraceSnapshot, audit: &mut Audit) {
    audit.checked(SPAN_TREE);
    if snap.dropped > 0 {
        return;
    }
    // span id → (begin instant, closed?)
    let mut open: BTreeMap<SpanId, (u64, bool)> = BTreeMap::new();
    for ev in &snap.events {
        match *ev {
            TraceEvent::Begin {
                id, parent, at_us, ..
            } => {
                if open.insert(id, (at_us, false)).is_some() {
                    audit.fail(
                        SPAN_TREE,
                        format!("span {}", id.0),
                        "span id opened twice".to_string(),
                    );
                }
                if parent.is_some() {
                    match open.get(&parent) {
                        None => audit.fail(
                            SPAN_TREE,
                            format!("span {}", id.0),
                            format!("parent {} opened after child (or never)", parent.0),
                        ),
                        Some(&(p_at, closed)) => {
                            if closed {
                                audit.fail(
                                    SPAN_TREE,
                                    format!("span {}", id.0),
                                    format!("parent {} already closed", parent.0),
                                );
                            }
                            if p_at > at_us {
                                audit.fail(
                                    SPAN_TREE,
                                    format!("span {}", id.0),
                                    format!("child began {at_us}µs before parent {p_at}µs"),
                                );
                            }
                        }
                    }
                }
            }
            TraceEvent::End { id, at_us, .. } => match open.get_mut(&id) {
                None => audit.fail(
                    SPAN_TREE,
                    format!("span {}", id.0),
                    "end without begin".to_string(),
                ),
                Some(entry) => {
                    if entry.1 {
                        audit.fail(
                            SPAN_TREE,
                            format!("span {}", id.0),
                            "span closed twice".to_string(),
                        );
                    }
                    if at_us < entry.0 {
                        audit.fail(
                            SPAN_TREE,
                            format!("span {}", id.0),
                            format!("ended at {at_us}µs before it began at {}µs", entry.0),
                        );
                    }
                    entry.1 = true;
                }
            },
            TraceEvent::Instant { .. } => {}
        }
    }
    for (id, (at, closed)) in &open {
        if !closed {
            audit.fail(
                SPAN_TREE,
                format!("span {}", id.0),
                format!("never closed (opened at {at}µs)"),
            );
        }
    }
}

/// The calibration inertness invariant: `unit`, a map meant to hold
/// only 1.0 ratios, must resolve to the identity table for every host
/// class an engine prices with, and the run it drove (`calibrated`)
/// must reproduce the default run's digest bit for bit. The table
/// check is what sees a ratio one ulp off 1.0, which almost never
/// moves a microsecond-rounded digest.
pub fn audit_backend_inertness(
    context: &str,
    unit: &CalibrationMap,
    default: u64,
    calibrated: u64,
    audit: &mut Audit,
) {
    let identity = CalibrationMap::identity();
    for class in PRICED_CLASSES {
        let same = unit.resolve(class) == identity.resolve(class);
        audit.ensure(BACKEND_INERTNESS, same, context, || {
            format!(
                "the unit map prices {} hosts unlike the identity map",
                class.0
            )
        });
    }
    audit.ensure(BACKEND_INERTNESS, default == calibrated, context, || {
        format!("default digest {default:#018x} != unit-map digest {calibrated:#018x}")
    });
}

/// The same-seed digest-divergence invariant (satellite of the
/// determinism-hazard fix): every digest from repeated in-process runs
/// of one configuration must be identical.
pub fn audit_digest_stability(context: &str, digests: &[u64], audit: &mut Audit) {
    audit.checked(DIGEST_STABILITY);
    if let Some(&first) = digests.first() {
        if digests.iter().any(|&d| d != first) {
            audit.fail(
                DIGEST_STABILITY,
                context.to_string(),
                format!(
                    "same-seed digests diverged: {:?}",
                    digests
                        .iter()
                        .map(|d| format!("{d:#018x}"))
                        .collect::<Vec<_>>()
                ),
            );
        }
    }
}
