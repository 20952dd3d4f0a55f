//! Fleet run results: per-request records, control-plane event
//! counts, per-host accounting, and the canonical digest the golden
//! determinism suite pins.

use crate::router::RouteReason;
use rattrap::{Phase, ReportHasher};
use simkit::{Cdf, SimDuration, SimTime};
use workloads::WorkloadKind;

/// One request's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRequestRecord {
    /// Request id (arrival order).
    pub id: u64,
    /// Originating user (device).
    pub user: u32,
    /// The app.
    pub kind: WorkloadKind,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Terminal instant.
    pub finished: SimTime,
    /// Terminal lifecycle phase (always satisfies
    /// [`Phase::is_terminal`]).
    pub phase: Phase,
    /// Whether the task finished on the device's own CPU (shed or
    /// retry-budget exhaustion, per the resilience policy).
    pub fell_back: bool,
    /// Host that finally served it (None for shed/local requests).
    pub host: Option<usize>,
    /// Service attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// Crash-triggered re-routes survived.
    pub rerouted: u32,
    /// How the final placement was chosen.
    pub reason: Option<RouteReason>,
}

impl FleetRequestRecord {
    /// End-to-end response time.
    pub fn response(&self) -> SimDuration {
        self.finished.saturating_since(self.arrival)
    }

    /// Whether the cloud served it (done, and not on the device).
    pub fn remote(&self) -> bool {
        self.phase == Phase::Done && !self.fell_back
    }
}

/// Counters for the control plane's own activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Requests routed by warm-container affinity.
    pub affinity_routes: u64,
    /// Requests routed to their consistent-hash home.
    pub hash_routes: u64,
    /// Requests spilled past refusing hosts.
    pub spill_routes: u64,
    /// Requests no host admitted (shed to the resilience layer).
    pub shed: u64,
    /// Host crashes injected.
    pub host_crashes: u64,
    /// Requests re-routed off a crashed host.
    pub crash_reroutes: u64,
    /// Rebalancing migrations started.
    pub migrations_started: u64,
    /// Rebalancing migrations that completed (dest container live).
    pub migrations_completed: u64,
    /// Bytes moved by completed migrations.
    pub migration_bytes: u64,
    /// Standby hosts activated by the autoscaler.
    pub scale_ups: u64,
    /// Active hosts drained by the autoscaler.
    pub drains: u64,
    /// Requests served outside their home region (zero on a one-region
    /// layout, like the next two).
    pub cross_region_routes: u64,
    /// Cloud-burst activations on behalf of a saturated cell.
    pub bursts: u64,
    /// Request payload bytes that crossed a WAN leg.
    pub wan_request_bytes: u64,
    /// Times a request was admitted while already holding a slot —
    /// every layout must keep this at zero.
    pub double_admissions: u64,
}

/// One migration, with the state-conservation evidence the simcheck
/// invariant audits: the bytes the source serialized, the bytes the
/// fabric carried, and the bytes the destination measured while
/// restoring must all agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Source host (global index).
    pub from_host: usize,
    /// Destination host (global index).
    pub to_host: usize,
    /// Source cell.
    pub from_cell: usize,
    /// Destination cell.
    pub to_cell: usize,
    /// Checkpoint bytes the source serialized.
    pub bytes_src: u64,
    /// Bytes charged through the fabric.
    pub bytes_wire: u64,
    /// Bytes the destination measured while restoring (zero until the
    /// container lands).
    pub bytes_dst: u64,
    /// Whether the destination container went live.
    pub completed: bool,
}

/// Per-host accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostReport {
    /// The cell the host belongs to (zero on a one-cell layout).
    pub cell: usize,
    /// Requests this host completed.
    pub served: u64,
    /// Peak concurrently provisioned instances.
    pub peak_instances: usize,
    /// Peak reserved memory, bytes.
    pub peak_memory: u64,
    /// The host's DRAM (the bound `peak_memory` must respect).
    pub memory_bytes: u64,
    /// Containers migrated away.
    pub migrations_out: u64,
    /// Containers migrated in.
    pub migrations_in: u64,
    /// Crashes suffered.
    pub crashes: u64,
}

/// Aggregate outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Requests submitted (trace arrivals).
    pub submitted: u64,
    /// Served by the cloud.
    pub completed_remote: u64,
    /// Degraded to on-device execution.
    pub fallback_local: u64,
    /// Abandoned (no fallback in policy).
    pub abandoned: u64,
    /// Cloud throughput over the trace duration, requests/second.
    pub throughput_rps: f64,
    /// Mean response time of remote completions, seconds.
    pub mean_response_s: f64,
    /// Median response time of remote completions, seconds.
    pub p50_response_s: f64,
    /// 95th-percentile response time of remote completions, seconds.
    pub p95_response_s: f64,
    /// 99th-percentile response time of remote completions, seconds.
    pub p99_response_s: f64,
    /// Trace duration, seconds.
    pub duration_s: f64,
}

/// Disposition counts and the remote response-time distribution of a
/// set of records: the one pass every summary (fleet, per-tenant,
/// per-region) is built from. Samples are taken in iteration order, so
/// the mean's summation order — and with it every float bit — is the
/// caller's record order.
struct Tally {
    submitted: u64,
    completed_remote: u64,
    fallback_local: u64,
    abandoned: u64,
    mean_response_s: f64,
    remote: Cdf,
}

impl Tally {
    fn of<'a>(records: impl Iterator<Item = &'a FleetRequestRecord>) -> Self {
        let (mut submitted, mut fallback_local, mut abandoned) = (0, 0, 0);
        let mut remote = Vec::new();
        for r in records {
            submitted += 1;
            if r.remote() {
                remote.push(r.response().as_secs_f64());
            }
            if r.fell_back && r.phase == Phase::Done {
                fallback_local += 1;
            }
            if matches!(r.phase, Phase::Abandoned | Phase::Failed) {
                abandoned += 1;
            }
        }
        Tally {
            submitted,
            completed_remote: remote.len() as u64,
            fallback_local,
            abandoned,
            mean_response_s: if remote.is_empty() {
                0.0
            } else {
                remote.iter().sum::<f64>() / remote.len() as f64
            },
            remote: Cdf::from_samples(remote),
        }
    }

    fn quantile(&self, q: f64) -> f64 {
        self.remote.quantile(q).unwrap_or(0.0)
    }
}

impl FleetSummary {
    fn new(t: &Tally, duration_s: f64) -> Self {
        FleetSummary {
            submitted: t.submitted,
            completed_remote: t.completed_remote,
            fallback_local: t.fallback_local,
            abandoned: t.abandoned,
            throughput_rps: t.completed_remote as f64 / duration_s,
            mean_response_s: t.mean_response_s,
            p50_response_s: t.remote.median().unwrap_or(0.0),
            p95_response_s: t.quantile(0.95),
            p99_response_s: t.quantile(0.99),
            duration_s,
        }
    }
}

/// Per-tenant accounting when a scenario declares explicit tenants
/// (every request belongs to exactly one tenant, so these partition
/// the run — the `tenant-isolation-accounting` invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant display name.
    pub name: String,
    /// Requests submitted by this tenant's devices.
    pub submitted: u64,
    /// Served by the cloud.
    pub completed_remote: u64,
    /// Degraded to on-device execution.
    pub fallback_local: u64,
    /// Abandoned or failed.
    pub abandoned: u64,
    /// Mean response time of this tenant's remote completions, seconds.
    pub mean_response_s: f64,
    /// 99th-percentile response of remote completions, seconds.
    pub p99_response_s: f64,
}

/// Scenario-plane accounting, present only when the run carried a
/// [`scenario::ScenarioSpec`]. The conservation contract
/// (`scenario-arrival-conservation`): every scripted event is either
/// submitted to the platform or suppressed on-device —
/// `injected == submitted + suppressed`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStats {
    /// The spec's display name.
    pub name: String,
    /// Scripted events compiled into the run.
    pub injected: u64,
    /// Scripted events that entered the platform as requests.
    pub submitted: u64,
    /// Scripted events handled device-locally (never offloaded).
    pub suppressed: u64,
    /// Upload attempts cut by a cohort radio outage and re-offloaded
    /// at restore (the thundering herd, counted per deferral).
    pub deferred: u64,
    /// Per-tenant split of *all* requests in the run, tenant order.
    pub tenants: Vec<TenantStats>,
}

impl ScenarioStats {
    /// Build the per-tenant split from the finished records plus the
    /// control plane's scenario counters. `tenant_of` maps any user
    /// index to its tenant.
    pub fn build(
        name: &str,
        counters: (u64, u64, u64, u64),
        tenant_names: &[String],
        tenant_of: impl Fn(u32) -> u32,
        records: &[FleetRequestRecord],
    ) -> Self {
        let (injected, submitted, suppressed, deferred) = counters;
        let tenants = tenant_names
            .iter()
            .enumerate()
            .map(|(t, name)| {
                let mine = Tally::of(records.iter().filter(|r| tenant_of(r.user) == t as u32));
                TenantStats {
                    name: name.clone(),
                    submitted: mine.submitted,
                    completed_remote: mine.completed_remote,
                    fallback_local: mine.fallback_local,
                    abandoned: mine.abandoned,
                    mean_response_s: mine.mean_response_s,
                    p99_response_s: mine.quantile(0.99),
                }
            })
            .collect();
        ScenarioStats {
            name: name.to_string(),
            injected,
            submitted,
            suppressed,
            deferred,
            tenants,
        }
    }

    /// Fold every field into a report digest.
    fn hash_into(&self, h: &mut ReportHasher) {
        h.write(self.name.as_bytes());
        h.write_u64(self.injected);
        h.write_u64(self.submitted);
        h.write_u64(self.suppressed);
        h.write_u64(self.deferred);
        h.write_u64(self.tenants.len() as u64);
        for t in &self.tenants {
            h.write(t.name.as_bytes());
            h.write_u64(t.submitted);
            h.write_u64(t.completed_remote);
            h.write_u64(t.fallback_local);
            h.write_u64(t.abandoned);
            h.write_f64(t.mean_response_s);
            h.write_f64(t.p99_response_s);
        }
    }
}

/// Everything a fleet run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-request outcomes, in arrival order.
    pub records: Vec<FleetRequestRecord>,
    /// Control-plane activity.
    pub control: ControlStats,
    /// Per-host accounting, index order.
    pub hosts: Vec<HostReport>,
    /// Every migration the control plane started, slot order.
    pub migrations: Vec<MigrationRecord>,
    /// Aggregates.
    pub summary: FleetSummary,
    /// Scenario-plane accounting (`None` unless the config carried a
    /// scenario plan).
    pub scenario: Option<ScenarioStats>,
}

impl FleetReport {
    /// Build the aggregate summary from records + the trace duration.
    pub fn summarize(
        records: Vec<FleetRequestRecord>,
        control: ControlStats,
        hosts: Vec<HostReport>,
        duration: SimDuration,
    ) -> Self {
        let summary = FleetSummary::new(&Tally::of(records.iter()), duration.as_secs_f64());
        FleetReport {
            records,
            control,
            hosts,
            migrations: Vec::new(),
            summary,
            scenario: None,
        }
    }

    /// The summary of the records `keep` selects (one region's, say)
    /// over the same trace.
    pub fn summary_of(&self, keep: impl Fn(&FleetRequestRecord) -> bool) -> FleetSummary {
        let mine = self.records.iter().filter(|r| keep(r));
        FleetSummary::new(&Tally::of(mine), self.summary.duration_s)
    }

    /// Canonical digest — the golden determinism contract. Any
    /// microsecond, byte, or float bit that moves in a hashed field
    /// moves this. The scenario block is hashed only when present, so
    /// scenario-free runs keep the digests pinned before the scenario
    /// plane existed. The field lists are explicit and deliberately
    /// stop short of the four multi-cell counters and `hosts[..].cell`
    /// (zero on a flat layout), `migrations` (its totals are hashed
    /// through `control` and `hosts`) and `summary.p99_response_s`
    /// (one more quantile of hashed samples): naming them would move
    /// every pinned fleet digest for no new evidence. A multi-cell
    /// front-end folds them in on top (`geo::GeoReport::digest`).
    pub fn digest(&self) -> u64 {
        let mut h = ReportHasher::new();
        h.write_u64(self.records.len() as u64);
        for r in &self.records {
            h.write_u64(r.id);
            h.write_u64(r.user as u64);
            h.write(format!("{:?}", r.kind).as_bytes());
            h.write_u64(r.arrival.as_micros());
            h.write_u64(r.finished.as_micros());
            h.write(r.phase.name().as_bytes());
            h.write_u64(r.fell_back as u64);
            h.write_u64(r.host.map(|x| x as u64 + 1).unwrap_or(0));
            h.write_u64(r.attempts as u64);
            h.write_u64(r.rerouted as u64);
            h.write(match r.reason {
                None => b"none" as &[u8],
                Some(x) => x.label().as_bytes(),
            });
        }
        let c = &self.control;
        for v in [
            c.affinity_routes,
            c.hash_routes,
            c.spill_routes,
            c.shed,
            c.host_crashes,
            c.crash_reroutes,
            c.migrations_started,
            c.migrations_completed,
            c.migration_bytes,
            c.scale_ups,
            c.drains,
        ] {
            h.write_u64(v);
        }
        for hr in &self.hosts {
            h.write_u64(hr.served);
            h.write_u64(hr.peak_instances as u64);
            h.write_u64(hr.peak_memory);
            h.write_u64(hr.memory_bytes);
            h.write_u64(hr.migrations_out);
            h.write_u64(hr.migrations_in);
            h.write_u64(hr.crashes);
        }
        let s = &self.summary;
        h.write_u64(s.submitted);
        h.write_u64(s.completed_remote);
        h.write_u64(s.fallback_local);
        h.write_u64(s.abandoned);
        h.write_f64(s.throughput_rps);
        h.write_f64(s.mean_response_s);
        h.write_f64(s.p50_response_s);
        h.write_f64(s.p95_response_s);
        if let Some(sc) = &self.scenario {
            sc.hash_into(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, phase: Phase, secs: u64) -> FleetRequestRecord {
        FleetRequestRecord {
            id,
            user: 1,
            kind: WorkloadKind::Ocr,
            arrival: SimTime::from_secs(1),
            finished: SimTime::from_secs(1 + secs),
            phase,
            fell_back: false,
            host: Some(0),
            attempts: 1,
            rerouted: 0,
            reason: Some(RouteReason::Hash),
        }
    }

    #[test]
    fn summary_counts_dispositions() {
        let mut local = record(2, Phase::Done, 9);
        local.fell_back = true;
        let recs = vec![
            record(0, Phase::Done, 2),
            record(1, Phase::Done, 4),
            local,
            record(3, Phase::Abandoned, 1),
        ];
        let rep = FleetReport::summarize(
            recs,
            ControlStats::default(),
            vec![HostReport::default()],
            SimDuration::from_secs(10),
        );
        assert_eq!(rep.summary.submitted, 4);
        assert_eq!(rep.summary.completed_remote, 2);
        assert_eq!(rep.summary.fallback_local, 1);
        assert_eq!(rep.summary.abandoned, 1);
        assert!((rep.summary.throughput_rps - 0.2).abs() < 1e-12);
        assert!((rep.summary.mean_response_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_flat_run_leaves_the_multi_cell_fields_at_rest() {
        let mut cfg = crate::FleetConfig::paper_default(3, 21);
        cfg.traffic.users = 24;
        cfg.traffic.duration = SimDuration::from_secs(600);
        cfg.rebalance.imbalance_threshold = 0.05;
        cfg.rebalance.min_interval = SimDuration::from_secs(10);
        let rep = crate::run_fleet(&cfg);
        let c = &rep.control;
        assert_eq!(
            (
                c.cross_region_routes,
                c.bursts,
                c.wan_request_bytes,
                c.double_admissions
            ),
            (0, 0, 0, 0)
        );
        assert!(rep.hosts.iter().all(|h| h.cell == 0));
        assert!(!rep.migrations.is_empty(), "the eager rebalancer moved");
        assert_eq!(rep.migrations.len() as u64, c.migrations_started);
        assert!(rep.summary.p99_response_s >= rep.summary.p95_response_s);
        // None of them is in the fleet digest's byte stream.
        let mut wide = rep.clone();
        wide.control.bursts = 1;
        wide.hosts[0].cell = 1;
        wide.migrations.clear();
        wide.summary.p99_response_s += 1.0;
        assert_eq!(rep.digest(), wide.digest());
    }

    #[test]
    fn digest_sees_every_field() {
        let base = FleetReport::summarize(
            vec![record(0, Phase::Done, 2)],
            ControlStats::default(),
            vec![HostReport::default()],
            SimDuration::from_secs(10),
        );
        let mut moved = base.clone();
        moved.records[0].finished = SimTime::from_secs(4);
        assert_ne!(base.digest(), moved.digest(), "finish time");
        let mut routed = base.clone();
        routed.records[0].reason = Some(RouteReason::Spill);
        assert_ne!(base.digest(), routed.digest(), "route reason");
        let mut ctl = base.clone();
        ctl.control.migrations_completed = 1;
        assert_ne!(base.digest(), ctl.digest(), "control stats");
    }

    #[test]
    fn digest_sees_the_scenario_block_only_when_present() {
        let base = FleetReport::summarize(
            vec![record(0, Phase::Done, 2)],
            ControlStats::default(),
            vec![HostReport::default()],
            SimDuration::from_secs(10),
        );
        let mut with = base.clone();
        with.scenario = Some(ScenarioStats::build(
            "s",
            (3, 2, 1, 0),
            &["default".to_string()],
            |_| 0,
            &with.records,
        ));
        assert_ne!(base.digest(), with.digest(), "scenario block is hashed");
        let mut moved = with.clone();
        moved.scenario.as_mut().unwrap().deferred = 7;
        assert_ne!(with.digest(), moved.digest(), "deferred count");
        let mut tenant = with.clone();
        tenant.scenario.as_mut().unwrap().tenants[0].submitted += 1;
        assert_ne!(with.digest(), tenant.digest(), "tenant split");
    }

    #[test]
    fn tenant_split_partitions_the_records() {
        let recs = vec![
            record(0, Phase::Done, 2),
            record(1, Phase::Abandoned, 1),
            record(2, Phase::Done, 4),
        ];
        let names = vec!["even".to_string(), "odd".to_string()];
        let s = ScenarioStats::build("s", (0, 0, 0, 0), &names, |u| u % 2, &recs);
        // All three test records come from user 1 (odd).
        assert_eq!(s.tenants[0].submitted, 0);
        assert_eq!(s.tenants[1].submitted, 3);
        assert_eq!(s.tenants[1].completed_remote, 2);
        assert_eq!(s.tenants[1].abandoned, 1);
        assert_eq!(
            s.tenants.iter().map(|t| t.submitted).sum::<u64>(),
            recs.len() as u64
        );
    }
}
