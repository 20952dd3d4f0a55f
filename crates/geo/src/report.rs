//! Geo run results: per-request records with region provenance,
//! control-plane counters, per-host and per-migration accounting, and
//! the canonical digest the geo determinism suite pins.

use fleet::{RouteReason, ScenarioStats};
use rattrap::{Phase, ReportHasher};
use simkit::{Cdf, SimDuration, SimTime};
use workloads::WorkloadKind;

/// One request's outcome in the multi-region topology.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoRequestRecord {
    /// Request id (arrival order).
    pub id: u64,
    /// Originating user (global device index).
    pub user: u32,
    /// The user's home region.
    pub region: usize,
    /// The app.
    pub kind: WorkloadKind,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Terminal instant.
    pub finished: SimTime,
    /// Terminal lifecycle phase.
    pub phase: Phase,
    /// Whether the task fell back to the device's own CPU.
    pub fell_back: bool,
    /// Cell that finally served it (`None` for shed requests).
    pub cell: Option<usize>,
    /// Host that finally served it (global index).
    pub host: Option<usize>,
    /// Whether the serving cell sat outside the home region.
    pub cross_region: bool,
    /// Service attempts consumed.
    pub attempts: u32,
    /// How the in-cell placement was chosen.
    pub reason: Option<RouteReason>,
}

impl GeoRequestRecord {
    /// End-to-end response time.
    pub fn response(&self) -> SimDuration {
        self.finished.saturating_since(self.arrival)
    }

    /// Whether the cloud served it (done, and not on the device).
    pub fn remote(&self) -> bool {
        self.phase == Phase::Done && !self.fell_back
    }
}

/// Counters for the geo control plane's own activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeoControlStats {
    /// Requests placed by in-cell warm-container affinity.
    pub affinity_routes: u64,
    /// Requests placed on their in-cell consistent-hash home.
    pub hash_routes: u64,
    /// Requests spilled past refusing hosts inside their cell.
    pub spill_routes: u64,
    /// Requests served outside their home region.
    pub cross_region_routes: u64,
    /// Requests no host in any region admitted.
    pub shed: u64,
    /// In-tier standby activations (the cell had its own spare).
    pub scale_ups: u64,
    /// Cloud-burst activations: an edge PoP's sustained saturation
    /// powered on a regional-core standby on its behalf.
    pub bursts: u64,
    /// Active hosts drained by a cell's autoscaler.
    pub drains: u64,
    /// Cross-cell migrations started.
    pub migrations_started: u64,
    /// Cross-cell migrations completed (destination container live).
    pub migrations_completed: u64,
    /// Checkpoint bytes landed by completed migrations.
    pub migration_bytes: u64,
    /// Request payload bytes that crossed a WAN leg (upload +
    /// download of remotely served requests).
    pub wan_request_bytes: u64,
    /// Times a request was admitted while already holding an
    /// admission slot. Always zero — the geo-single-admission
    /// invariant; any spillover double-count shows up here.
    pub double_admissions: u64,
}

/// One cross-cell migration with its state-conservation evidence —
/// the control plane's own record.
pub use fleet::report::MigrationRecord as GeoMigrationRecord;

/// Per-host accounting (global index order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeoHostReport {
    /// The cell the host belongs to.
    pub cell: usize,
    /// Requests this host completed.
    pub served: u64,
    /// Peak concurrently provisioned instances.
    pub peak_instances: usize,
    /// Peak reserved memory, bytes.
    pub peak_memory: u64,
    /// The host's DRAM.
    pub memory_bytes: u64,
    /// Containers migrated away.
    pub migrations_out: u64,
    /// Containers migrated in.
    pub migrations_in: u64,
}

/// Response-time shape of one region's own population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoRegionSummary {
    /// Requests submitted by devices homed here.
    pub submitted: u64,
    /// Served by the cloud (any region).
    pub completed_remote: u64,
    /// Served outside the home region.
    pub cross_region: u64,
    /// Median response of remote completions, seconds.
    pub p50_response_s: f64,
    /// 99th-percentile response of remote completions, seconds.
    pub p99_response_s: f64,
}

/// Aggregate outcome of a geo run.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoSummary {
    /// Requests submitted (trace arrivals, all regions).
    pub submitted: u64,
    /// Served by the cloud.
    pub completed_remote: u64,
    /// Degraded to on-device execution.
    pub fallback_local: u64,
    /// Abandoned.
    pub abandoned: u64,
    /// Cloud throughput over the trace duration, requests/second.
    pub throughput_rps: f64,
    /// Mean response time of remote completions, seconds.
    pub mean_response_s: f64,
    /// Median response time, seconds.
    pub p50_response_s: f64,
    /// 95th percentile, seconds.
    pub p95_response_s: f64,
    /// 99th percentile, seconds — the headline geo metric.
    pub p99_response_s: f64,
    /// Per-region response shape, region order.
    pub regions: Vec<GeoRegionSummary>,
    /// Trace duration, seconds.
    pub duration_s: f64,
}

/// Everything a geo run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoReport {
    /// Per-request outcomes, in arrival order.
    pub records: Vec<GeoRequestRecord>,
    /// Control-plane activity.
    pub control: GeoControlStats,
    /// Per-host accounting, global index order.
    pub hosts: Vec<GeoHostReport>,
    /// Every migration the control plane started, slot order.
    pub migrations: Vec<GeoMigrationRecord>,
    /// Aggregates.
    pub summary: GeoSummary,
    /// Scenario-plane accounting (`None` unless the config carried a
    /// scenario plan).
    pub scenario: Option<ScenarioStats>,
}

fn response_cdf(records: &[GeoRequestRecord], keep: impl Fn(&GeoRequestRecord) -> bool) -> Cdf {
    Cdf::from_samples(
        records
            .iter()
            .filter(|r| r.remote() && keep(r))
            .map(|r| r.response().as_secs_f64())
            .collect(),
    )
}

impl GeoReport {
    /// Build the aggregate summary from the raw pieces.
    pub fn summarize(
        records: Vec<GeoRequestRecord>,
        control: GeoControlStats,
        hosts: Vec<GeoHostReport>,
        migrations: Vec<GeoMigrationRecord>,
        n_regions: usize,
        duration: SimDuration,
    ) -> Self {
        let submitted = records.len() as u64;
        let completed_remote = records.iter().filter(|r| r.remote()).count() as u64;
        let fallback_local = records
            .iter()
            .filter(|r| r.fell_back && r.phase == Phase::Done)
            .count() as u64;
        let abandoned = records
            .iter()
            .filter(|r| matches!(r.phase, Phase::Abandoned | Phase::Failed))
            .count() as u64;
        let remote: Vec<f64> = records
            .iter()
            .filter(|r| r.remote())
            .map(|r| r.response().as_secs_f64())
            .collect();
        let mean = if remote.is_empty() {
            0.0
        } else {
            remote.iter().sum::<f64>() / remote.len() as f64
        };
        let cdf = Cdf::from_samples(remote);
        let regions = (0..n_regions)
            .map(|reg| {
                let rc = response_cdf(&records, |r| r.region == reg);
                GeoRegionSummary {
                    submitted: records.iter().filter(|r| r.region == reg).count() as u64,
                    completed_remote: records
                        .iter()
                        .filter(|r| r.region == reg && r.remote())
                        .count() as u64,
                    cross_region: records
                        .iter()
                        .filter(|r| r.region == reg && r.remote() && r.cross_region)
                        .count() as u64,
                    p50_response_s: rc.median().unwrap_or(0.0),
                    p99_response_s: rc.quantile(0.99).unwrap_or(0.0),
                }
            })
            .collect();
        let duration_s = duration.as_secs_f64();
        let summary = GeoSummary {
            submitted,
            completed_remote,
            fallback_local,
            abandoned,
            throughput_rps: completed_remote as f64 / duration_s,
            mean_response_s: mean,
            p50_response_s: cdf.median().unwrap_or(0.0),
            p95_response_s: cdf.quantile(0.95).unwrap_or(0.0),
            p99_response_s: cdf.quantile(0.99).unwrap_or(0.0),
            regions,
            duration_s,
        };
        GeoReport {
            records,
            control,
            hosts,
            migrations,
            summary,
            scenario: None,
        }
    }

    /// Canonical digest over every observable field — the geo golden
    /// determinism contract.
    pub fn digest(&self) -> u64 {
        let mut h = ReportHasher::new();
        h.write_u64(self.records.len() as u64);
        for r in &self.records {
            h.write_u64(r.id);
            h.write_u64(r.user as u64);
            h.write_u64(r.region as u64);
            h.write(format!("{:?}", r.kind).as_bytes());
            h.write_u64(r.arrival.as_micros());
            h.write_u64(r.finished.as_micros());
            h.write(r.phase.name().as_bytes());
            h.write_u64(r.fell_back as u64);
            h.write_u64(r.cell.map(|x| x as u64 + 1).unwrap_or(0));
            h.write_u64(r.host.map(|x| x as u64 + 1).unwrap_or(0));
            h.write_u64(r.cross_region as u64);
            h.write_u64(r.attempts as u64);
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
            c.cross_region_routes,
            c.shed,
            c.scale_ups,
            c.bursts,
            c.drains,
            c.migrations_started,
            c.migrations_completed,
            c.migration_bytes,
            c.wan_request_bytes,
            c.double_admissions,
        ] {
            h.write_u64(v);
        }
        for hr in &self.hosts {
            h.write_u64(hr.cell as u64);
            h.write_u64(hr.served);
            h.write_u64(hr.peak_instances as u64);
            h.write_u64(hr.peak_memory);
            h.write_u64(hr.memory_bytes);
            h.write_u64(hr.migrations_out);
            h.write_u64(hr.migrations_in);
        }
        h.write_u64(self.migrations.len() as u64);
        for m in &self.migrations {
            h.write_u64(m.from_host as u64);
            h.write_u64(m.to_host as u64);
            h.write_u64(m.from_cell as u64);
            h.write_u64(m.to_cell as u64);
            h.write_u64(m.bytes_src);
            h.write_u64(m.bytes_wire);
            h.write_u64(m.bytes_dst);
            h.write_u64(m.completed as u64);
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
        h.write_f64(s.p99_response_s);
        for reg in &s.regions {
            h.write_u64(reg.submitted);
            h.write_u64(reg.completed_remote);
            h.write_u64(reg.cross_region);
            h.write_f64(reg.p50_response_s);
            h.write_f64(reg.p99_response_s);
        }
        // Hashed only when present, so scenario-free runs keep the
        // digests pinned before the scenario plane existed.
        if let Some(sc) = &self.scenario {
            sc.hash_into(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, region: usize, secs: u64) -> GeoRequestRecord {
        GeoRequestRecord {
            id,
            user: id as u32,
            region,
            kind: WorkloadKind::Ocr,
            arrival: SimTime::from_secs(1),
            finished: SimTime::from_secs(1 + secs),
            phase: Phase::Done,
            fell_back: false,
            cell: Some(region * 2),
            host: Some(0),
            cross_region: false,
            attempts: 1,
            reason: Some(RouteReason::Hash),
        }
    }

    #[test]
    fn summary_slices_per_region() {
        let recs = vec![record(0, 0, 2), record(1, 0, 4), record(2, 1, 8)];
        let rep = GeoReport::summarize(
            recs,
            GeoControlStats::default(),
            vec![],
            vec![],
            2,
            SimDuration::from_secs(10),
        );
        assert_eq!(rep.summary.submitted, 3);
        assert_eq!(rep.summary.regions.len(), 2);
        assert_eq!(rep.summary.regions[0].submitted, 2);
        assert_eq!(rep.summary.regions[1].submitted, 1);
        assert!(rep.summary.regions[1].p99_response_s > rep.summary.regions[0].p99_response_s);
        assert!(rep.summary.p99_response_s >= rep.summary.p95_response_s);
    }

    #[test]
    fn digest_sees_migration_and_admission_evidence() {
        let base = GeoReport::summarize(
            vec![record(0, 0, 2)],
            GeoControlStats::default(),
            vec![GeoHostReport::default()],
            vec![GeoMigrationRecord {
                from_host: 0,
                to_host: 1,
                from_cell: 0,
                to_cell: 2,
                bytes_src: 100,
                bytes_wire: 100,
                bytes_dst: 100,
                completed: true,
            }],
            1,
            SimDuration::from_secs(10),
        );
        let mut lost = base.clone();
        lost.migrations[0].bytes_dst = 99;
        assert_ne!(base.digest(), lost.digest(), "conservation bytes");
        let mut double = base.clone();
        double.control.double_admissions = 1;
        assert_ne!(base.digest(), double.digest(), "double admission");
        let mut moved = base.clone();
        moved.records[0].cross_region = true;
        assert_ne!(base.digest(), moved.digest(), "cross-region flag");
    }
}
