//! Geo run results: the control plane's own [`FleetReport`] plus what
//! only a geography has — the per-region response shape and the region
//! boundaries that place a record — and the canonical digest the geo
//! determinism suite pins.

use fleet::{FleetReport, FleetRequestRecord};
use rattrap::ReportHasher;
use std::ops::Deref;

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

/// Everything a geo run produces: the plane's report (read through
/// `Deref` — `rep.records`, `rep.control.bursts`, `rep.migrations`,
/// `rep.summary.p99_response_s`) and the geography on top. A geography
/// changes *where* a request ran, not what is known about it: a
/// record's home region, serving cell and cross-region flag follow from
/// its `(user, host)` and are accessors, not stored copies.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoReport {
    /// What the control plane reported.
    pub plane: FleetReport,
    /// Per-region response shape, region order.
    pub regions: Vec<GeoRegionSummary>,
    /// First user id of each region, then the total population: user
    /// ids are region-major and dense.
    region_bounds: Vec<u32>,
}

impl Deref for GeoReport {
    type Target = FleetReport;

    fn deref(&self) -> &FleetReport {
        &self.plane
    }
}

impl GeoReport {
    /// Lay the geography over the plane's report: `region_users` is
    /// each region's population, region order.
    pub fn new(plane: FleetReport, region_users: impl IntoIterator<Item = u32>) -> Self {
        let mut region_bounds = vec![0];
        for users in region_users {
            region_bounds.push(region_bounds.last().expect("starts non-empty") + users);
        }
        let mut rep = GeoReport {
            plane,
            regions: Vec::new(),
            region_bounds,
        };
        rep.regions = (0..rep.region_bounds.len() - 1)
            .map(|reg| {
                let s = rep.summary_of(|r| rep.region_of(r) == reg);
                let crossed = |r: &&FleetRequestRecord| {
                    r.remote() && rep.region_of(r) == reg && rep.cross_region(r)
                };
                GeoRegionSummary {
                    submitted: s.submitted,
                    completed_remote: s.completed_remote,
                    cross_region: rep.records.iter().filter(crossed).count() as u64,
                    p50_response_s: s.p50_response_s,
                    p99_response_s: s.p99_response_s,
                }
            })
            .collect();
        rep
    }

    /// The record's home region. Ids past the population (a scenario's
    /// synthetic extras) fold onto it, exactly as the control plane
    /// homed them.
    pub fn region_of(&self, r: &FleetRequestRecord) -> usize {
        let (total, firsts) = self.region_bounds.split_last().expect("starts non-empty");
        let user = r.user % (*total).max(1);
        firsts.partition_point(|&first| first <= user) - 1
    }

    /// The cell that finally served the record (`None` when shed).
    pub fn cell_of(&self, r: &FleetRequestRecord) -> Option<usize> {
        r.host.map(|g| self.hosts[g].cell)
    }

    /// Whether the serving cell sat outside the record's home region
    /// (cells `2r` and `2r + 1` are region `r`'s tiers).
    pub fn cross_region(&self, r: &FleetRequestRecord) -> bool {
        self.cell_of(r).is_some_and(|c| c / 2 != self.region_of(r))
    }

    /// Canonical digest — the geo golden determinism contract: the
    /// plane's own [`FleetReport::digest`] (every record, counter and
    /// host field a flat fleet can move, so also every `(user, host)`
    /// the three accessors derive from) folded with what it leaves to
    /// a multi-cell front-end.
    pub fn digest(&self) -> u64 {
        let mut h = ReportHasher::new();
        h.write_u64(self.plane.digest());
        let c = &self.control;
        for v in [
            c.cross_region_routes,
            c.bursts,
            c.wan_request_bytes,
            c.double_admissions,
        ] {
            h.write_u64(v);
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
        h.write_f64(self.summary.p99_response_s);
        for reg in &self.regions {
            h.write_u64(reg.submitted);
            h.write_u64(reg.completed_remote);
            h.write_u64(reg.cross_region);
            h.write_f64(reg.p50_response_s);
            h.write_f64(reg.p99_response_s);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::{ControlStats, HostReport, MigrationRecord, RouteReason};
    use rattrap::Phase;
    use simkit::{SimDuration, SimTime};
    use workloads::WorkloadKind;

    /// A remote completion by `user`, served by host `host`.
    fn record(id: u64, user: u32, host: usize, secs: u64) -> FleetRequestRecord {
        FleetRequestRecord {
            id,
            user,
            kind: WorkloadKind::Ocr,
            arrival: SimTime::from_secs(1),
            finished: SimTime::from_secs(1 + secs),
            phase: Phase::Done,
            fell_back: false,
            host: Some(host),
            attempts: 1,
            rerouted: 0,
            reason: Some(RouteReason::Hash),
        }
    }

    /// Two regions (users 0–1 and 2), one host per cell: host `c` is
    /// cell `c`, so hosts 0–1 are region 0's tiers and 2–3 region 1's.
    fn report(records: Vec<FleetRequestRecord>, migrations: Vec<MigrationRecord>) -> GeoReport {
        let hosts = (0..4)
            .map(|cell| HostReport {
                cell,
                ..HostReport::default()
            })
            .collect();
        let mut plane = FleetReport::summarize(
            records,
            ControlStats::default(),
            hosts,
            SimDuration::from_secs(10),
        );
        plane.migrations = migrations;
        GeoReport::new(plane, [2, 1])
    }

    #[test]
    fn summary_slices_per_region() {
        let rep = report(
            vec![record(0, 0, 0, 2), record(1, 1, 3, 4), record(2, 2, 2, 8)],
            vec![],
        );
        assert_eq!(rep.summary.submitted, 3);
        assert_eq!(rep.regions.len(), 2);
        assert_eq!(rep.regions[0].submitted, 2);
        assert_eq!(rep.regions[1].submitted, 1);
        // User 1 (region 0) was served by region 1's core.
        assert_eq!(rep.regions[0].cross_region, 1);
        assert_eq!(rep.regions[1].cross_region, 0);
        assert_eq!(rep.cell_of(&rep.records[1]), Some(3));
        assert!(rep.regions[1].p99_response_s > rep.regions[0].p99_response_s);
        assert!(rep.summary.p99_response_s >= rep.summary.p95_response_s);
        // Ids past the population fold onto it: user 5 is user 2's region.
        assert_eq!(rep.region_of(&record(9, 5, 0, 1)), 1);
    }

    #[test]
    fn digest_sees_migration_and_admission_evidence() {
        let base = report(
            vec![record(0, 0, 0, 2)],
            vec![MigrationRecord {
                from_host: 0,
                to_host: 1,
                from_cell: 0,
                to_cell: 2,
                bytes_src: 100,
                bytes_wire: 100,
                bytes_dst: 100,
                completed: true,
            }],
        );
        let mut lost = base.clone();
        lost.plane.migrations[0].bytes_dst = 99;
        assert_ne!(base.digest(), lost.digest(), "conservation bytes");
        let mut double = base.clone();
        double.plane.control.double_admissions = 1;
        assert_ne!(base.digest(), double.digest(), "double admission");
        let mut tail = base.clone();
        tail.plane.summary.p99_response_s += 1.0;
        assert_ne!(base.digest(), tail.digest(), "p99");
        let mut region = base.clone();
        region.regions[0].cross_region = 1;
        assert_ne!(base.digest(), region.digest(), "region summary");
        // Placement is derived, not stored: moving the record to a host
        // of the other region flips the accessor and the digest.
        let mut moved = base.clone();
        moved.plane.records[0].host = Some(2);
        assert!(!base.cross_region(&base.records[0]));
        assert!(moved.cross_region(&moved.records[0]));
        assert_ne!(base.digest(), moved.digest(), "serving host");
    }
}
