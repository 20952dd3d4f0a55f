//! Report sinks and canonical digests.
//!
//! The simulation core hands every completed [`RequestRecord`] to a
//! [`RequestSink`]. The default sink materializes the familiar
//! [`SimulationReport`]; streaming sinks (bounded-memory accumulators
//! for large trace replays) consume each record as it completes and
//! never hold the full request vector. The canonical
//! [`SimulationReport::digest`] is the determinism contract: the same
//! scenario and seed must produce the same digest on every run, before
//! and after any engine refactor.

use crate::lifecycle::Phase;
use crate::request::RequestRecord;
use crate::simulation::SimulationReport;
use simkit::SimDuration;
use std::collections::BTreeMap;

/// Consumes completed requests one at a time, in completion order
/// (ties in completion time arrive in engine event order, which is
/// deterministic for a fixed seed).
pub trait RequestSink {
    /// Accept one completed request.
    fn accept(&mut self, record: RequestRecord);
}

/// The default sink: collects every record for a full
/// [`SimulationReport`].
#[derive(Debug, Default)]
pub struct CollectingSink {
    /// Records in completion order.
    pub records: Vec<RequestRecord>,
}

impl RequestSink for CollectingSink {
    fn accept(&mut self, record: RequestRecord) {
        self.records.push(record);
    }
}

/// Splits completions by tenant for multi-tenant (noisy-neighbor)
/// replays: each device belongs to one tenant, and the sink accumulates
/// that tenant's accounting and response times as records stream in.
/// The scenario plane supplies the device → tenant map; this sink has
/// no opinion about how it was drawn.
#[derive(Debug)]
pub struct TenantSplitSink {
    /// Tenant index per device; devices past the end wrap.
    tenant_of: Vec<u32>,
    lanes: Vec<TenantLane>,
}

/// One tenant's accumulated view of a run.
#[derive(Debug, Clone)]
pub struct TenantLane {
    /// Tenant display name.
    pub name: String,
    /// Requests this tenant submitted (every record counts once).
    pub submitted: u64,
    /// Served in the cloud.
    pub completed_remote: u64,
    /// Degraded to on-device execution.
    pub fallback_local: u64,
    /// Abandoned with no response.
    pub abandoned: u64,
    /// Response times, seconds, completion order.
    response_s: Vec<f64>,
}

impl TenantLane {
    /// Mean response time, seconds (0 when the tenant saw no traffic).
    pub fn mean_response_s(&self) -> f64 {
        if self.response_s.is_empty() {
            0.0
        } else {
            self.response_s.iter().sum::<f64>() / self.response_s.len() as f64
        }
    }

    /// p99 response time, seconds (0 when the tenant saw no traffic).
    pub fn p99_response_s(&self) -> f64 {
        if self.response_s.is_empty() {
            return 0.0;
        }
        let mut sorted = self.response_s.clone();
        sorted.sort_by(f64::total_cmp);
        let ix = ((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len());
        sorted[ix - 1]
    }
}

impl TenantSplitSink {
    /// A sink over `names.len()` tenants with `tenant_of[d]` naming
    /// device `d`'s tenant.
    pub fn new(names: &[String], tenant_of: Vec<u32>) -> Self {
        TenantSplitSink {
            tenant_of,
            lanes: names
                .iter()
                .map(|n| TenantLane {
                    name: n.clone(),
                    submitted: 0,
                    completed_remote: 0,
                    fallback_local: 0,
                    abandoned: 0,
                    response_s: Vec::new(),
                })
                .collect(),
        }
    }

    /// The accumulated per-tenant lanes, tenant-index order.
    pub fn tenants(&self) -> &[TenantLane] {
        &self.lanes
    }

    /// Total records accepted across every tenant.
    pub fn total_submitted(&self) -> u64 {
        self.lanes.iter().map(|l| l.submitted).sum()
    }
}

impl RequestSink for TenantSplitSink {
    fn accept(&mut self, record: RequestRecord) {
        if self.lanes.is_empty() {
            return;
        }
        let t = self.tenant_of[(record.device as usize) % self.tenant_of.len().max(1)];
        let n = self.lanes.len();
        let lane = &mut self.lanes[(t as usize) % n];
        lane.submitted += 1;
        if record.abandoned {
            lane.abandoned += 1;
        } else if record.fell_back_local || record.executed_locally {
            lane.fallback_local += 1;
        } else {
            lane.completed_remote += 1;
        }
        lane.response_s.push(record.response_time().as_secs_f64());
    }
}

/// Everything a run produces *besides* the per-request records: the
/// Fig. 2 timelines, cache/access counters and host-resource peaks.
///
/// [`Simulation::run_with_sink`] returns this while streaming the
/// records themselves into a [`RequestSink`], so experiments on very
/// large traces never materialize a `Vec<RequestRecord>`.
///
/// [`Simulation::run_with_sink`]: crate::simulation::Simulation::run_with_sink
#[derive(Debug, Clone)]
pub struct ReportSummary {
    /// CPU utilization per second (fraction of provisioned vCPUs busy).
    pub cpu_timeline: Vec<f64>,
    /// Disk reads, MB/s per second.
    pub io_read_mb_s: Vec<f64>,
    /// Disk writes, MB/s per second.
    pub io_write_mb_s: Vec<f64>,
    /// Code-cache statistics.
    pub warehouse_stats: crate::warehouse::WarehouseStats,
    /// Access-controller filter invocations.
    pub access_checks: u64,
    /// Instances provisioned over the run.
    pub instances_provisioned: u32,
    /// Peak host memory reserved, bytes.
    pub peak_memory_bytes: u64,
    /// Physical disk in use at the end of the run, bytes.
    pub final_disk_bytes: u64,
    /// Peak physical disk over the run, bytes.
    pub peak_disk_bytes: u64,
    /// Simulated instant the last request completed.
    pub finished_at: simkit::SimTime,
    /// Requests delivered to the sink.
    pub completed_requests: u64,
    /// Fault-plane accounting (all zero on fault-free runs).
    pub fault_stats: FaultStats,
}

/// What the fault plane did to a run: how many faults were scheduled
/// and actually hit a request, and how the resilience policy absorbed
/// them. Every field is zero when the fault plan is empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Fault events in the generated plan (including ones that struck
    /// nothing, e.g. an outage while the link was idle).
    pub injected: u64,
    /// Attempt-killing strikes on live requests (a single request can
    /// be struck several times).
    pub strikes: u64,
    /// Retry attempts launched after a strike.
    pub retries: u64,
    /// Requests that degraded gracefully to on-device execution.
    pub fallbacks: u64,
    /// Requests abandoned with no response.
    pub abandoned: u64,
    /// Wall-clock lost to faults across all requests (failed-attempt
    /// dwell + backoff waits; the sum of `phases.fault_recovery`).
    pub time_lost: SimDuration,
    /// Strikes attributed to the lifecycle phase they interrupted.
    pub strikes_by_phase: BTreeMap<Phase, u64>,
}

impl FaultStats {
    /// Record one attempt-killing strike in `phase`.
    pub fn record_strike(&mut self, phase: Phase) {
        self.strikes += 1;
        *self.strikes_by_phase.entry(phase).or_insert(0) += 1;
    }
}

/// Streaming FNV-1a (64-bit) over a canonical byte serialization.
///
/// Not cryptographic — it only needs to make accidental report drift
/// loud, and FNV keeps the golden test free of dependencies.
#[derive(Debug, Clone)]
pub struct ReportHasher {
    state: u64,
}

impl Default for ReportHasher {
    fn default() -> Self {
        ReportHasher {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl ReportHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `f64` bit-exactly.
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

// The canonical digest hashes exactly this field list. The resilience
// fields (`phases.fault_recovery`, `retries`, `fell_back_local`,
// `abandoned`) are deliberately NOT hashed: they are structurally zero
// on fault-free runs, and excluding them keeps the six golden digests
// valid across the fault-plane's introduction. Faulty runs still
// differ through the hashed fields (completion times, bytes, phases).
fn hash_record(h: &mut ReportHasher, r: &RequestRecord) {
    h.write_u64(r.id);
    h.write_u64(r.device as u64);
    h.write(format!("{:?}", r.kind).as_bytes());
    h.write(format!("{:?}", r.scenario).as_bytes());
    h.write_u64(r.seq_on_device as u64);
    h.write_u64(r.arrived_at.as_micros());
    h.write_u64(r.completed_at.as_micros());
    h.write_u64(r.phases.network_connection.as_micros());
    h.write_u64(r.phases.data_transfer.as_micros());
    h.write_u64(r.phases.runtime_preparation.as_micros());
    h.write_u64(r.phases.computation_execution.as_micros());
    h.write_u64(r.upload_bytes);
    h.write_u64(r.code_bytes_sent);
    h.write_u64(r.download_bytes);
    h.write(&[
        r.code_transferred as u8,
        r.cid_affinity_hit as u8,
        r.executed_locally as u8,
    ]);
    h.write_u64(r.local_execution.as_micros());
    h.write_u64(r.upload_time.as_micros());
    h.write_u64(r.download_time.as_micros());
}

impl SimulationReport {
    /// Canonical 64-bit digest over every field of the report:
    /// requests (all fields, µs-exact times), the three per-second
    /// timelines (bit-exact floats), cache/access counters and
    /// host-resource peaks. Two reports share a digest iff they are
    /// observably identical.
    pub fn digest(&self) -> u64 {
        let mut h = ReportHasher::new();
        h.write_u64(self.requests.len() as u64);
        for r in &self.requests {
            hash_record(&mut h, r);
        }
        for series in [&self.cpu_timeline, &self.io_read_mb_s, &self.io_write_mb_s] {
            h.write_u64(series.len() as u64);
            for &v in series.iter() {
                h.write_f64(v);
            }
        }
        h.write_u64(self.warehouse_stats.hits);
        h.write_u64(self.warehouse_stats.misses);
        h.write_u64(self.warehouse_stats.evictions);
        h.write_u64(self.warehouse_stats.bytes_saved);
        h.write_u64(self.access_checks);
        h.write_u64(self.instances_provisioned as u64);
        h.write_u64(self.peak_memory_bytes);
        h.write_u64(self.final_disk_bytes);
        h.write_u64(self.peak_disk_bytes);
        h.write_u64(self.finished_at.as_micros());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        let mut h = ReportHasher::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325, "offset basis");
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h2 = ReportHasher::new();
        h2.write(b"foobar");
        assert_eq!(h2.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn collecting_sink_preserves_order() {
        use crate::request::PhaseBreakdown;
        use simkit::{SimDuration, SimTime};
        let mut sink = CollectingSink::default();
        for id in 0..3u64 {
            sink.accept(RequestRecord {
                id,
                device: 0,
                kind: workloads::WorkloadKind::Ocr,
                scenario: netsim::NetworkScenario::LanWifi,
                seq_on_device: id as u32,
                arrived_at: SimTime::ZERO,
                completed_at: SimTime::from_secs_f64(id as f64),
                phases: PhaseBreakdown::default(),
                upload_bytes: 0,
                code_bytes_sent: 0,
                download_bytes: 0,
                code_transferred: false,
                cid_affinity_hit: false,
                local_execution: SimDuration::ZERO,
                upload_time: SimDuration::ZERO,
                download_time: SimDuration::ZERO,
                executed_locally: false,
                retries: 0,
                fell_back_local: false,
                abandoned: false,
            });
        }
        let ids: Vec<u64> = sink.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
