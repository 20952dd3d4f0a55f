//! Fault accounting and the canonical report digest.
//!
//! The canonical [`SimulationReport::digest`] is the determinism
//! contract: the same scenario and seed must produce the same digest on
//! every run, before and after any engine refactor.

use crate::lifecycle::Phase;
use crate::request::RequestRecord;
use crate::simulation::SimulationReport;
use simkit::SimDuration;
use std::collections::BTreeMap;

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

/// The hasher every report digest folds into: [`simkit::Fnv1a`], under
/// the name the goldens and the benchmark's folds use.
pub use simkit::Fnv1a as ReportHasher;

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
