//! Per-request lifecycle state machine.
//!
//! Every offloading request moves through an explicit sequence of
//! phases mirroring the paper's §III-B decomposition of an offloading
//! request: dispatch, data upload, runtime preparation (boot wait +
//! queueing), mobile-code loading, computation on the shared CPU,
//! offloading I/O, and result download. [`RequestLifecycle`] owns one
//! request's [`RequestRecord`] plus its in-flight engine state and
//! performs every phase transition through [`RequestLifecycle::advance`],
//! which charges the time spent in the departed phase to the correct
//! §III-B bucket. The charging rules live here — in one match — instead
//! of being scattered across event handlers:
//!
//! | phase left                  | charged to               |
//! |-----------------------------|--------------------------|
//! | `RuntimePrep`, `CodeLoad`   | runtime preparation      |
//! | `Compute`, `OffloadIo`      | computation execution    |
//! | transfers, dispatch, local  | — (charged up front from the link model) |
//!
//! [`PhaseObserver`]s hook every transition — the simulation invokes
//! them with the request's record, the edge taken, and the dwell time,
//! enabling Fig. 2-style per-phase timelines or custom instrumentation
//! without touching the engine.

use crate::request::RequestRecord;
use simkit::{JobId, SimDuration, SimTime};
use virt::InstanceId;
use workloads::TaskRequest;

/// The phases of an offloading request's lifetime, in nominal order.
///
/// `DataTransferUp`, `DataTransferDown` and `LocalExecution` charge
/// their duration up front (the link/device model prices them at entry);
/// the four server-side phases charge on exit via [`RequestLifecycle::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Admission + placement decision (instantaneous in the engine).
    Dispatch,
    /// Connection + payload/code upload in flight.
    DataTransferUp,
    /// Waiting for the runtime: boot wait plus queueing for the
    /// instance. Charged to *runtime preparation*.
    RuntimePrep,
    /// Loading mobile code into the runtime. Charged to *runtime
    /// preparation*.
    CodeLoad,
    /// Executing on the fair-shared server CPU. Charged to
    /// *computation execution*.
    Compute,
    /// Offloading I/O (disk or shared in-memory layer). Charged to
    /// *computation execution* (§VI-C discusses it under computation).
    OffloadIo,
    /// Result download in flight.
    DataTransferDown,
    /// Executing locally on the device (adaptive offloading declined
    /// the cloud).
    LocalExecution,
    /// A fault killed the current attempt; the request is waiting out
    /// its backoff before retrying. The failed attempt's wall-clock
    /// and the backoff dwell are charged to *fault recovery*.
    Retrying,
    /// The retry budget is exhausted; the resilience policy degraded
    /// gracefully and the task is finishing on the device's own CPU.
    FallbackLocal,
    /// Response delivered.
    Done,
    /// Aborted without a response. No engine path produces this today
    /// (teardown races re-provision instead); observers and external
    /// drivers may still use it as a terminal marker.
    Failed,
    /// The retry budget is exhausted and the policy allows no local
    /// fallback: the request terminates without a response.
    Abandoned,
}

/// Which §III-B bucket a phase's dwell time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    RuntimePreparation,
    ComputationExecution,
    FaultRecovery,
    /// Already priced at phase entry (link/device model) or free.
    None,
}

impl Phase {
    /// Terminal phases accept no further transitions.
    pub fn is_terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Failed | Phase::Abandoned)
    }

    /// Stable lowercase name, used as the span name in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::DataTransferUp => "upload",
            Phase::RuntimePrep => "runtime_prep",
            Phase::CodeLoad => "code_load",
            Phase::Compute => "compute",
            Phase::OffloadIo => "offload_io",
            Phase::DataTransferDown => "download",
            Phase::LocalExecution => "local_execution",
            Phase::Retrying => "retrying",
            Phase::FallbackLocal => "fallback_local",
            Phase::Done => "done",
            Phase::Failed => "failed",
            Phase::Abandoned => "abandoned",
        }
    }

    fn bucket(self) -> Bucket {
        match self {
            Phase::RuntimePrep | Phase::CodeLoad => Bucket::RuntimePreparation,
            Phase::Compute | Phase::OffloadIo => Bucket::ComputationExecution,
            Phase::Retrying => Bucket::FaultRecovery,
            Phase::Dispatch
            | Phase::DataTransferUp
            | Phase::DataTransferDown
            | Phase::LocalExecution
            | Phase::FallbackLocal
            | Phase::Done
            | Phase::Failed
            | Phase::Abandoned => Bucket::None,
        }
    }
}

/// Hook invoked on every phase transition of every request.
///
/// Observers receive the record *after* the dwell time was charged, so
/// `record.phases` is consistent with the edge being reported.
pub trait PhaseObserver {
    /// `record` moved `from → to` at `now`, having spent `dwell` in
    /// `from`.
    fn on_transition(
        &mut self,
        record: &RequestRecord,
        from: Phase,
        to: Phase,
        dwell: SimDuration,
        now: SimTime,
    );
}

/// Where a retry resumes after a fault killed the previous attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeStage {
    /// Restart the offload from placement + upload, still owing
    /// `bytes` on the wire (the un-transferred remainder, or the full
    /// payload when nothing made it across).
    Upload {
        /// Bytes the retry must move up.
        bytes: u64,
    },
    /// The server side already finished; only the result download of
    /// `bytes` remains.
    Download {
        /// Bytes the retry must move down.
        bytes: u64,
    },
}

/// One request's full in-flight state: its accumulating record, the
/// sampled task, where it is placed, which executor jobs it holds, and
/// the phase machine driving the §III-B accounting.
#[derive(Debug)]
pub struct RequestLifecycle {
    /// The record being accumulated (copied into the report at a terminal phase).
    pub record: RequestRecord,
    /// The sampled task parameters.
    pub task: TaskRequest,
    /// Placement, if any (local execution has none).
    pub instance: Option<InstanceId>,
    /// Outstanding job on the server CPU executor.
    pub cpu_job: Option<JobId>,
    /// Outstanding job on the offloading-disk executor.
    pub disk_job: Option<JobId>,
    /// Code bytes still to be loaded into the runtime (0 = resident).
    pub code_to_load: u64,
    /// Fault-retry attempts consumed so far.
    pub attempts: u32,
    /// Where the next retry resumes (set while in [`Phase::Retrying`]).
    pub resume: Option<ResumeStage>,
    /// Connect time charged up front for the in-flight transfer;
    /// reversed if a timeout kills the attempt before it lands.
    pub upfront_connect: SimDuration,
    /// Transfer duration charged up front for the in-flight transfer;
    /// reversed if a timeout kills the attempt before it lands.
    pub upfront_transfer: SimDuration,
    phase: Phase,
    phase_started: SimTime,
}

impl RequestLifecycle {
    /// A lifecycle beginning in [`Phase::Dispatch`] at `now`.
    pub fn new(record: RequestRecord, task: TaskRequest, now: SimTime) -> Self {
        RequestLifecycle {
            record,
            task,
            instance: None,
            cpu_job: None,
            disk_job: None,
            code_to_load: 0,
            attempts: 0,
            resume: None,
            upfront_connect: SimDuration::ZERO,
            upfront_transfer: SimDuration::ZERO,
            phase: Phase::Dispatch,
            phase_started: now,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// When the current phase was entered.
    pub fn phase_started(&self) -> SimTime {
        self.phase_started
    }

    /// Move to `next` at `now`, charging the dwell time in the current
    /// phase to its §III-B bucket. Entering [`Phase::Retrying`]
    /// redirects the departed phase's dwell to *fault recovery* — the
    /// attempt produced nothing, so its wall-clock is fault loss, not
    /// useful phase time (transfer phases additionally reverse their
    /// up-front charges at the call site). Entering [`Phase::Done`] or
    /// [`Phase::Abandoned`] stamps `record.completed_at`. Returns
    /// `(departed phase, dwell)` for observer dispatch.
    ///
    /// # Panics
    /// Panics (debug builds) when advancing out of a terminal phase —
    /// that is always an engine bug.
    pub fn advance(&mut self, now: SimTime, next: Phase) -> (Phase, SimDuration) {
        debug_assert!(
            !self.phase.is_terminal(),
            "advance out of terminal {:?}",
            self.phase
        );
        let dwell = now.saturating_since(self.phase_started);
        let bucket = if next == Phase::Retrying {
            Bucket::FaultRecovery
        } else {
            self.phase.bucket()
        };
        match bucket {
            Bucket::RuntimePreparation => self.record.phases.runtime_preparation += dwell,
            Bucket::ComputationExecution => self.record.phases.computation_execution += dwell,
            Bucket::FaultRecovery => self.record.phases.fault_recovery += dwell,
            Bucket::None => {}
        }
        let from = std::mem::replace(&mut self.phase, next);
        self.phase_started = now;
        if next == Phase::Done || next == Phase::Abandoned {
            self.record.completed_at = now;
        }
        (from, dwell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PhaseBreakdown;
    use netsim::NetworkScenario;
    use workloads::WorkloadKind;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn lifecycle() -> RequestLifecycle {
        let record = RequestRecord {
            id: 1,
            device: 0,
            kind: WorkloadKind::Ocr,
            scenario: NetworkScenario::LanWifi,
            seq_on_device: 0,
            arrived_at: SimTime::ZERO,
            completed_at: SimTime::ZERO,
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
        };
        let task = WorkloadKind::Ocr
            .profile()
            .sample(&mut simkit::SimRng::new(1));
        RequestLifecycle::new(record, task, SimTime::ZERO)
    }

    #[test]
    fn charges_land_in_the_right_buckets() {
        let mut rl = lifecycle();
        rl.advance(SimTime::ZERO, Phase::DataTransferUp);
        rl.advance(t(2.0), Phase::RuntimePrep); // upload dwell: uncharged
        rl.advance(t(5.0), Phase::CodeLoad); // 3 s waiting
        rl.advance(t(6.0), Phase::Compute); // 1 s loading
        rl.advance(t(10.0), Phase::OffloadIo); // 4 s computing
        rl.advance(t(11.5), Phase::DataTransferDown); // 1.5 s I/O
        rl.advance(t(12.0), Phase::Done);
        assert_eq!(
            rl.record.phases.runtime_preparation,
            SimDuration::from_secs(4)
        );
        assert_eq!(
            rl.record.phases.computation_execution,
            SimDuration::from_millis(5500)
        );
        assert_eq!(rl.record.completed_at, t(12.0));
        assert!(rl.phase().is_terminal());
    }

    #[test]
    fn zero_dwell_transitions_charge_nothing() {
        let mut rl = lifecycle();
        rl.advance(SimTime::ZERO, Phase::DataTransferUp);
        rl.advance(t(1.0), Phase::RuntimePrep);
        rl.advance(t(1.0), Phase::CodeLoad); // immediate service
        rl.advance(t(1.0), Phase::Compute); // resident code
        assert_eq!(rl.record.phases.runtime_preparation, SimDuration::ZERO);
    }

    #[test]
    fn local_execution_charges_no_server_phase() {
        let mut rl = lifecycle();
        rl.advance(SimTime::ZERO, Phase::LocalExecution);
        rl.advance(t(3.0), Phase::Done);
        assert_eq!(rl.record.phases.total(), SimDuration::ZERO);
        assert_eq!(rl.record.completed_at, t(3.0));
    }

    #[test]
    fn fault_redirects_dwell_to_fault_recovery() {
        let mut rl = lifecycle();
        rl.advance(SimTime::ZERO, Phase::DataTransferUp);
        rl.advance(t(2.0), Phase::RuntimePrep);
        rl.advance(t(3.0), Phase::Compute); // 1 s prep, charged normally
                                            // A crash at t=7 kills the attempt: the 4 s of computation are
                                            // fault loss, not useful execution.
        rl.advance(t(7.0), Phase::Retrying);
        assert_eq!(rl.record.phases.computation_execution, SimDuration::ZERO);
        assert_eq!(rl.record.phases.fault_recovery, SimDuration::from_secs(4));
        assert_eq!(
            rl.record.phases.runtime_preparation,
            SimDuration::from_secs(1),
            "pre-fault phases keep their charges"
        );
        // 2 s of backoff dwell also lands in fault recovery.
        rl.advance(t(9.0), Phase::DataTransferUp);
        assert_eq!(rl.record.phases.fault_recovery, SimDuration::from_secs(6));
    }

    #[test]
    fn abandonment_is_terminal_and_stamps_completion() {
        let mut rl = lifecycle();
        rl.advance(SimTime::ZERO, Phase::DataTransferUp);
        rl.advance(t(1.0), Phase::Retrying);
        rl.advance(t(2.0), Phase::Abandoned);
        assert!(rl.phase().is_terminal());
        assert_eq!(rl.record.completed_at, t(2.0));
        assert_eq!(rl.record.phases.fault_recovery, SimDuration::from_secs(2));
    }

    #[test]
    fn observers_see_every_edge_with_dwell() {
        let mut rl = lifecycle();
        let mut edges = Vec::new();
        for (at, next) in [
            (0.0, Phase::DataTransferUp),
            (2.0, Phase::RuntimePrep),
            (5.0, Phase::CodeLoad),
            (5.5, Phase::Compute),
            (9.0, Phase::OffloadIo),
            (9.0, Phase::DataTransferDown),
            (9.5, Phase::Done),
        ] {
            let (from, dwell) = rl.advance(t(at), next);
            edges.push((rl.record.id, from, next, dwell));
        }
        assert_eq!(edges.len(), 7);
        assert_eq!(edges[1].1, Phase::DataTransferUp);
        assert_eq!(edges[1].3, SimDuration::from_secs(2));
        assert_eq!(edges.last().unwrap().2, Phase::Done);
        assert!(edges.iter().all(|e| e.0 == 1));
    }
}
