//! Every invariant in the catalogue fires when a bug is planted for
//! it — the auditor is only trustworthy if each check has been seen
//! catching a real defect. Post-run invariants corrupt a genuine
//! engine report; live invariants feed the observer fabricated
//! transitions; model invariants substitute lying component
//! implementations behind the audit traits.

use exec::{CalEntry, CalibrationMap, HostClass, SizeClass};
use obsv::{SpanId, Subsystem, TraceEvent, TraceSnapshot};
use rattrap::{Phase, PhaseObserver, RequestRecord};
use simcheck::audit::Audit;
use simcheck::invariants::{
    audit_backend_inertness, audit_digest_stability, audit_fleet_report, audit_simulation_report,
    audit_trace, LifecycleAuditor, BACKEND_INERTNESS, BYTE_CONSERVATION, CATALOGUE,
    DIGEST_STABILITY, ENODEV_GATE, EVENT_MONOTONICITY, FLEET_ACCOUNTING,
    GEO_MIGRATION_CONSERVATION, GEO_SINGLE_ADMISSION, LIFECYCLE_MONOTONE, LIFECYCLE_TERMINAL,
    LINK_CONSERVATION, MEMORY_BOUND, SCENARIO_ARRIVAL_CONSERVATION, SPAN_TREE,
    TENANT_ISOLATION_ACCOUNTING, WAREHOUSE_CONSISTENCY, WORK_CONSERVATION,
};
use simcheck::models::{
    audit_code_cache, audit_device_gate, audit_medium, audit_timeline, CodeCache, DevAccess,
    DeviceGate, EngineTimeline, FairLink, KernelGate, Medium, Timeline,
};
use simcheck::sample::Sample;
use simkit::{SimDuration, SimTime};
use workloads::WorkloadKind;

fn fired(audit: &Audit, invariant: &str) -> bool {
    audit.violations().iter().any(|v| v.invariant == invariant)
}

/// A small real rattrap report to corrupt.
fn real_report() -> rattrap::SimulationReport {
    let mut sample = Sample::draw(99, 0);
    sample.fault_pct = 0;
    sample.devices = 2;
    sample.requests_per_device = 2;
    rattrap::run_scenario(sample.scenario_config())
}

/// A small real fleet report to corrupt.
fn real_fleet_report() -> fleet::FleetReport {
    let mut sample = Sample::draw(99, 3);
    sample.fault_pct = 0;
    sample.hosts = 2;
    sample.users = 6;
    sample.duration_s = 240;
    fleet::run_fleet(&sample.fleet_config())
}

/// A real fleet report from a churning run — host crashes at three
/// times the paper rate under an eager rebalancer — so `migrations`
/// holds completed moves and at least one a crash orphaned.
fn real_churning_fleet_report() -> fleet::FleetReport {
    let mut cfg = fleet::FleetConfig::paper_default(4, 12);
    cfg.traffic.users = 24;
    cfg.traffic.duration = SimDuration::from_secs(600);
    cfg.faults = simkit::faults::FaultConfig::scaled(3.0);
    cfg.rebalance.imbalance_threshold = 0.05;
    cfg.rebalance.min_interval = SimDuration::from_secs(10);
    let report = fleet::run_fleet(&cfg);
    assert!(
        report.control.host_crashes > 0,
        "the fault plan crashed hosts"
    );
    assert!(
        report.migrations.iter().any(|m| m.completed)
            && report.migrations.iter().any(|m| !m.completed),
        "the run must complete some moves and orphan others"
    );
    report
}

/// A small real geo report to corrupt, tuned so cross-region
/// migrations actually happen (eager rebalance over two regions).
fn real_geo_report() -> geo::GeoReport {
    let mut cfg = geo::GeoConfig::paper_default(2, 9);
    for r in &mut cfg.regions {
        r.users = 8;
    }
    cfg.traffic.duration = SimDuration::from_secs(600);
    cfg.rebalance.imbalance_threshold = 0.05;
    cfg.rebalance.min_interval = SimDuration::from_secs(10);
    geo::run_geo(&cfg)
}

const DRAM: u64 = 16 * 1024 * 1024 * 1024;

fn record(id: u64) -> RequestRecord {
    RequestRecord {
        id,
        device: 0,
        kind: WorkloadKind::Ocr,
        scenario: netsim::NetworkScenario::LanWifi,
        seq_on_device: 0,
        arrived_at: SimTime::ZERO,
        completed_at: SimTime::from_secs(1),
        phases: Default::default(),
        upload_bytes: 0,
        code_bytes_sent: 0,
        download_bytes: 0,
        code_transferred: false,
        cid_affinity_hit: false,
        local_execution: SimDuration::from_secs(1),
        upload_time: SimDuration::ZERO,
        download_time: SimDuration::ZERO,
        executed_locally: false,
        retries: 0,
        fell_back_local: false,
        abandoned: false,
    }
}

// ---------------------------------------------------------------------
// Live lifecycle invariants
// ---------------------------------------------------------------------

#[test]
fn lifecycle_monotone_fires_on_a_transition_out_of_a_terminal_phase() {
    let auditor = LifecycleAuditor::new();
    let mut obs = auditor.clone();
    let r = record(1);
    let t = |s| SimTime::from_secs(s);
    obs.on_transition(&r, Phase::Compute, Phase::Done, SimDuration::ZERO, t(1));
    obs.on_transition(&r, Phase::Done, Phase::Retrying, SimDuration::ZERO, t(2));
    assert!(fired(&auditor.finish(), LIFECYCLE_MONOTONE));
}

#[test]
fn lifecycle_monotone_fires_on_a_non_chaining_edge_and_a_backwards_clock() {
    let auditor = LifecycleAuditor::new();
    let mut obs = auditor.clone();
    let r = record(2);
    let t = |s| SimTime::from_secs(s);
    obs.on_transition(
        &r,
        Phase::Dispatch,
        Phase::DataTransferUp,
        SimDuration::ZERO,
        t(1),
    );
    // Edge claims to come from Compute, but the request is in
    // DataTransferUp — and time runs backwards while it does so.
    obs.on_transition(
        &r,
        Phase::Compute,
        Phase::OffloadIo,
        SimDuration::ZERO,
        t(0),
    );
    let audit = auditor.finish();
    let monotone: Vec<_> = audit
        .violations()
        .iter()
        .filter(|v| v.invariant == LIFECYCLE_MONOTONE)
        .collect();
    assert!(monotone.len() >= 2, "both defects detected: {monotone:?}");
}

#[test]
fn lifecycle_terminal_fires_on_a_request_stuck_mid_flight() {
    let auditor = LifecycleAuditor::new();
    let mut obs = auditor.clone();
    let r = record(3);
    obs.on_transition(
        &r,
        Phase::Dispatch,
        Phase::Compute,
        SimDuration::ZERO,
        SimTime::from_secs(1),
    );
    assert!(fired(&auditor.finish(), LIFECYCLE_TERMINAL));
}

// ---------------------------------------------------------------------
// Post-run report invariants (corrupt a real report, re-audit)
// ---------------------------------------------------------------------

#[test]
fn work_conservation_fires_when_a_phase_bucket_is_inflated() {
    let mut report = real_report();
    report.requests[0].phases.computation_execution += SimDuration::from_secs(5);
    let mut audit = Audit::new();
    audit_simulation_report(&report, DRAM, &mut audit);
    assert!(fired(&audit, WORK_CONSERVATION));
}

#[test]
fn byte_conservation_fires_on_a_phantom_code_transfer() {
    let mut report = real_report();
    report.requests[0].code_transferred = true;
    report.requests[0].code_bytes_sent = 0;
    let mut audit = Audit::new();
    audit_simulation_report(&report, DRAM, &mut audit);
    assert!(fired(&audit, BYTE_CONSERVATION));
}

#[test]
fn byte_conservation_fires_on_an_affinity_hit_that_still_shipped_code() {
    let mut report = real_report();
    report.requests[0].cid_affinity_hit = true;
    report.requests[0].code_bytes_sent = 1024;
    report.requests[0].code_transferred = true;
    let mut audit = Audit::new();
    audit_simulation_report(&report, DRAM, &mut audit);
    assert!(fired(&audit, BYTE_CONSERVATION));
}

#[test]
fn memory_bound_fires_when_the_host_oversubscribes_dram() {
    let mut report = real_report();
    report.peak_memory_bytes = DRAM + 1;
    let mut audit = Audit::new();
    audit_simulation_report(&report, DRAM, &mut audit);
    assert!(fired(&audit, MEMORY_BOUND));
}

#[test]
fn fleet_accounting_fires_when_a_request_is_lost() {
    let mut report = real_fleet_report();
    assert!(report.summary.submitted > 0, "fleet run served traffic");
    report.summary.submitted += 1;
    let mut audit = Audit::new();
    audit_fleet_report(&report, &mut audit);
    assert!(fired(&audit, FLEET_ACCOUNTING));
}

#[test]
fn fleet_memory_bound_fires_on_an_oversubscribed_host() {
    let mut report = real_fleet_report();
    report.hosts[0].peak_memory = report.hosts[0].memory_bytes + 1;
    let mut audit = Audit::new();
    audit_fleet_report(&report, &mut audit);
    assert!(fired(&audit, MEMORY_BOUND));
}

// ---------------------------------------------------------------------
// Scenario-plane invariants (corrupt a real scenario-striped fleet
// report, re-audit)
// ---------------------------------------------------------------------

/// A small real fleet report carrying a scenario block to corrupt.
fn real_scenario_report() -> fleet::FleetReport {
    let mut sample = Sample::draw(99, 1);
    assert_eq!(sample.kind, simcheck::sample::SampleKind::Scenario);
    sample.fault_pct = 0;
    sample.hosts = 2;
    sample.users = 12;
    sample.duration_s = 600;
    // The noisy-neighbor family carries a tenant split, so both new
    // invariants have material to check.
    sample.scenario_family = 2;
    let report = fleet::run_fleet(&sample.scenario_fleet_config());
    assert!(
        report
            .scenario
            .as_ref()
            .is_some_and(|s| s.tenants.len() > 1),
        "scenario stripe must produce a multi-tenant block"
    );
    report
}

#[test]
fn scenario_arrival_conservation_fires_when_an_injected_event_vanishes() {
    let mut report = real_scenario_report();
    // A clean report passes.
    let mut clean = Audit::new();
    audit_fleet_report(&report, &mut clean);
    assert!(!fired(&clean, SCENARIO_ARRIVAL_CONSERVATION));
    // Lose one injected event: the plan claims more scripted arrivals
    // than the engine ever saw or suppressed.
    report.scenario.as_mut().unwrap().injected += 1;
    let mut audit = Audit::new();
    audit_fleet_report(&report, &mut audit);
    assert!(fired(&audit, SCENARIO_ARRIVAL_CONSERVATION));
}

#[test]
fn tenant_isolation_accounting_fires_on_a_double_billed_tenant() {
    let mut report = real_scenario_report();
    let mut clean = Audit::new();
    audit_fleet_report(&report, &mut clean);
    assert!(!fired(&clean, TENANT_ISOLATION_ACCOUNTING));
    // Bill one request to a second tenant: the per-tenant submissions
    // no longer partition the fleet total.
    let sc = report.scenario.as_mut().unwrap();
    sc.tenants[0].submitted += 1;
    sc.tenants[0].completed_remote += 1;
    let mut audit = Audit::new();
    audit_fleet_report(&report, &mut audit);
    assert!(fired(&audit, TENANT_ISOLATION_ACCOUNTING));
}

#[test]
fn tenant_isolation_accounting_fires_when_a_tenant_breakdown_leaks() {
    let mut report = real_scenario_report();
    // Keep the cross-tenant total intact but move one billed request
    // between tenants without its terminal outcome: both tenants'
    // internal splits now disagree with their submissions.
    let sc = report.scenario.as_mut().unwrap();
    assert!(sc.tenants[1].submitted > 0, "tenant 1 saw traffic");
    sc.tenants[0].submitted += 1;
    sc.tenants[1].submitted -= 1;
    let mut audit = Audit::new();
    audit_fleet_report(&report, &mut audit);
    assert!(fired(&audit, TENANT_ISOLATION_ACCOUNTING));
}

// ---------------------------------------------------------------------
// Migration-conservation and single-admission invariants: properties
// of the shared control plane, so each bug is planted on a crash-fault
// fleet report and on a multi-region report.
// ---------------------------------------------------------------------

fn plane_reports() -> [fleet::FleetReport; 2] {
    [real_churning_fleet_report(), real_geo_report().plane]
}

/// `invariant` fires on both plane reports once `corrupt` has run.
fn fires_on_both(invariant: &str, corrupt: impl Fn(&mut fleet::FleetReport)) {
    for mut report in plane_reports() {
        corrupt(&mut report);
        let mut audit = Audit::new();
        audit_fleet_report(&report, &mut audit);
        assert!(fired(&audit, invariant));
    }
}

#[test]
fn geo_report_is_clean_before_corruption() {
    for report in plane_reports() {
        assert!(
            !report.migrations.is_empty(),
            "scenario must migrate for the planted bugs to mean anything"
        );
        let mut audit = Audit::new();
        audit_fleet_report(&report, &mut audit);
        assert!(
            audit.is_clean(),
            "real report failed its own audit:\n{}",
            audit
                .violations()
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn geo_migration_conservation_fires_when_state_is_lost_in_flight() {
    // The destination restores fewer bytes than the source serialized
    // — state silently truncated somewhere across the fabric.
    fires_on_both(GEO_MIGRATION_CONSERVATION, |report| {
        let m = report.migrations.iter_mut().find(|m| m.completed);
        let m = m.expect("some move completed");
        m.bytes_dst = m.bytes_src / 2;
    });
}

#[test]
fn geo_migration_conservation_fires_when_the_fabric_is_undercharged() {
    // The fabric carried fewer bytes than the checkpoint holds — a
    // free lunch on the shared link.
    fires_on_both(GEO_MIGRATION_CONSERVATION, |report| {
        report.migrations[0].bytes_wire = report.migrations[0].bytes_src - 1;
    });
}

#[test]
fn geo_single_admission_fires_on_a_double_admitted_spillover() {
    fires_on_both(GEO_SINGLE_ADMISSION, |report| {
        report.control.double_admissions = 1;
    });
}

#[test]
fn geo_single_admission_fires_on_a_completion_with_no_placement() {
    fires_on_both(GEO_SINGLE_ADMISSION, |report| {
        let victim = report.records.iter_mut().find(|r| r.remote());
        victim.expect("some request completed remotely").host = None;
    });
}

// ---------------------------------------------------------------------
// Trace invariant (hand-built snapshot)
// ---------------------------------------------------------------------

#[test]
fn span_tree_fires_on_unclosed_orphaned_and_inverted_spans() {
    let snap = TraceSnapshot {
        events: vec![
            TraceEvent::Begin {
                id: SpanId(1),
                parent: SpanId::NONE,
                subsystem: Subsystem::Rattrap,
                name: "request",
                at_us: 10,
                attrs: obsv::Attrs::new(),
            },
            // Child of a span that never opened.
            TraceEvent::Begin {
                id: SpanId(2),
                parent: SpanId(7),
                subsystem: Subsystem::Netsim,
                name: "transfer",
                at_us: 20,
                attrs: obsv::Attrs::new(),
            },
            // Ends before it began.
            TraceEvent::End {
                id: SpanId(2),
                at_us: 5,
                attrs: obsv::Attrs::new(),
            },
            // Span 1 never closes.
        ],
        ..TraceSnapshot::default()
    };
    let mut audit = Audit::new();
    audit_trace(&snap, &mut audit);
    let span_bugs = audit
        .violations()
        .iter()
        .filter(|v| v.invariant == SPAN_TREE)
        .count();
    assert!(span_bugs >= 3, "orphan + inversion + unclosed all caught");
}

#[test]
fn span_tree_stays_quiet_on_a_real_traced_run() {
    let mut sample = Sample::draw(99, 1);
    sample.traced = true;
    sample.fault_pct = 0;
    let outcome = simcheck::run_sample(&sample);
    assert!(outcome.is_clean());
    assert!(outcome.trace.is_some());
}

// ---------------------------------------------------------------------
// Digest stability
// ---------------------------------------------------------------------

#[test]
fn digest_stability_fires_on_divergent_same_seed_digests() {
    let mut audit = Audit::new();
    audit_digest_stability("planted", &[1, 1, 2], &mut audit);
    assert!(fired(&audit, DIGEST_STABILITY));
    let mut clean = Audit::new();
    audit_digest_stability("planted", &[1, 1, 1], &mut clean);
    assert!(clean.is_clean());
}

// ---------------------------------------------------------------------
// Calibration inertness
// ---------------------------------------------------------------------

#[test]
fn backend_inertness_fires_on_a_unit_map_one_ulp_off() {
    let mut sample = Sample::draw(99, 0);
    sample.fault_pct = 0;
    sample.devices = 2;
    sample.requests_per_device = 2;
    let cfg = sample.scenario_config();
    let default = rattrap::run_scenario(cfg.clone()).digest();
    let run = |calibration: &CalibrationMap| {
        rattrap::run_scenario(rattrap::ScenarioConfig {
            calibration: calibration.clone(),
            ..cfg.clone()
        })
        .digest()
    };
    let cell = |ratio| CalEntry {
        ratio,
        wall_micros: 0,
        samples: 1,
    };
    let unit = simcheck::harness::unit_calibration();
    let mut clean = Audit::new();
    audit_backend_inertness("unit", &unit, default, run(&unit), &mut clean);
    assert!(clean.is_clean());

    // One exact cell one ulp above 1.0.
    let mut planted = unit.clone();
    let key = CalibrationMap::key(cfg.workload, SizeClass::Medium, HostClass::PAPER_SERVER);
    planted.insert(key, cell(1.0 + f64::EPSILON));
    let mut audit = Audit::new();
    audit_backend_inertness("planted", &planted, default, run(&planted), &mut audit);
    assert!(fired(&audit, BACKEND_INERTNESS));

    // A ratio that moves the run fires through the digest as well.
    let mut doubled = CalibrationMap::identity();
    doubled.default_ratio = 2.0;
    let mut audit = Audit::new();
    audit_backend_inertness("doubled", &doubled, default, run(&doubled), &mut audit);
    assert!(audit
        .violations()
        .iter()
        .any(|v| v.detail.contains("digest")));
}

// ---------------------------------------------------------------------
// Model invariants (lying implementations behind the audit traits)
// ---------------------------------------------------------------------

/// A link that silently drops a third of the reversed bytes on
/// interrupt — the classic lost-accounting bug.
struct LeakyLink(FairLink);

impl Medium for LeakyLink {
    fn begin(&mut self, now: SimTime, bytes: u64, tag: u32) {
        self.0.begin(now, bytes, tag)
    }
    fn interrupt(&mut self, now: SimTime, tag: u32) -> Option<f64> {
        self.0.interrupt(now, tag).map(|r| r * 0.66)
    }
    fn drain(&mut self) -> Vec<(SimTime, u32)> {
        self.0.drain()
    }
}

#[test]
fn link_conservation_fires_on_a_link_that_leaks_reversed_bytes() {
    let mut audit = Audit::new();
    audit_medium(|c| LeakyLink(FairLink::new(c)), 0xA1, 4, &mut audit);
    assert!(fired(&audit, LINK_CONSERVATION));
}

/// A kernel that keeps answering on device nodes after rmmod.
struct GhostDriverKernel(KernelGate);

impl DeviceGate for GhostDriverKernel {
    fn load(&mut self, module: &'static str) {
        self.0.load(module)
    }
    fn unload(&mut self, module: &'static str) -> bool {
        self.0.unload(module)
    }
    fn loaded(&self, module: &'static str) -> bool {
        self.0.loaded(module)
    }
    fn touch(&mut self, module: &'static str) -> DevAccess {
        // The planted bug: never report ENODEV.
        match self.0.touch(module) {
            DevAccess::Enodev => DevAccess::Granted,
            other => other,
        }
    }
}

#[test]
fn enodev_gate_fires_on_a_driver_that_survives_rmmod() {
    let mut audit = Audit::new();
    audit_device_gate(
        &mut GhostDriverKernel(KernelGate::new()),
        0xB2,
        200,
        &mut audit,
    );
    assert!(fired(&audit, ENODEV_GATE));
}

/// A warehouse that forgets to drop CID hints when a container dies.
struct StaleHintCache {
    inner: rattrap::AppWarehouse,
}

impl CodeCache for StaleHintCache {
    fn lookup(&mut self, aid: &rattrap::Aid) -> bool {
        CodeCache::lookup(&mut self.inner, aid)
    }
    fn insert(&mut self, aid: rattrap::Aid, app_id: &str, code_bytes: u64) {
        CodeCache::insert(&mut self.inner, aid, app_id, code_bytes)
    }
    fn note_loaded(&mut self, aid: &rattrap::Aid, container: virt::InstanceId) {
        CodeCache::note_loaded(&mut self.inner, aid, container)
    }
    fn invalidate(&mut self, _container: virt::InstanceId) {
        // The planted bug: teardown never reaches the hint table.
    }
    fn containers_with(&self, aid: &rattrap::Aid) -> Vec<virt::InstanceId> {
        CodeCache::containers_with(&self.inner, aid)
    }
    fn stats(&self) -> (u64, u64, u64) {
        CodeCache::stats(&self.inner)
    }
}

#[test]
fn warehouse_consistency_fires_on_stale_cid_hints() {
    let mut audit = Audit::new();
    audit_code_cache(
        &mut StaleHintCache {
            inner: rattrap::AppWarehouse::new(64 * 1024 * 1024),
        },
        0xC3,
        400,
        &mut audit,
    );
    assert!(fired(&audit, WAREHOUSE_CONSISTENCY));
}

/// A queue that lets cancelled events fire anyway.
#[derive(Default)]
struct ZombieTimeline {
    inner: EngineTimeline,
}

impl Timeline for ZombieTimeline {
    fn schedule(&mut self, at: SimTime, tag: u32) -> u64 {
        self.inner.schedule(at, tag)
    }
    fn cancel(&mut self, _id: u64) -> bool {
        // The planted bug: claim success, remove nothing.
        true
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.inner.pop()
    }
}

#[test]
fn event_monotonicity_fires_when_cancelled_events_still_pop() {
    let mut audit = Audit::new();
    audit_timeline(&mut ZombieTimeline::default(), 0xD4, 64, &mut audit);
    assert!(fired(&audit, EVENT_MONOTONICITY));
}

/// A timeline that pops ties in reverse scheduling order (the slot
/// generation bug the BTreeSet fix in simkit guards against).
struct LifoTiesTimeline {
    events: Vec<(SimTime, u32, bool)>, // (at, tag, cancelled)
}

impl Timeline for LifoTiesTimeline {
    fn schedule(&mut self, at: SimTime, tag: u32) -> u64 {
        self.events.push((at, tag, false));
        self.events.len() as u64 - 1
    }
    fn cancel(&mut self, id: u64) -> bool {
        let slot = &mut self.events[id as usize];
        let was_live = !slot.2;
        slot.2 = true;
        was_live
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        // Min time, but LAST insertion among ties — LIFO, not FIFO.
        let (idx, _) = self
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.2)
            .max_by(|(ai, a), (bi, b)| b.0.cmp(&a.0).then(ai.cmp(bi)))?;
        // Tombstone rather than remove: handles are positional and must
        // stay valid for cancels that arrive after pops.
        let (at, tag, _) = self.events[idx];
        self.events[idx].2 = true;
        Some((at, tag))
    }
}

#[test]
fn event_monotonicity_fires_on_lifo_tie_breaking() {
    let mut audit = Audit::new();
    audit_timeline(
        &mut LifoTiesTimeline { events: Vec::new() },
        0xE5,
        64,
        &mut audit,
    );
    assert!(fired(&audit, EVENT_MONOTONICITY));
}

// ---------------------------------------------------------------------
// Coverage: the full catalogue is exercised by this suite plus the
// harness' clean-run audits.
// ---------------------------------------------------------------------

#[test]
fn every_catalogue_invariant_is_exercised() {
    // The planted bugs above prove each auditor can fire. This test
    // proves the clean pipeline *evaluates* every invariant, so a
    // passing exploration genuinely vouches for the whole catalogue.
    let mut checked: std::collections::BTreeSet<&'static str> = std::collections::BTreeSet::new();
    checked.extend(simcheck::run_model_audits(0xF00D).invariants_checked());
    let mut sample = Sample::draw(99, 2);
    sample.traced = true;
    let outcome = simcheck::run_sample(&sample);
    checked.extend(outcome.audit.invariants_checked());
    let mut fleet_sample = Sample::draw(99, 3);
    fleet_sample.traced = true;
    fleet_sample.users = 6;
    fleet_sample.duration_s = 240;
    let fleet_outcome = simcheck::run_sample(&fleet_sample);
    checked.extend(fleet_outcome.audit.invariants_checked());
    let mut geo_sample = Sample::draw(99, 5);
    geo_sample.traced = true;
    geo_sample.users = 8;
    geo_sample.duration_s = 240;
    let geo_outcome = simcheck::run_sample(&geo_sample);
    checked.extend(geo_outcome.audit.invariants_checked());
    let mut scenario_sample = Sample::draw(99, 1);
    scenario_sample.traced = true;
    scenario_sample.users = 8;
    scenario_sample.duration_s = 240;
    let scenario_outcome = simcheck::run_sample(&scenario_sample);
    checked.extend(scenario_outcome.audit.invariants_checked());
    for inv in CATALOGUE {
        assert!(checked.contains(inv), "`{inv}` never evaluated");
    }
}
