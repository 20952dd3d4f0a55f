//! The benchmark's contract: workload names, metric names, units and
//! directions. `BENCHMARK.json` at the repo root states the same
//! tables (plus the regression bounds); a unit test keeps the two
//! identical, so a later issue can refer to any name here.

/// Seconds one run measures when `--seconds` is absent — the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// Seed used when `--seed` is absent; the simulator workloads pin
/// their report digests for this seed.
pub const DEFAULT_SEED: u64 = 7;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    ServeConnect,
    ServeSession,
    ServeHeavy,
    FleetDense,
    FleetLong,
    PaperReplay,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ServeConnect,
        Workload::ServeSession,
        Workload::ServeHeavy,
        Workload::FleetDense,
        Workload::FleetLong,
        Workload::PaperReplay,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Workload::ServeConnect => "serve_connect",
            Workload::ServeSession => "serve_session",
            Workload::ServeHeavy => "serve_heavy",
            Workload::FleetDense => "fleet_dense",
            Workload::FleetLong => "fleet_long",
            Workload::PaperReplay => "paper_replay",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Name, unit and direction (`true` = higher is better) of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
    }
}

/// End-to-end metrics: every workload reports every one of them from
/// its untraced run.
pub const END_TO_END: [MetricDef; 5] = [
    m("req_per_s", "1/s", true),
    m("latency_p50_ms", "ms", false),
    m("latency_p99_ms", "ms", false),
    m("peak_rss_mb", "MB", false),
    m("setup_s", "s", false),
];

/// Per-layer metrics, reported by the traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [MetricDef; 65] = [
    // -- serve workloads: spans and response fields ------------------
    m("exec.serve.connect_us.p50", "us", false),
    m("exec.serve.wire_us.p50", "us", false),
    m("exec.serve.wire_us.p99", "us", false),
    m("fleet.handler.queue_us.mean", "us", false),
    m("fleet.handler.queue_us.p99", "us", false),
    m("exec.kernel.exec_us.mean", "us", false),
    m("exec.pool.busy_share", "share", true),
    m("fleet.handler.host_share_max", "share", false),
    m("exec.serve.requests", "count", true),
    m("exec.serve.connections", "count", false),
    m("exec.serve.failed", "count", false),
    m("fleet.handler.routes_affinity", "count", true),
    m("fleet.handler.routes_hash", "count", false),
    m("fleet.handler.routes_spill", "count", false),
    // -- serve workloads: direct probes -------------------------------
    m("exec.serve.codec_ns", "ns", false),
    m("obsv.json.parse_ns", "ns", false),
    m("exec.pool.handoff_us", "us", false),
    // -- every workload: the traced run's own end-to-end figures ------
    m("traced.req_per_s", "1/s", true),
    m("traced.latency_p50_ms", "ms", false),
    // -- simulator workloads: exact counts ----------------------------
    m("obsv.trace_overhead_ratio", "ratio", false),
    m("fleet.requests", "count", true),
    m("fleet.remote", "count", true),
    m("fleet.shed", "count", false),
    m("fleet.routes_affinity", "count", true),
    m("fleet.routes_hash", "count", false),
    m("fleet.routes_spill", "count", false),
    m("fleet.migrations", "count", false),
    m("virt.provisions", "count", false),
    m("virt.load_apps", "count", false),
    m("containerfs.union_mounts", "count", false),
    m("rattrap.requests", "count", true),
    m("rattrap.provisions", "count", false),
    m("rattrap.warehouse_hits", "count", true),
    m("rattrap.warehouse_misses", "count", false),
    m("rattrap.sim_share_connect", "share", false),
    m("rattrap.sim_share_transfer", "share", false),
    m("rattrap.sim_share_prepare", "share", false),
    m("rattrap.sim_share_compute", "share", true),
    // -- simulator workloads: host time per operation (probes) --------
    m("fleet.router.route_us.miss", "us", false),
    m("fleet.router.route_us.warm", "us", false),
    m("fleet.admission.admit_ns", "ns", false),
    m("simkit.queue.cycle_ns.r512", "ns", false),
    m("simkit.queue.cycle_ns.r64k", "ns", false),
    m("simkit.executor.job_ns.c8", "ns", false),
    m("simkit.executor.job_ns.c512", "ns", false),
    m("netsim.link.transfer_ns.c8", "ns", false),
    m("netsim.link.transfer_ns.c512", "ns", false),
    m("netsim.link.price_ns", "ns", false),
    m("simkit.shard.lp_window_ns", "ns", false),
    m("virt.provision_us.cac_opt", "us", false),
    m("virt.provision_us.cac", "us", false),
    m("virt.provision_us.vm", "us", false),
    m("virt.load_app_us", "us", false),
    m("hostkernel.insmod_us", "us", false),
    m("hostkernel.binder_txn_ns", "ns", false),
    m("containerfs.mount_us", "us", false),
    m("traces.generate_ns_per_request", "ns", false),
    m("workloads.sample_ns", "ns", false),
    m("fleet.report.digest_ns_per_record", "ns", false),
    m("rattrap.report.digest_ns_per_record", "ns", false),
    // -- simulator workloads: count x unit cost / untraced wall -------
    m("attrib.fleet.router_share", "share", false),
    m("attrib.simkit.queue_share", "share", false),
    m("attrib.simkit.shard_share", "share", false),
    m("attrib.virt_share", "share", false),
    m("attrib.unexplained_share", "share", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use obsv::json::{self, Value};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing string {key}"))
    }

    fn check_table(json_key: &str, defs: &[MetricDef], doc: &Value) {
        let rows = doc.get(json_key).and_then(Value::as_array).expect(json_key);
        assert_eq!(rows.len(), defs.len(), "{json_key}: row count");
        for (row, def) in rows.iter().zip(defs) {
            assert_eq!(str_of(row, "name"), def.name);
            assert_eq!(str_of(row, "unit"), def.unit, "{}", def.name);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(str_of(row, "better"), better, "{}", def.name);
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|d| d.name))
            .chain(PER_LAYER.iter().map(|d| d.name));
        for name in names {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
    }

    #[test]
    fn tables_match_benchmark_json_exactly() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        check_table("end_to_end", &END_TO_END, &doc);
        check_table("per_layer", &PER_LAYER, &doc);

        let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);

        let secs = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert_eq!(secs as u64, RUN_SECONDS);

        for row in doc.get("end_to_end").and_then(Value::as_array).unwrap() {
            let bound = row.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", str_of(row, "name"));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
