//! The calibration map: recorded real/modeled ratios replayed as
//! deterministic compute prices.
//!
//! A [`CalibrationMap`] holds one [`CalEntry`] per
//! `"kind/size/host"` key — the real/modeled ratio a drift sweep
//! measured ([`crate::drift::calibration_from_rows`]). An engine
//! resolves it once per [`HostClass`] into a [`CalibrationTable`] and
//! prices every request's compute phase as `modeled × ratio`: a pure
//! function of the config, so calibrated runs are bit-for-bit
//! reproducible from the committed map. The identity map (no cells,
//! default 1.0) prices exactly as the bare cycle model, because
//! `x × 1.0 == x` in IEEE arithmetic — the golden digests hold under
//! it.
//!
//! ## Map format
//!
//! ```json
//! {
//!   "default_ratio": 1.0,
//!   "entries": {
//!     "OCR/M/localhost": { "ratio": 1.07, "wall_micros": 42180, "samples": 5 }
//!   }
//! }
//! ```
//!
//! Lookup order for `(kind, size, host)`: exact `"kind/size/host"`,
//! then wildcard-host `"kind/size/*"`, then `default_ratio`.

use crate::workset::SizeClass;
use obsv::json::{self, Value};
use std::collections::BTreeMap;
use workloads::{TaskRequest, WorkloadKind};

/// Coarse hardware class an execution is attributed to; the third
/// component of every calibration key. A static label (not a full
/// spec) so measurements aggregate across hosts of the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HostClass(pub &'static str);

impl HostClass {
    /// The paper's 2.66 GHz Dell server (rattrap + fleet hosts).
    pub const PAPER_SERVER: HostClass = HostClass("paper-server");
    /// A geo edge-PoP host.
    pub const EDGE_POP: HostClass = HostClass("edge-pop");
    /// A geo regional-core host.
    pub const REGIONAL_CORE: HostClass = HostClass("regional-core");
    /// The machine this process runs on (drift/serve measurements).
    pub const LOCALHOST: HostClass = HostClass("localhost");
}

/// One calibration cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalEntry {
    /// Mean real/modeled wall-time ratio.
    pub ratio: f64,
    /// Mean measured kernel wall time, microseconds (reporting only;
    /// prices use `ratio`).
    pub wall_micros: u64,
    /// Samples behind the mean.
    pub samples: u64,
}

/// A committed map from `"kind/size/host"` keys to calibration cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationMap {
    /// Ratio applied when no key matches.
    pub default_ratio: f64,
    entries: BTreeMap<String, CalEntry>,
}

impl CalibrationMap {
    /// The identity map: every request is priced by the bare cycle
    /// model.
    pub fn identity() -> CalibrationMap {
        CalibrationMap {
            default_ratio: 1.0,
            entries: BTreeMap::new(),
        }
    }

    /// The calibration committed with the crate
    /// (`crates/exec/data/calibration.json`), recorded by
    /// `exp_drift --write-calibration` on the reference machine.
    pub fn committed() -> CalibrationMap {
        CalibrationMap::from_json(include_str!("../data/calibration.json"))
            .expect("committed calibration map parses")
    }

    /// Canonical key for one cell.
    pub fn key(kind: WorkloadKind, size: SizeClass, host: HostClass) -> String {
        format!("{}/{}/{}", kind.label(), size.label(), host.0)
    }

    /// Insert or replace a cell.
    pub fn insert(&mut self, key: String, entry: CalEntry) {
        self.entries.insert(key, entry);
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no cells.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resolve the ratio for one execution: exact key, then
    /// wildcard-host, then the default.
    pub fn ratio(&self, kind: WorkloadKind, size: SizeClass, host: HostClass) -> f64 {
        if let Some(e) = self.entries.get(&Self::key(kind, size, host)) {
            return e.ratio;
        }
        let wild = format!("{}/{}/*", kind.label(), size.label());
        if let Some(e) = self.entries.get(&wild) {
            return e.ratio;
        }
        self.default_ratio
    }

    /// Resolve every `(kind, size)` cell for one host class, so the
    /// request path prices by index instead of by string lookup.
    pub fn resolve(&self, host: HostClass) -> CalibrationTable {
        let mut ratios = [[1.0; 3]; 4];
        for kind in WorkloadKind::ALL {
            for size in SizeClass::ALL {
                ratios[kind as usize][size as usize] = self.ratio(kind, size, host);
            }
        }
        CalibrationTable(ratios)
    }

    /// Serialize to the committed JSON format (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"default_ratio\": {},\n", self.default_ratio));
        s.push_str("  \"entries\": {");
        let mut first = true;
        for (key, e) in &self.entries {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\n    \"{}\": {{ \"ratio\": {}, \"wall_micros\": {}, \"samples\": {} }}",
                key, e.ratio, e.wall_micros, e.samples
            ));
        }
        if !first {
            s.push_str("\n  ");
        }
        s.push_str("}\n}\n");
        s
    }

    /// Parse the committed JSON format.
    pub fn from_json(text: &str) -> Result<CalibrationMap, String> {
        let v = json::parse(text)?;
        let default_ratio = v
            .get("default_ratio")
            .and_then(Value::as_f64)
            .ok_or("calibration: missing default_ratio")?;
        let mut entries = BTreeMap::new();
        if let Some(Value::Object(map)) = v.get("entries") {
            for (key, cell) in map {
                let num = |field: &str| -> Result<f64, String> {
                    cell.get(field)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("calibration {key}: missing {field}"))
                };
                entries.insert(
                    key.clone(),
                    CalEntry {
                        ratio: num("ratio")?,
                        wall_micros: num("wall_micros")? as u64,
                        samples: num("samples")? as u64,
                    },
                );
            }
        }
        Ok(CalibrationMap {
            default_ratio,
            entries,
        })
    }
}

/// One host class's resolved calibration: the ratio of every
/// `(kind, size)` cell, indexed by discriminant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationTable([[f64; 3]; 4]);

impl CalibrationTable {
    /// Core-seconds of work `task`'s compute phase costs on a host at
    /// `ghz` running a runtime class of CPU efficiency `eff`: the cycle
    /// model's price times the cell's ratio. The one compute-pricing
    /// expression of every engine.
    pub fn price(&self, task: &TaskRequest, ghz: f64, eff: f64) -> f64 {
        task.compute.seconds_at(ghz, eff) * self.0[task.kind as usize][SizeClass::of(task) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::units::Megacycles;
    use simkit::SimRng;

    fn cal(ratio: f64) -> CalEntry {
        CalEntry {
            ratio,
            wall_micros: 1000,
            samples: 1,
        }
    }

    #[test]
    fn identity_replay_is_bitwise_modeled() {
        let identity = CalibrationMap::identity().resolve(HostClass::PAPER_SERVER);
        for kind in WorkloadKind::ALL {
            let mut rng = SimRng::new(21);
            for _ in 0..64 {
                let task = kind.profile().sample(&mut rng);
                let modeled = Megacycles(task.compute.0).seconds_at(2.66, 0.995);
                assert_eq!(
                    identity.price(&task, 2.66, 0.995).to_bits(),
                    modeled.to_bits()
                );
            }
        }
    }

    #[test]
    fn lookup_falls_back_exact_then_wildcard_then_default() {
        let mut map = CalibrationMap::identity();
        map.default_ratio = 2.0;
        map.insert("OCR/M/*".into(), cal(1.5));
        let exact = CalibrationMap::key(
            WorkloadKind::Ocr,
            SizeClass::Medium,
            HostClass::PAPER_SERVER,
        );
        map.insert(exact, cal(1.2));
        let (ocr, linpack) = (WorkloadKind::Ocr, WorkloadKind::Linpack);
        let m = SizeClass::Medium;
        assert_eq!(map.ratio(ocr, m, HostClass::PAPER_SERVER), 1.2);
        assert_eq!(map.ratio(ocr, m, HostClass::EDGE_POP), 1.5);
        assert_eq!(
            map.ratio(linpack, SizeClass::Small, HostClass::EDGE_POP),
            2.0
        );
        // The resolved table holds the same three answers per class.
        let server = map.resolve(HostClass::PAPER_SERVER);
        let edge = map.resolve(HostClass::EDGE_POP);
        assert_eq!(server.0[ocr as usize][m as usize], 1.2);
        assert_eq!(edge.0[ocr as usize][m as usize], 1.5);
        assert_eq!(edge.0[linpack as usize][SizeClass::Small as usize], 2.0);
    }

    #[test]
    fn json_round_trips() {
        let mut map = CalibrationMap::identity();
        map.insert("Linpack/S/localhost".into(), cal(0.93));
        map.insert("OCR/L/*".into(), cal(1.41));
        let text = map.to_json();
        let back = CalibrationMap::from_json(&text).unwrap();
        assert_eq!(map, back);
        let empty = CalibrationMap::identity();
        assert_eq!(CalibrationMap::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn committed_map_parses_and_covers_all_kernels() {
        let map = CalibrationMap::committed();
        for kind in WorkloadKind::ALL {
            for size in SizeClass::ALL {
                let r = map.ratio(kind, size, HostClass::LOCALHOST);
                assert!(r > 0.0, "{}/{}", kind.label(), size.label());
            }
        }
    }

    #[test]
    fn replay_is_scaled_modeled() {
        let mut map = CalibrationMap::identity();
        map.default_ratio = 3.0;
        let table = map.resolve(HostClass::PAPER_SERVER);
        let task = TaskRequest {
            kind: WorkloadKind::Linpack,
            payload_bytes: 260,
            control_bytes: 96,
            result_bytes: 113,
            compute: Megacycles(2400.0),
            io_bytes: 0,
        };
        let modeled = task.compute.seconds_at(2.66, 0.995);
        assert_eq!(table.price(&task, 2.66, 0.995), modeled * 3.0);
    }
}
