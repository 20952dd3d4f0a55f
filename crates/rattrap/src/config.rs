//! Calibration constants — the single source of truth tying the
//! simulation to the paper's experimental setup (§V, §VI-A).

use simkit::units::Megacycles;
use simkit::SimDuration;

/// The mobile device the clients run on (2016-class handset).
///
/// The paper uses five real Android phones; we model their CPU as a
/// single effective core whose useful throughput is well below the
/// Xeon's — both lower clock and lower per-cycle efficiency on these
/// workloads (JIT, thermal limits, LITTLE cores).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Device clock, GHz.
    pub clock_ghz: f64,
    /// Useful-cycles fraction relative to the server ISA (≤ 1).
    pub efficiency: f64,
}

impl DeviceSpec {
    /// Default handset model.
    pub fn default_handset() -> Self {
        DeviceSpec {
            clock_ghz: 1.2,
            efficiency: 0.4,
        }
    }

    /// IoT-class device: Raspberry Pi 2 territory (900 MHz quad
    /// Cortex-A7, of which one in-order core does the offloadable
    /// work), calibrated from Morabito's container-on-IoT evaluation.
    /// Roughly 4× less useful throughput than the default handset, so
    /// these devices lean hardest on a nearby edge PoP.
    pub fn iot_class() -> Self {
        DeviceSpec {
            clock_ghz: 0.9,
            efficiency: 0.25,
        }
    }

    /// Time to execute `work` locally on the device.
    pub fn local_execution_time(&self, work: Megacycles) -> SimDuration {
        SimDuration::from_secs_f64(work.seconds_at(self.clock_ghz, self.efficiency))
    }
}

/// Number of client devices in the §VI experiments.
pub const PAPER_DEVICE_COUNT: u32 = 5;

/// Offloading requests investigated per device (Fig. 1: "the first 20
/// offloading requests").
pub const PAPER_REQUESTS_PER_DEVICE: u32 = 20;

/// Random-access penalty of the HDD for offloading I/O (scattered
/// reads/writes of migrated files), as a fraction of sequential
/// bandwidth. 5 % of ~120 MB/s ≈ 6 MB/s of 4K-ish random I/O, typical
/// for 7200 rpm disks.
pub const RANDOM_IO_FACTOR: f64 = 0.05;

/// How long an idle runtime is kept before the platform reclaims it.
pub const IDLE_TEARDOWN: SimDuration = SimDuration::from_secs(120);

/// Expected values from the paper, used by `analysis::compare` and the
/// EXPERIMENTS.md generator to check reproduction shape.
pub mod paper {
    /// Table I setup times (seconds): VM / CAC-non-opt / CAC.
    pub const SETUP_TIMES_S: [f64; 3] = [28.72, 6.80, 1.75];
    /// Table I memory footprints (MiB).
    pub const MEMORY_MIB: [u64; 3] = [512, 128, 96];
    /// §VI-B setup-time speedups over the VM.
    pub const SETUP_SPEEDUPS: [f64; 2] = [4.22, 16.41];
    /// §VI-C runtime-preparation speedup band for Rattrap.
    pub const PREP_SPEEDUP_RATTRAP: (f64, f64) = (16.29, 16.98);
    /// §VI-C runtime-preparation speedup band for Rattrap(W/O).
    pub const PREP_SPEEDUP_WO: (f64, f64) = (4.14, 4.71);
    /// §VI-C data-transfer speedup band for Rattrap.
    pub const TRANSFER_SPEEDUP_RATTRAP: (f64, f64) = (1.17, 2.04);
    /// §VI-C computation speedup band for Rattrap.
    pub const COMPUTE_SPEEDUP_RATTRAP: (f64, f64) = (1.05, 1.40);
    /// §VI-C computation speedup band for Rattrap(W/O).
    pub const COMPUTE_SPEEDUP_WO: (f64, f64) = (1.02, 1.13);
    /// §VI-E offloading-failure rates: Rattrap / W-O / VM.
    pub const TRACE_FAILURE_RATES: [f64; 3] = [0.013, 0.077, 0.097];
    /// §VI-E fraction of requests with speedup > 3.0.
    pub const TRACE_SPEEDUP3_FRACTIONS: [f64; 3] = [0.540, 0.508, 0.115];
    /// Table II upload totals (KB): [workload][rattrap, w/o, vm].
    pub const TABLE2_UPLOAD_KB: [[u64; 3]; 4] = [
        [29_440, 34_233, 35_047], // OCR
        [4_788, 14_011, 13_301],  // ChessGame
        [91_973, 99_375, 98_895], // VirusScan
        [169, 776, 705],          // Linpack
    ];
    /// Table II download totals (KB).
    pub const TABLE2_DOWNLOAD_KB: [[u64; 3]; 4] = [
        [154, 152, 152],
        [34, 34, 34],
        [1_738, 1_582, 1_572],
        [11, 11, 11],
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WorkloadKind;

    #[test]
    fn device_is_several_times_slower_than_a_server_core() {
        let d = DeviceSpec::default_handset();
        // Effective device speed 0.48 GHz-equivalents vs the 2.66 GHz Xeon.
        let work = Megacycles(2660.0);
        let local = d.local_execution_time(work).as_secs_f64();
        let server = work.seconds_at(2.66, 1.0);
        assert!(
            local / server > 4.0 && local / server < 8.0,
            "ratio {}",
            local / server
        );
    }

    #[test]
    fn iot_device_is_much_weaker_than_the_handset() {
        let iot = DeviceSpec::iot_class();
        let handset = DeviceSpec::default_handset();
        let work = Megacycles(2660.0);
        let ratio = iot.local_execution_time(work).as_secs_f64()
            / handset.local_execution_time(work).as_secs_f64();
        // 0.48 GHz-equiv handset vs 0.225 GHz-equiv Pi-class device.
        assert!(ratio > 1.5 && ratio < 4.0, "ratio {ratio}");
    }

    #[test]
    fn iot_class_devices_gain_the_most_from_an_edge_pop() {
        // The geo edge cells pair `iot_class()` devices with the
        // `IotRadio` link: even over that ~2 Mbps radio, the Pi-class
        // CPU is weak enough that offloading mean-sized compute to a
        // warm edge core wins — and by a wider margin than the handset
        // gains, which is why IoT cohorts route to the nearest PoP.
        let iot = DeviceSpec::iot_class();
        let handset = DeviceSpec::default_handset();
        let link = netsim::Link::new(netsim::NetworkScenario::IotRadio);
        for kind in WorkloadKind::ALL {
            let p = kind.profile();
            let server = Megacycles(p.compute_megacycles_mean).seconds_at(2.66, 0.95);
            let transfer = link
                .expected_transfer_time(p.payload_bytes_mean, netsim::Direction::Upload)
                .as_secs_f64();
            let warm = server + transfer + 0.05;
            let iot_gain = iot
                .local_execution_time(Megacycles(p.compute_megacycles_mean))
                .as_secs_f64()
                / warm;
            let handset_gain = handset
                .local_execution_time(Megacycles(p.compute_megacycles_mean))
                .as_secs_f64()
                / warm;
            assert!(
                iot_gain > handset_gain,
                "{}: iot gain {iot_gain} vs handset {handset_gain}",
                kind.label()
            );
        }
    }

    #[test]
    fn warm_offloading_beats_local_for_every_workload() {
        // Sanity: mean compute offloaded to a warm server core (incl. a
        // LAN round trip) must beat local execution — otherwise the
        // premise of Fig. 1's speedup > 1 regime collapses.
        let d = DeviceSpec::default_handset();
        for kind in WorkloadKind::ALL {
            let p = kind.profile();
            let local = d.local_execution_time(Megacycles(p.compute_megacycles_mean));
            let server = Megacycles(p.compute_megacycles_mean).seconds_at(2.66, 0.95);
            let transfer = p.payload_bytes_mean as f64 / (40.0e6 / 8.0);
            let warm = server + transfer + 0.05;
            assert!(
                local.as_secs_f64() / warm > 1.5,
                "{}: local {} vs warm {}",
                kind.label(),
                local.as_secs_f64(),
                warm
            );
        }
    }
}
