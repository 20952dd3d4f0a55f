//! Stateful link model: connection establishment and transfer timing.
//!
//! The model is deliberately simple — TCP-handshake latency plus
//! bandwidth-bound transfer with loss/instability penalties — because
//! the paper's Network Connection and Data Transfer phases are dominated
//! by exactly those two terms (§III-B).

use crate::scenario::{Direction, LinkParams, NetworkScenario};
use simkit::{SimDuration, SimRng};

/// A mobile-device ↔ cloud link under one [`NetworkScenario`].
#[derive(Debug, Clone)]
pub struct Link {
    scenario: NetworkScenario,
    params: LinkParams,
}

impl Link {
    /// A link in the given scenario.
    pub fn new(scenario: NetworkScenario) -> Self {
        Link {
            scenario,
            params: scenario.params(),
        }
    }

    /// The scenario this link models.
    pub fn scenario(&self) -> NetworkScenario {
        self.scenario
    }

    /// Raw parameters.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// One RTT sample with log-normal jitter.
    fn sample_rtt(&self, rng: &mut SimRng) -> SimDuration {
        let sigma = self.params.rtt_jitter_frac;
        // Log-normal with median = configured RTT.
        let factor = rng.log_normal(0.0, sigma);
        self.params.rtt.mul_f64(factor)
    }

    /// Time to establish a connection: TCP 3-way handshake (1.5 RTT)
    /// plus a possible SYN retransmission on loss (exponential backoff
    /// starts at 1 s in most stacks; we use a single 1 s penalty).
    pub fn connect_time(&self, rng: &mut SimRng) -> SimDuration {
        let mut t = self.sample_rtt(rng).mul_f64(1.5);
        if rng.bernoulli(self.params.loss_rate * 2.0) {
            t += SimDuration::from_secs(1);
        }
        t
    }

    /// Time to move `bytes` in `direction`.
    ///
    /// Base cost is bytes / bandwidth plus half an RTT for the final ACK.
    /// Loss adds retransmission inflation (TCP throughput degrades
    /// roughly with sqrt of loss); instability occasionally halves the
    /// effective bandwidth for the whole transfer, modelling the
    /// context changes the paper observed on cellular links.
    pub fn transfer_time(&self, bytes: u64, direction: Direction, rng: &mut SimRng) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let bw = match direction {
            Direction::Upload => self.params.upstream_bps,
            Direction::Download => self.params.downstream_bps,
        };
        let mut secs = bytes as f64 / bw;
        // Loss-driven inflation: ~1/(1 - k·sqrt(p)) with small k.
        let inflation = 1.0 / (1.0 - (2.0 * self.params.loss_rate.sqrt()).min(0.5));
        secs *= inflation;
        if rng.bernoulli(self.params.instability) {
            let dip = rng.uniform(1.3, 2.2);
            secs *= dip;
        }
        SimDuration::from_secs_f64(secs) + self.sample_rtt(rng).mul_f64(0.5)
    }

    /// Deterministic expected transfer time (no sampling) — used by
    /// closed-form checks and the energy replay harness.
    pub fn expected_transfer_time(&self, bytes: u64, direction: Direction) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let bw = match direction {
            Direction::Upload => self.params.upstream_bps,
            Direction::Download => self.params.downstream_bps,
        };
        let inflation = 1.0 / (1.0 - (2.0 * self.params.loss_rate.sqrt()).min(0.5));
        let instab = 1.0 + self.params.instability * 0.75; // E[dip] ≈ 1.75 with prob p
        SimDuration::from_secs_f64(bytes as f64 / bw * inflation * instab)
            + self.params.rtt.mul_f64(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::units::kib;

    fn rng() -> SimRng {
        SimRng::new(0xD1CE)
    }

    #[test]
    fn zero_bytes_is_free() {
        let l = Link::new(NetworkScenario::LanWifi);
        assert_eq!(
            l.transfer_time(0, Direction::Upload, &mut rng()),
            SimDuration::ZERO
        );
        assert_eq!(
            l.expected_transfer_time(0, Direction::Download),
            SimDuration::ZERO
        );
    }

    #[test]
    fn lan_is_fastest_3g_is_slowest() {
        let mut r = rng();
        let bytes = kib(500);
        let mut mean = |s: NetworkScenario| {
            let l = Link::new(s);
            let total: f64 = (0..200)
                .map(|_| {
                    l.transfer_time(bytes, Direction::Upload, &mut r)
                        .as_secs_f64()
                })
                .sum();
            total / 200.0
        };
        let lan = mean(NetworkScenario::LanWifi);
        let wan = mean(NetworkScenario::WanWifi);
        let four = mean(NetworkScenario::FourG);
        let three = mean(NetworkScenario::ThreeG);
        assert!(lan < wan, "lan {lan} wan {wan}");
        assert!(wan < three, "wan {wan} 3g {three}");
        assert!(four < three, "4g {four} 3g {three}");
    }

    #[test]
    fn three_g_download_slower_than_upload() {
        // The paper's 3G measurement has downstream far below upstream.
        let l = Link::new(NetworkScenario::ThreeG);
        let up = l.expected_transfer_time(kib(100), Direction::Upload);
        let down = l.expected_transfer_time(kib(100), Direction::Download);
        assert!(down > up.mul_f64(2.0));
    }

    #[test]
    fn connect_time_scales_with_rtt() {
        let mut r = rng();
        let lan = Link::new(NetworkScenario::LanWifi);
        let wan = Link::new(NetworkScenario::WanWifi);
        let mean = |l: &Link, r: &mut SimRng| {
            (0..300)
                .map(|_| l.connect_time(r).as_secs_f64())
                .sum::<f64>()
                / 300.0
        };
        let lan_mean = mean(&lan, &mut r);
        let wan_mean = mean(&wan, &mut r);
        // WAN handshake ≈ 90 ms ≫ LAN ≈ 3 ms.
        assert!(wan_mean > lan_mean * 10.0, "lan {lan_mean} wan {wan_mean}");
    }

    #[test]
    fn expected_time_tracks_sampled_mean() {
        let l = Link::new(NetworkScenario::WanWifi);
        let mut r = rng();
        let bytes = kib(2000);
        let sampled: f64 = (0..2000)
            .map(|_| {
                l.transfer_time(bytes, Direction::Upload, &mut r)
                    .as_secs_f64()
            })
            .sum::<f64>()
            / 2000.0;
        let expected = l
            .expected_transfer_time(bytes, Direction::Upload)
            .as_secs_f64();
        assert!(
            (sampled - expected).abs() / expected < 0.15,
            "sampled {sampled} vs expected {expected}"
        );
    }

    #[test]
    fn sampled_rtt_is_positive_and_centered() {
        let l = Link::new(NetworkScenario::FourG);
        let mut r = rng();
        let samples: Vec<f64> = (0..1000)
            .map(|_| l.sample_rtt(&mut r).as_secs_f64())
            .collect();
        assert!(samples.iter().all(|&s| s > 0.0));
        let median = {
            let mut v = samples.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        assert!((median - 0.070).abs() < 0.015, "median {median}");
    }
}
