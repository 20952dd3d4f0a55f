//! LiveLab-style app-access trace generation.
//!
//! The paper's Fig. 11 replays real-world app access traces from the
//! LiveLab dataset (Rice University, 34 iPhone users over a year),
//! using access timestamps as offloading-request start times. The
//! dataset itself is not redistributable, so we generate synthetic
//! traces with the structure that matters to the experiment: *bursty
//! sessions* (a user opens an app and interacts for a while) separated
//! by long idle gaps, under a diurnal activity profile. The session
//! structure is what exercises cold starts — runtimes are reclaimed
//! during the long gaps — and the burst structure is what piles
//! requests onto a still-booting runtime.

use simkit::{SimDuration, SimRng, SimTime};

/// Parameters of the synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of users (devices).
    pub users: u32,
    /// Trace duration.
    pub duration: SimDuration,
    /// Mean app sessions per user per *active* hour.
    pub sessions_per_hour: f64,
    /// Mean requests per session (geometric, ≥ 1).
    pub mean_session_len: f64,
    /// Mean gap between requests inside a session, seconds (exponential).
    pub intra_gap_s: f64,
    /// Master seed.
    pub seed: u64,
}

impl TraceConfig {
    /// Fig. 11's session shape — 2.5 sessions an active hour, 18
    /// requests a session, 25 s apart — for `users` over `duration`.
    pub fn fig11(users: u32, duration: SimDuration, seed: u64) -> Self {
        TraceConfig {
            users,
            duration,
            sessions_per_hour: 2.5,
            mean_session_len: 18.0,
            intra_gap_s: 25.0,
            seed,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            users: 5,
            duration: SimDuration::from_secs(6 * 3600),
            sessions_per_hour: 2.0,
            mean_session_len: 18.0,
            intra_gap_s: 25.0,
            seed: 0x11FE,
        }
    }
}

/// Diurnal activity multiplier per hour of day, normalized so the peak
/// is 1. Shape follows smartphone-usage studies: quiet at night, rising
/// through the morning, peaks at midday and evening.
pub const DIURNAL: [f64; 24] = [
    0.05, 0.03, 0.02, 0.02, 0.03, 0.08, 0.20, 0.40, 0.60, 0.70, 0.75, 0.85, //
    0.90, 0.80, 0.70, 0.65, 0.70, 0.80, 0.95, 1.00, 0.90, 0.60, 0.30, 0.12,
];

/// Generate per-user request timestamps (sorted, within `duration`).
/// The trace starts at 08:00 "wall time" so short traces land in active
/// hours.
pub fn generate(cfg: &TraceConfig) -> Vec<Vec<SimTime>> {
    generate_with_start(cfg, 8.0)
}

/// [`generate`] with an explicit local start hour. Multi-region
/// topologies use this to phase-shift the shared [`DIURNAL`] profile
/// per timezone (sun-following load): each region generates its trace
/// with its own local wall-clock hour at sim time zero.
pub fn generate_with_start(cfg: &TraceConfig, start_hour: f64) -> Vec<Vec<SimTime>> {
    (0..cfg.users)
        .map(|u| {
            let mut rng = SimRng::new(simkit::derive_seed(cfg.seed, u as u64));
            let mut times = Vec::new();
            // Non-homogeneous Poisson session starts via thinning.
            let max_rate = cfg.sessions_per_hour / 3600.0; // per second at peak
            let mut t = 0.0f64;
            let horizon = cfg.duration.as_secs_f64();
            loop {
                t += rng.exponential(1.0 / max_rate);
                if t >= horizon {
                    break;
                }
                let hour = (start_hour + t / 3600.0).rem_euclid(24.0) as usize;
                if !rng.bernoulli(DIURNAL[hour % 24]) {
                    continue; // thinned out
                }
                // A session: geometric length, exponential intra gaps.
                let len = 1 + (rng.exponential(cfg.mean_session_len - 1.0).floor() as usize);
                let mut st = t;
                for i in 0..len {
                    if st >= horizon {
                        break;
                    }
                    times.push(SimTime::from_secs_f64(st));
                    if i + 1 < len {
                        st += rng.exponential(cfg.intra_gap_s);
                    }
                }
                t = st; // next session starts after this one
            }
            times.sort_unstable();
            times.dedup();
            times
        })
        .collect()
}

/// Structural statistics of a trace (to validate burstiness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Total requests across users.
    pub requests: usize,
    /// Fraction of inter-request gaps longer than the idle-teardown
    /// window (these requests hit cold runtimes).
    pub cold_gap_fraction: f64,
    /// Median inter-request gap, seconds.
    pub median_gap_s: f64,
}

/// Compute [`TraceStats`] with the given cold-gap threshold.
pub fn stats(trace: &[Vec<SimTime>], cold_threshold: SimDuration) -> TraceStats {
    let mut gaps: Vec<f64> = Vec::new();
    let mut requests = 0;
    for user in trace {
        requests += user.len();
        for w in user.windows(2) {
            gaps.push((w[1] - w[0]).as_secs_f64());
        }
    }
    if gaps.is_empty() {
        return TraceStats {
            requests,
            cold_gap_fraction: 1.0,
            median_gap_s: 0.0,
        };
    }
    gaps.sort_by(|a, b| a.partial_cmp(b).expect("gaps are finite"));
    let cold = gaps
        .iter()
        .filter(|&&g| g > cold_threshold.as_secs_f64())
        .count();
    TraceStats {
        requests,
        // +users: each user's first request is cold by definition.
        cold_gap_fraction: (cold + trace.len()) as f64 / (gaps.len() + trace.len()) as f64,
        median_gap_s: gaps[gaps.len() / 2],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = TraceConfig::default();
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn timestamps_sorted_and_bounded() {
        let cfg = TraceConfig::default();
        let trace = generate(&cfg);
        assert_eq!(trace.len(), 5);
        for user in &trace {
            assert!(user.windows(2).all(|w| w[0] < w[1]));
            assert!(user.iter().all(|&t| t < SimTime::ZERO + cfg.duration));
        }
    }

    #[test]
    fn trace_is_bursty() {
        let cfg = TraceConfig {
            duration: SimDuration::from_secs(24 * 3600),
            ..Default::default()
        };
        let trace = generate(&cfg);
        let s = stats(&trace, SimDuration::from_secs(60));
        assert!(s.requests > 200, "enough requests: {}", s.requests);
        // Sessions: most gaps are short, a meaningful minority are long.
        assert!(s.median_gap_s < 30.0, "median gap {}", s.median_gap_s);
        assert!(
            s.cold_gap_fraction > 0.05 && s.cold_gap_fraction < 0.35,
            "cold fraction {}",
            s.cold_gap_fraction
        );
    }

    #[test]
    fn diurnal_profile_shifts_volume() {
        // Daytime window (starts 08:00) vs the same length overnight:
        // generate a 16 h trace and compare first 8 h vs last 8 h… the
        // trace wraps at midnight, so just check the table itself.
        let night = DIURNAL[3];
        let evening = DIURNAL[19];
        assert!(night < 0.1, "3am is quiet: {night}");
        assert!(evening > 0.9, "evening peak: {evening}");
        assert_eq!(DIURNAL.len(), 24);
    }

    #[test]
    fn start_hour_shifts_volume() {
        // A short trace started at the 19:00 peak generates far more
        // requests than the same trace started at 02:00.
        let cfg = TraceConfig {
            users: 20,
            duration: SimDuration::from_secs(2 * 3600),
            ..Default::default()
        };
        let count = |t: &Vec<Vec<SimTime>>| t.iter().map(|u| u.len()).sum::<usize>();
        let peak = count(&generate_with_start(&cfg, 19.0));
        let night = count(&generate_with_start(&cfg, 2.0));
        assert!(
            peak > 4 * night.max(1),
            "peak {peak} should dwarf night {night}"
        );
        // The default entry point is exactly start_hour = 8.
        assert_eq!(generate(&cfg), generate_with_start(&cfg, 8.0));
    }

    #[test]
    fn more_sessions_more_requests() {
        let small = generate(&TraceConfig {
            sessions_per_hour: 1.0,
            ..Default::default()
        });
        let big = generate(&TraceConfig {
            sessions_per_hour: 6.0,
            ..Default::default()
        });
        let count = |t: &Vec<Vec<SimTime>>| t.iter().map(|u| u.len()).sum::<usize>();
        assert!(count(&big) > 2 * count(&small));
    }
}
