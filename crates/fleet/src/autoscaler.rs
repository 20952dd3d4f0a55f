//! The fleet Autoscaler: an EWMA of each host's load under
//! credit-damped scale decisions.
//!
//! Each scan observes every active host's admitted-request count into
//! a per-host EWMA. Sustained saturation earns scale-up credits,
//! sustained slack earns scale-down credits; an action fires only when
//! the credit budget is spent, so one bursty scan can never flap the
//! fleet.

use crate::config::AutoscalePolicy;
use simkit::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// What the autoscaler wants done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// Bring one standby host up.
    Activate,
    /// Drain this active host (stop routing to it; release it once
    /// its queue empties).
    Drain(usize),
}

/// The fleet autoscaler.
#[derive(Debug)]
pub struct Autoscaler {
    policy: AutoscalePolicy,
    /// Smoothed admitted-request count per host index.
    load: BTreeMap<usize, f64>,
    credits: i64,
}

impl Autoscaler {
    /// An autoscaler under `policy`.
    pub fn new(policy: AutoscalePolicy) -> Self {
        assert!(policy.alpha > 0.0 && policy.alpha <= 1.0, "alpha in (0,1]");
        Autoscaler {
            policy,
            load: BTreeMap::new(),
            credits: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> AutoscalePolicy {
        self.policy
    }

    /// Feed one host's admitted-request count for this scan. The first
    /// observation seeds the entry, which is then blended like every
    /// later one.
    pub fn observe(&mut self, host: usize, admitted: u32) {
        let x = admitted as f64;
        let alpha = self.policy.alpha;
        let entry = self.load.entry(host).or_insert(x);
        *entry = alpha * x + (1.0 - alpha) * *entry;
    }

    /// Drop a host's signal (crash or release).
    pub fn forget(&mut self, host: usize) {
        self.load.remove(&host);
    }

    /// Smoothed load of `host` (0 if never observed).
    fn load_of(&self, host: usize) -> f64 {
        self.load.get(&host).copied().unwrap_or(0.0)
    }

    /// Hottest and coldest of `hosts` — each paired with the autoscaler
    /// that observes it — by smoothed busy-fraction
    /// (`load / slots(host)`), with the gap: the rebalancer's input.
    /// Ties break toward the lowest index. `None` below two hosts.
    pub fn hot_cold<'a>(
        hosts: impl IntoIterator<Item = (&'a Autoscaler, usize)>,
        slots: impl Fn(usize) -> f64,
    ) -> Option<(usize, usize, f64)> {
        let frac: Vec<(usize, f64)> = hosts
            .into_iter()
            .map(|(scaler, h)| (h, scaler.load_of(h) / slots(h).max(1.0)))
            .collect();
        if frac.len() < 2 {
            return None;
        }
        let &(hot, hi) = frac
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
            .expect("non-empty");
        let &(cold, lo) = frac
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
            .expect("non-empty");
        if hot == cold {
            return None;
        }
        Some((hot, cold, hi - lo))
    }

    /// One control decision. `saturation` is the fleet-mean busy
    /// fraction over active hosts; `standby` says whether any host is
    /// left to activate. At most one action per scan.
    pub fn plan(
        &mut self,
        _now: SimTime,
        saturation: f64,
        active: &BTreeSet<usize>,
        standby: bool,
    ) -> Option<FleetAction> {
        if !self.policy.enabled {
            return None;
        }
        if saturation >= self.policy.high_watermark {
            self.credits = (self.credits.max(0)) + 1;
        } else if saturation <= self.policy.low_watermark {
            self.credits = (self.credits.min(0)) - 1;
        } else {
            // Comfortable band: pressure credits decay toward zero.
            self.credits -= self.credits.signum();
        }
        let budget = self.policy.credits_to_scale as i64;
        if self.credits >= budget {
            self.credits = 0;
            if standby {
                return Some(FleetAction::Activate);
            }
        } else if self.credits <= -budget {
            self.credits = 0;
            if active.len() > 1 {
                // Drain the coldest host.
                let victim = active
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        self.load_of(a)
                            .partial_cmp(&self.load_of(b))
                            .unwrap()
                            .then(a.cmp(&b))
                    })
                    .expect("non-empty");
                return Some(FleetAction::Drain(victim));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(n: usize) -> BTreeSet<usize> {
        (0..n).collect()
    }

    #[test]
    fn sustained_saturation_activates_after_credits() {
        let mut a = Autoscaler::new(AutoscalePolicy::standard());
        let now = SimTime::ZERO;
        for _ in 0..2 {
            assert_eq!(a.plan(now, 0.95, &active(2), true), None, "still earning");
        }
        assert_eq!(
            a.plan(now, 0.95, &active(2), true),
            Some(FleetAction::Activate)
        );
        // Credits were spent: the next scan starts over.
        assert_eq!(a.plan(now, 0.95, &active(3), true), None);
    }

    #[test]
    fn one_burst_does_not_scale() {
        let mut a = Autoscaler::new(AutoscalePolicy::standard());
        let now = SimTime::ZERO;
        assert_eq!(a.plan(now, 0.95, &active(2), true), None);
        // Back in band: the credit decays instead of accumulating.
        assert_eq!(a.plan(now, 0.5, &active(2), true), None);
        assert_eq!(a.plan(now, 0.95, &active(2), true), None);
        assert_eq!(a.plan(now, 0.95, &active(2), true), None);
    }

    #[test]
    fn sustained_slack_drains_the_coldest() {
        let mut a = Autoscaler::new(AutoscalePolicy::standard());
        let now = SimTime::ZERO;
        a.observe(0, 6);
        a.observe(1, 0);
        for _ in 0..2 {
            assert_eq!(a.plan(now, 0.05, &active(2), false), None);
        }
        assert_eq!(
            a.plan(now, 0.05, &active(2), false),
            Some(FleetAction::Drain(1))
        );
    }

    #[test]
    fn never_drains_the_last_host() {
        let mut a = Autoscaler::new(AutoscalePolicy::standard());
        let now = SimTime::ZERO;
        for _ in 0..10 {
            assert_eq!(a.plan(now, 0.0, &active(1), false), None);
        }
    }

    #[test]
    fn disabled_policy_is_inert() {
        let mut a = Autoscaler::new(AutoscalePolicy::static_fleet());
        for _ in 0..10 {
            assert_eq!(a.plan(SimTime::ZERO, 1.0, &active(2), true), None);
        }
    }

    #[test]
    fn monitor_ewma_tracks_load() {
        let policy = AutoscalePolicy {
            alpha: 0.3,
            ..AutoscalePolicy::standard()
        };
        let mut a = Autoscaler::new(policy);
        a.observe(5, 7);
        // The first observation seeds the entry and is then blended:
        // equal in value to the seed, and pinned to the same bits.
        let seeded: f64 = 0.3 * 7.0 + (1.0 - 0.3) * 7.0;
        assert_eq!(a.load_of(5).to_bits(), seeded.to_bits());
        a.observe(5, 0);
        assert_eq!(a.load_of(5).to_bits(), ((1.0 - 0.3) * seeded).to_bits());
        assert_eq!(a.load_of(4), 0.0, "hosts are keyed apart");
        a.forget(5);
        assert_eq!(a.load_of(5), 0.0);

        let mut half = Autoscaler::new(AutoscalePolicy {
            alpha: 0.5,
            ..AutoscalePolicy::standard()
        });
        half.observe(0, 4);
        assert!((half.load_of(0) - 4.0).abs() < 1e-9);
        half.observe(0, 0);
        assert!((half.load_of(0) - 2.0).abs() < 1e-9);
        half.observe(0, 0);
        assert!((half.load_of(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hot_cold_uses_per_host_slots() {
        let mut a = Autoscaler::new(AutoscalePolicy::standard());
        for _ in 0..20 {
            a.observe(0, 8);
            a.observe(1, 4);
        }
        let two = [(&a, 0), (&a, 1)];
        // Equal slots: host 0 is hot.
        let (hot, cold, gap) = Autoscaler::hot_cold(two, |_| 8.0).unwrap();
        assert_eq!((hot, cold), (0, 1));
        assert!(gap > 0.3);
        // Host 0 twice the slots: busy fractions even out exactly, so
        // there is no hot/cold pair to report.
        assert!(Autoscaler::hot_cold(two, |h| if h == 0 { 16.0 } else { 8.0 }).is_none());
    }
}
