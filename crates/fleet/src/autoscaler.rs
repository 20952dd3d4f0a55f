//! The fleet Autoscaler: `rattrap::scheduler::Monitor` lifted to host
//! granularity.
//!
//! Each scan observes every active host's admitted-request count into
//! the same EWMA monitor the per-host scheduler uses for containers
//! (hosts are keyed as pseudo-instances). Sustained saturation earns
//! scale-up credits, sustained slack earns scale-down credits; an
//! action fires only when the credit budget is spent, so one bursty
//! scan can never flap the fleet.

use crate::config::AutoscalePolicy;
use rattrap::Monitor;
use simkit::SimTime;
use std::collections::BTreeSet;
use virt::InstanceId;

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
    monitor: Monitor,
    credits: i64,
}

impl Autoscaler {
    /// An autoscaler under `policy`.
    pub fn new(policy: AutoscalePolicy) -> Self {
        Autoscaler {
            policy,
            monitor: Monitor::new(policy.alpha),
            credits: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> AutoscalePolicy {
        self.policy
    }

    /// Feed one host's admitted-request count for this scan.
    pub fn observe(&mut self, host: usize, admitted: u32) {
        self.monitor.observe(InstanceId(host as u32), admitted);
    }

    /// Drop a host's signal (crash or release).
    pub fn forget(&mut self, host: usize) {
        self.monitor.forget(InstanceId(host as u32));
    }

    /// Smoothed load of `host`.
    pub fn load_of(&self, host: usize) -> f64 {
        self.monitor.load_of(InstanceId(host as u32))
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
