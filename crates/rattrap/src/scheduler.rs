//! Monitor & Scheduler (§IV-A, Fig. 4).
//!
//! Rattrap "conducts resource scheduling at process-level, rather than
//! at VM-level in existing platforms": because Cloud Android Containers
//! are ordinary process groups under cgroups, the platform can act on
//! per-instance state cheaply — grow a warm pool before requests
//! arrive and reclaim idle instances. [`PoolPolicy`] is that rule, read
//! by the paper engine and by every fleet and geo host shard alike.
//! `cpu.shares` rebalancing is not modelled: the server CPU splits its
//! cores equally among running jobs and never reads a cgroup's weight
//! (DESIGN.md §5).

use crate::config::IDLE_TEARDOWN;
use simkit::{SimDuration, SimTime};

/// Pool-management policy: pre-start `warm_spares` spares, and reclaim
/// instances idle past `idle_teardown`, never below the spare floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolPolicy {
    /// Ready-and-idle instances to keep pre-provisioned. Zero restores
    /// pure on-demand provisioning (the paper's default prototype); the
    /// paper notes pre-starting trades resource cost for cold starts —
    /// this knob is the ablation for that trade-off.
    pub warm_spares: usize,
    /// Never exceed this many instances.
    pub max_instances: usize,
    /// Reclaim instances idle for at least this long.
    pub idle_teardown: SimDuration,
}

impl PoolPolicy {
    /// `warm_spares` spares and at most `max_instances` instances, under
    /// the platform's keep-alive ([`IDLE_TEARDOWN`]).
    pub fn new(warm_spares: usize, max_instances: usize) -> Self {
        PoolPolicy {
            warm_spares,
            max_instances,
            idle_teardown: IDLE_TEARDOWN,
        }
    }

    /// Instances to start now, given the `spares` (ready-idle plus
    /// booting — booting ones count, so the pool is not over-provisioned
    /// while they come up) and the `instances` that exist: the spares
    /// short of `warm_spares`, capped by `max_instances`.
    pub fn to_start(&self, spares: usize, instances: usize) -> usize {
        let short = self.warm_spares.saturating_sub(spares);
        short.min(self.max_instances.saturating_sub(instances))
    }

    /// Whether an instance idle since `since` has outlived the
    /// keep-alive at `now`.
    pub fn expired(&self, since: SimTime, now: SimTime) -> bool {
        now.saturating_since(since) >= self.idle_teardown
    }

    /// How many of the `expired` idle instances to reclaim when `idle`
    /// are idle in all: never below the floor, which is `warm_spares`,
    /// or zero on a draining host. Callers reclaim the oldest ids first,
    /// so the newest spares stay warm.
    pub fn to_reclaim(&self, expired: usize, idle: usize, draining: bool) -> usize {
        let floor = if draining { 0 } else { self.warm_spares };
        expired.min(idle.saturating_sub(floor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_demand_policy_never_pre_provisions() {
        assert_eq!(PoolPolicy::new(0, 8).to_start(0, 0), 0);
    }

    #[test]
    fn warm_pool_fills_to_target() {
        let pool = PoolPolicy::new(2, 8);
        assert_eq!(pool.to_start(0, 0), 2);
        // One booting instance counts toward the target.
        assert_eq!(pool.to_start(1, 1), 1);
    }

    #[test]
    fn warm_pool_respects_max_instances() {
        // Two busy instances at a cap of two: no provisioning.
        assert_eq!(PoolPolicy::new(4, 2).to_start(0, 2), 0);
    }

    #[test]
    fn busy_pool_with_spares_needs_nothing() {
        // One busy and two ready-idle instances: spare supply 2 ≥ 1.
        assert_eq!(PoolPolicy::new(1, 8).to_start(2, 3), 0);
    }

    #[test]
    fn idle_reclamation_preserves_warm_floor() {
        let mut pool = PoolPolicy::new(1, 8);
        pool.idle_teardown = SimDuration::from_secs(100);
        let expired = |since| pool.expired(SimTime::from_secs(since), SimTime::from_secs(1000));
        assert!(expired(0) && expired(900), "the keep-alive is inclusive");
        assert!(!expired(901));
        // 3 idle, all expired, keep 1 warm → tear down 2.
        assert_eq!(pool.to_reclaim(3, 3, false), 2);
    }

    #[test]
    fn pool_rule_table() {
        // (warm_spares, max_instances, spares, instances, to_start)
        let starts = [
            (2, 8, 0, 0, 2),
            (2, 8, 1, 3, 1),
            (2, 8, 3, 3, 0),
            (4, 5, 0, 3, 2), // capped by max_instances
            (4, 3, 0, 5, 0), // already over the cap
        ];
        for (w, max, spares, n, want) in starts {
            let got = PoolPolicy::new(w, max).to_start(spares, n);
            assert_eq!(got, want, "to_start w={w} max={max} spares={spares} n={n}");
        }
        // (warm_spares, expired, idle, draining, to_reclaim)
        let reclaims = [
            (2, 1, 2, false, 0), // the floor holds with one expired
            (2, 1, 3, false, 1),
            (2, 3, 3, false, 1),
            (2, 2, 2, true, 2), // a draining host keeps no floor
            (1, 2, 3, false, 2),
            (0, 2, 5, false, 2),
            (0, 0, 5, true, 0),
        ];
        for (w, expired, idle, draining, want) in reclaims {
            let got = PoolPolicy::new(w, 8).to_reclaim(expired, idle, draining);
            assert_eq!(got, want, "to_reclaim w={w} {expired}/{idle} {draining}");
        }
    }
}
