//! Monitor & Scheduler (§IV-A, Fig. 4).
//!
//! Rattrap "conducts resource scheduling at process-level, rather than
//! at VM-level in existing platforms": because Cloud Android Containers
//! are ordinary process groups under cgroups, the platform can act on
//! per-instance state cheaply — grow a warm pool before requests
//! arrive and reclaim idle instances. The [`Scheduler`] turns the
//! Container DB's indexes into scale actions the platform applies.
//! `cpu.shares` rebalancing is not modelled: the server CPU splits its
//! cores equally among running jobs and never reads a cgroup's weight
//! (DESIGN.md §5).

use crate::dispatcher::ContainerDb;
use simkit::{SimDuration, SimTime};
use virt::InstanceId;

/// Pool-management policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolPolicy {
    /// Ready-and-idle instances to keep pre-provisioned. Zero restores
    /// pure on-demand provisioning (the paper's default prototype); the
    /// paper notes pre-starting trades resource cost for cold starts —
    /// this knob is the ablation for that trade-off.
    pub warm_spares: usize,
    /// Never exceed this many instances.
    pub max_instances: usize,
    /// Reclaim instances idle for longer than this.
    pub idle_teardown: SimDuration,
}

/// Actions the scheduler asks the platform to take.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaleAction {
    /// Provision this many new instances.
    Provision(usize),
    /// Tear these idle instances down.
    Teardown(Vec<InstanceId>),
}

/// The scheduler.
#[derive(Debug)]
pub struct Scheduler {
    policy: PoolPolicy,
}

impl Scheduler {
    /// A scheduler applying `policy`.
    pub fn new(policy: PoolPolicy) -> Self {
        Scheduler { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> PoolPolicy {
        self.policy
    }

    /// Plan scale actions from a Container-DB snapshot at `now`.
    ///
    /// Keeps `warm_spares` ready-and-idle instances (booting ones count
    /// toward the target so we don't over-provision while they come up)
    /// and reclaims instances idle past the policy window — but never
    /// below the warm-spare floor.
    pub fn plan(&self, db: &ContainerDb, now: SimTime) -> Vec<ScaleAction> {
        let mut actions = Vec::new();
        let ready_idle = db.ready_idle();
        let spare_supply = ready_idle + db.booting();
        if spare_supply < self.policy.warm_spares && db.len() < self.policy.max_instances {
            let want =
                (self.policy.warm_spares - spare_supply).min(self.policy.max_instances - db.len());
            if want > 0 {
                actions.push(ScaleAction::Provision(want));
            }
        }
        // Idle reclamation, preserving the warm floor. Nothing can have
        // been idle long enough before one full window has elapsed.
        if now.as_micros() < self.policy.idle_teardown.as_micros() {
            return actions;
        }
        let cutoff = SimTime::from_micros(
            now.as_micros()
                .saturating_sub(self.policy.idle_teardown.as_micros()),
        );
        let mut reclaimable = db.idle_since(cutoff);
        let keep = self.policy.warm_spares.min(reclaimable.len());
        // Keep the *newest* spares warm; reclaim the oldest first.
        reclaimable.sort_by_key(|id| id.0);
        let victims: Vec<InstanceId> = reclaimable
            .into_iter()
            .take(ready_idle.saturating_sub(keep))
            .collect();
        if !victims.is_empty() {
            actions.push(ScaleAction::Teardown(victims));
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn db_with(n: usize, ready: bool) -> ContainerDb {
        let mut db = ContainerDb::new();
        for i in 0..n {
            db.register(InstanceId(i as u32), t(0), None);
            if ready {
                db.mark_ready(InstanceId(i as u32));
            }
        }
        db
    }

    #[test]
    fn on_demand_policy_never_pre_provisions() {
        let s = Scheduler::new(PoolPolicy {
            warm_spares: 0,
            max_instances: 8,
            idle_teardown: SimDuration::from_secs(120),
        });
        let db = ContainerDb::new();
        assert!(s.plan(&db, t(0)).is_empty());
    }

    #[test]
    fn warm_pool_fills_to_target() {
        let s = Scheduler::new(PoolPolicy {
            warm_spares: 2,
            max_instances: 8,
            idle_teardown: SimDuration::from_secs(120),
        });
        let db = ContainerDb::new();
        assert_eq!(s.plan(&db, t(0)), vec![ScaleAction::Provision(2)]);
        // One booting instance counts toward the target.
        let mut db = ContainerDb::new();
        db.register(InstanceId(0), t(2), None);
        assert_eq!(s.plan(&db, t(0)), vec![ScaleAction::Provision(1)]);
    }

    #[test]
    fn warm_pool_respects_max_instances() {
        let s = Scheduler::new(PoolPolicy {
            warm_spares: 4,
            max_instances: 2,
            idle_teardown: SimDuration::from_secs(120),
        });
        let mut db = db_with(2, true);
        for i in 0..2 {
            db.add_job(InstanceId(i));
        }
        assert!(s.plan(&db, t(0)).is_empty(), "at cap: no provisioning");
    }

    #[test]
    fn busy_pool_with_spares_needs_nothing() {
        let s = Scheduler::new(PoolPolicy {
            warm_spares: 1,
            max_instances: 8,
            idle_teardown: SimDuration::from_secs(120),
        });
        let mut db = db_with(3, true);
        db.add_job(InstanceId(0));
        db.add_job(InstanceId(0));
        // 1 and 2 are ready-idle: spare supply 2 ≥ 1.
        assert!(s.plan(&db, t(10)).is_empty());
    }

    #[test]
    fn idle_reclamation_preserves_warm_floor() {
        let s = Scheduler::new(PoolPolicy {
            warm_spares: 1,
            max_instances: 8,
            idle_teardown: SimDuration::from_secs(100),
        });
        let db = db_with(3, true);
        let actions = s.plan(&db, t(1000));
        // 3 idle, keep 1 warm → tear down 2 (oldest ids first).
        assert_eq!(
            actions,
            vec![ScaleAction::Teardown(vec![InstanceId(0), InstanceId(1)])]
        );
    }
}
