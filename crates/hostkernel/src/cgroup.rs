//! Control groups — the process-level resource control that lets
//! Rattrap manage containers "at process-level, rather than at
//! VM-level" (§IV-A): one group per runtime, charged for its memory.
//! `cpu.shares` is kept as a weight no simulated CPU reads yet.

use crate::error::{KernelError, KernelResult};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a cgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CgroupId(pub u32);

/// One cgroup with CPU and memory controllers.
#[derive(Debug, Clone)]
pub struct Cgroup {
    /// Human-readable name (container id).
    pub name: String,
    /// `cpu.shares` relative weight (default 1024).
    pub cpu_shares: u32,
    /// `memory.limit_in_bytes`; `u64::MAX` means unlimited.
    pub memory_limit: u64,
    /// Current memory charge.
    pub memory_used: u64,
    /// Peak memory charge (memory.max_usage_in_bytes).
    pub memory_peak: u64,
    /// Member host pids.
    pub members: BTreeSet<u32>,
}

/// The cgroup hierarchy (flat, as LXC uses one group per container).
#[derive(Debug, Default)]
pub struct CgroupManager {
    groups: BTreeMap<u32, Cgroup>,
    /// Which group each attached pid is a member of — the inverse of
    /// every `members` set, so moving a pid touches two groups, not all.
    group_of: BTreeMap<u32, u32>,
    next_id: u32,
}

impl CgroupManager {
    /// Empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a cgroup with the given CPU weight and memory limit.
    pub fn create(&mut self, name: &str, cpu_shares: u32, memory_limit: u64) -> CgroupId {
        let id = self.next_id;
        self.next_id += 1;
        self.groups.insert(
            id,
            Cgroup {
                name: name.to_string(),
                cpu_shares,
                memory_limit,
                memory_used: 0,
                memory_peak: 0,
                members: BTreeSet::new(),
            },
        );
        CgroupId(id)
    }

    /// Remove a cgroup; fails while it still has members.
    pub fn remove(&mut self, id: CgroupId) -> KernelResult<()> {
        match self.groups.get(&id.0) {
            Some(g) if !g.members.is_empty() => Err(KernelError::Busy {
                holder: format!("cgroup {} has members", g.name),
            }),
            Some(_) => {
                self.groups.remove(&id.0);
                Ok(())
            }
            None => Err(KernelError::NotFound {
                what: format!("cgroup {}", id.0),
            }),
        }
    }

    /// Attach a pid to a cgroup (and implicitly detach from any other).
    pub fn attach(&mut self, id: CgroupId, pid: u32) -> KernelResult<()> {
        if !self.groups.contains_key(&id.0) {
            return Err(KernelError::NotFound {
                what: format!("cgroup {}", id.0),
            });
        }
        self.detach(pid);
        self.group_of.insert(pid, id.0);
        self.groups
            .get_mut(&id.0)
            .expect("checked above")
            .members
            .insert(pid);
        Ok(())
    }

    /// Detach a pid from whichever cgroup holds it (process exit).
    pub fn detach(&mut self, pid: u32) {
        if let Some(g) = self.group_of.remove(&pid) {
            let group = self.groups.get_mut(&g).expect("indexed groups exist");
            group.members.remove(&pid);
        }
    }

    /// Charge `bytes` of memory to the group, enforcing the limit.
    pub fn charge_memory(&mut self, id: CgroupId, bytes: u64) -> KernelResult<()> {
        let g = self
            .groups
            .get_mut(&id.0)
            .ok_or_else(|| KernelError::NotFound {
                what: format!("cgroup {}", id.0),
            })?;
        if g.memory_used + bytes > g.memory_limit {
            return Err(KernelError::CgroupLimit {
                what: format!(
                    "{}: {} + {} bytes exceeds memory.limit {}",
                    g.name, g.memory_used, bytes, g.memory_limit
                ),
            });
        }
        g.memory_used += bytes;
        g.memory_peak = g.memory_peak.max(g.memory_used);
        Ok(())
    }

    /// Release a previous memory charge.
    pub fn uncharge_memory(&mut self, id: CgroupId, bytes: u64) -> KernelResult<()> {
        let g = self
            .groups
            .get_mut(&id.0)
            .ok_or_else(|| KernelError::NotFound {
                what: format!("cgroup {}", id.0),
            })?;
        debug_assert!(bytes <= g.memory_used, "uncharging more than charged");
        g.memory_used = g.memory_used.saturating_sub(bytes);
        Ok(())
    }

    /// Update a group's `cpu.shares` weight.
    pub fn set_cpu_shares(&mut self, id: CgroupId, shares: u32) -> KernelResult<()> {
        let g = self
            .groups
            .get_mut(&id.0)
            .ok_or_else(|| KernelError::NotFound {
                what: format!("cgroup {}", id.0),
            })?;
        g.cpu_shares = shares;
        Ok(())
    }

    /// Fraction of total CPU shares this group holds — its fair-share
    /// weight under contention.
    pub fn cpu_fraction(&self, id: CgroupId) -> Option<f64> {
        let total: u64 = self.groups.values().map(|g| g.cpu_shares as u64).sum();
        let g = self.groups.get(&id.0)?;
        if total == 0 {
            return Some(0.0);
        }
        Some(g.cpu_shares as f64 / total as f64)
    }

    /// Immutable access to a group.
    pub fn get(&self, id: CgroupId) -> KernelResult<&Cgroup> {
        self.groups.get(&id.0).ok_or_else(|| KernelError::NotFound {
            what: format!("cgroup {}", id.0),
        })
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` when no groups exist.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_limit_enforced() {
        let mut m = CgroupManager::new();
        // 96 MiB — the optimized Cloud Android Container allocation.
        let g = m.create("cac-1", 1024, 96 * 1024 * 1024);
        m.charge_memory(g, 90 * 1024 * 1024).unwrap();
        let err = m.charge_memory(g, 10 * 1024 * 1024).unwrap_err();
        assert!(matches!(err, KernelError::CgroupLimit { .. }));
        assert_eq!(m.get(g).unwrap().memory_used, 90 * 1024 * 1024);
        m.uncharge_memory(g, 90 * 1024 * 1024).unwrap();
        assert_eq!(m.get(g).unwrap().memory_used, 0);
        assert_eq!(m.get(g).unwrap().memory_peak, 90 * 1024 * 1024);
    }

    #[test]
    fn cpu_fraction_is_relative() {
        let mut m = CgroupManager::new();
        let a = m.create("a", 1024, u64::MAX);
        let b = m.create("b", 3072, u64::MAX);
        assert!((m.cpu_fraction(a).unwrap() - 0.25).abs() < 1e-9);
        assert!((m.cpu_fraction(b).unwrap() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn attach_moves_pid_between_groups() {
        let mut m = CgroupManager::new();
        let a = m.create("a", 1024, u64::MAX);
        let b = m.create("b", 1024, u64::MAX);
        m.attach(a, 42).unwrap();
        m.attach(b, 42).unwrap();
        assert!(!m.get(a).unwrap().members.contains(&42));
        assert!(m.get(b).unwrap().members.contains(&42));
    }

    #[test]
    fn remove_refuses_nonempty_group() {
        let mut m = CgroupManager::new();
        let g = m.create("g", 1024, u64::MAX);
        m.attach(g, 1).unwrap();
        assert!(m.remove(g).is_err());
        let empty = m.create("e", 1024, u64::MAX);
        assert!(m.remove(empty).is_ok());
        m.detach(1);
        m.detach(1); // an unattached pid is nobody's member
        assert!(m.remove(g).is_ok(), "detached, the group can go");
        assert!(m.is_empty());
    }
}
