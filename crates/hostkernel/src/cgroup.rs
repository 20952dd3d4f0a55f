//! Control groups — the process-level grouping that lets Rattrap manage
//! containers "at process-level, rather than at VM-level" (§IV-A): one
//! group per runtime, holding its anchor process. No controller is
//! modelled: nothing the simulators report reads a memory charge or a
//! CPU weight (DESIGN.md §5 records when that would change).

use crate::error::{KernelError, KernelResult};
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of a cgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CgroupId(pub u32);

/// One cgroup.
#[derive(Debug, Clone)]
pub struct Cgroup {
    /// Human-readable name (container id).
    pub name: String,
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

    /// Create an empty cgroup.
    pub fn create(&mut self, name: &str) -> CgroupId {
        let id = self.next_id;
        self.next_id += 1;
        self.groups.insert(
            id,
            Cgroup {
                name: name.to_string(),
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
    fn attach_moves_pid_between_groups() {
        let mut m = CgroupManager::new();
        let a = m.create("a");
        let b = m.create("b");
        m.attach(a, 42).unwrap();
        m.attach(b, 42).unwrap();
        assert!(!m.get(a).unwrap().members.contains(&42));
        assert!(m.get(b).unwrap().members.contains(&42));
    }

    #[test]
    fn remove_refuses_nonempty_group() {
        let mut m = CgroupManager::new();
        let g = m.create("g");
        m.attach(g, 1).unwrap();
        assert!(m.remove(g).is_err());
        let empty = m.create("e");
        assert!(m.remove(empty).is_ok());
        m.detach(1);
        m.detach(1); // an unattached pid is nobody's member
        assert!(m.remove(g).is_ok(), "detached, the group can go");
        assert!(m.is_empty());
    }
}
