//! Simulated process table with PID namespaces and Zygote-style forking.
//!
//! Containers get their own PID namespace: pid 1 inside the container is
//! `/init`, exactly as the modified Android init of §IV-B2 expects. The
//! Zygote model matters for the code-cache evaluation: app processes are
//! forked from a warm Zygote rather than cold-started.

use crate::error::{KernelError, KernelResult};
use std::collections::BTreeMap;

/// Lifecycle state of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessState {
    /// Runnable / running.
    Running,
    /// Exited, not yet reaped.
    Zombie,
}

/// One simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Host (global) pid.
    pub pid: u32,
    /// Pid as seen inside its namespace.
    pub ns_pid: u32,
    /// Owning namespace.
    pub namespace: u32,
    /// Command name (e.g. `zygote`, `system_server`).
    pub name: String,
    /// Parent host pid (0 for a namespace's init).
    pub parent: u32,
    /// Current state.
    pub state: ProcessState,
}

/// Global process table spanning all namespaces.
#[derive(Debug, Default)]
pub struct ProcessTable {
    procs: BTreeMap<u32, Process>,
    next_pid: u32,
    /// Next namespace-local pid, per namespace.
    ns_next: BTreeMap<u32, u32>,
}

impl ProcessTable {
    /// Empty table. Host pids start at 1.
    pub fn new() -> Self {
        ProcessTable {
            procs: BTreeMap::new(),
            next_pid: 1,
            ns_next: BTreeMap::new(),
        }
    }

    /// Spawn a process in `namespace`. The first process of a namespace
    /// becomes its init (ns_pid 1).
    pub fn spawn(&mut self, namespace: u32, name: &str, parent: u32) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        let ns_pid_counter = self.ns_next.entry(namespace).or_insert(1);
        let ns_pid = *ns_pid_counter;
        *ns_pid_counter += 1;
        self.procs.insert(
            pid,
            Process {
                pid,
                ns_pid,
                namespace,
                name: name.to_string(),
                parent,
                state: ProcessState::Running,
            },
        );
        pid
    }

    /// Fork `parent_pid` into a new process named `child_name` in the
    /// same namespace (the Zygote specialization path).
    pub fn fork(&mut self, parent_pid: u32, child_name: &str) -> KernelResult<u32> {
        let parent = self
            .procs
            .get(&parent_pid)
            .ok_or(KernelError::NoSuchProcess { pid: parent_pid })?;
        if parent.state == ProcessState::Zombie {
            return Err(KernelError::NoSuchProcess { pid: parent_pid });
        }
        let ns = parent.namespace;
        Ok(self.spawn(ns, child_name, parent_pid))
    }

    /// Look up a process by host pid.
    pub fn get(&self, pid: u32) -> KernelResult<&Process> {
        self.procs
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, pid: u32) -> KernelResult<&mut Process> {
        self.procs
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess { pid })
    }

    /// Mark a process as exited (zombie until reaped).
    pub fn exit(&mut self, pid: u32) -> KernelResult<()> {
        self.get_mut(pid)?.state = ProcessState::Zombie;
        Ok(())
    }

    /// Remove a zombie from the table.
    pub fn reap(&mut self, pid: u32) -> KernelResult<Process> {
        match self.procs.get(&pid) {
            Some(p) if p.state == ProcessState::Zombie => {
                Ok(self.procs.remove(&pid).expect("checked above"))
            }
            Some(_) => Err(KernelError::NotPermitted {
                reason: format!("pid {pid} not a zombie"),
            }),
            None => Err(KernelError::NoSuchProcess { pid }),
        }
    }

    /// Kill every process in `namespace` (container teardown). Returns
    /// the host pids removed, in ascending order.
    pub fn kill_namespace(&mut self, namespace: u32) -> Vec<u32> {
        let victims: Vec<u32> = self
            .procs
            .values()
            .filter(|p| p.namespace == namespace)
            .map(|p| p.pid)
            .collect();
        for pid in &victims {
            self.procs.remove(pid);
        }
        self.ns_next.remove(&namespace);
        victims
    }

    /// All processes in `namespace`, ascending host pid.
    pub fn in_namespace(&self, namespace: u32) -> Vec<&Process> {
        self.procs
            .values()
            .filter(|p| p.namespace == namespace)
            .collect()
    }

    /// Total live processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// `true` if no processes exist.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_process_is_namespace_init() {
        let mut t = ProcessTable::new();
        let init_a = t.spawn(1, "/init", 0);
        let init_b = t.spawn(2, "/init", 0);
        assert_eq!(t.get(init_a).unwrap().ns_pid, 1);
        assert_eq!(
            t.get(init_b).unwrap().ns_pid,
            1,
            "each namespace has its own pid 1"
        );
        assert_ne!(init_a, init_b, "host pids are global");
    }

    #[test]
    fn zygote_fork_inherits_namespace() {
        let mut t = ProcessTable::new();
        let init = t.spawn(7, "/init", 0);
        let zygote = t.fork(init, "zygote").unwrap();
        let app = t.fork(zygote, "com.example.ocr").unwrap();
        let p = t.get(app).unwrap();
        assert_eq!(p.namespace, 7);
        assert_eq!(p.parent, zygote);
        assert_eq!(p.ns_pid, 3);
    }

    #[test]
    fn fork_from_missing_or_dead_parent_fails() {
        let mut t = ProcessTable::new();
        assert!(t.fork(99, "x").is_err());
        let p = t.spawn(1, "a", 0);
        t.exit(p).unwrap();
        assert!(t.fork(p, "x").is_err());
    }

    #[test]
    fn exit_and_reap_lifecycle() {
        let mut t = ProcessTable::new();
        let p = t.spawn(1, "worker", 0);
        assert!(t.reap(p).is_err(), "cannot reap a running process");
        t.exit(p).unwrap();
        let proc = t.reap(p).unwrap();
        assert_eq!(proc.name, "worker");
        assert!(t.get(p).is_err());
    }

    #[test]
    fn kill_namespace_removes_all_members() {
        let mut t = ProcessTable::new();
        let a1 = t.spawn(1, "init", 0);
        t.fork(a1, "zygote").unwrap();
        let b1 = t.spawn(2, "init", 0);
        let killed = t.kill_namespace(1);
        assert_eq!(killed.len(), 2);
        assert_eq!(t.len(), 1);
        assert!(t.get(b1).is_ok());
        // Namespace-local pids restart after teardown.
        let again = t.spawn(1, "init", 0);
        assert_eq!(t.get(again).unwrap().ns_pid, 1);
    }

    #[test]
    fn in_namespace_lists_members() {
        let mut t = ProcessTable::new();
        let i = t.spawn(3, "init", 0);
        t.fork(i, "zygote").unwrap();
        t.spawn(4, "other", 0);
        assert_eq!(t.in_namespace(3).len(), 2);
        assert_eq!(t.in_namespace(4).len(), 1);
        assert!(t.in_namespace(5).is_empty());
    }
}
