//! Property tests for kernel-level invariants.

use hostkernel::{DeviceKind, HostSpec, Kernel, Syscall, SyscallRet, ANDROID_CONTAINER_DRIVER};
use proptest::prelude::*;

proptest! {
    /// Module load/get/put/unload sequences preserve the accounting
    /// invariant: kernel memory equals the sum of resident modules, and
    /// unload only succeeds at zero references.
    #[test]
    fn module_refcount_invariant(gets in 0u32..6, puts in 0u32..6) {
        let mut k = Kernel::new(HostSpec::paper_server());
        k.load_android_container_driver();
        let full: u64 = ANDROID_CONTAINER_DRIVER.iter().map(|m| m.kernel_memory_bytes).sum();
        prop_assert_eq!(k.kernel_memory(), full);
        for _ in 0..gets {
            k.module_get_package().unwrap();
        }
        for _ in 0..puts {
            k.module_put_package();
        }
        let outstanding = gets.saturating_sub(puts);
        let can_unload = k.unload_module("android_binder.ko").is_ok();
        prop_assert_eq!(can_unload, outstanding == 0,
            "outstanding {} → unload {}", outstanding, can_unload);
    }

    /// Namespace-local pids are dense and start at 1, regardless of how
    /// namespaces interleave their spawns.
    #[test]
    fn ns_pids_dense(order in prop::collection::vec(0u32..4, 1..40)) {
        let mut k = Kernel::new(HostSpec::paper_server());
        let namespaces: Vec<u32> = (0..4).map(|_| k.create_namespace()).collect();
        let mut counts = [0u32; 4];
        for &which in &order {
            let ns = namespaces[which as usize];
            let pid = k.processes.spawn(ns, "p", 0);
            counts[which as usize] += 1;
            prop_assert_eq!(k.processes.get(pid).unwrap().ns_pid, counts[which as usize]);
        }
    }

    /// Destroying any subset of namespaces never disturbs the others'
    /// binder state.
    #[test]
    fn namespace_isolation_under_churn(kill in prop::collection::btree_set(0usize..5, 0..5)) {
        let mut k = Kernel::new(HostSpec::paper_server());
        k.load_android_container_driver();
        let mut spaces = Vec::new();
        for i in 0..5 {
            let ns = k.create_namespace();
            let pid = k.processes.spawn(ns, "init", 0);
            k.syscall(pid, Syscall::OpenDevice(DeviceKind::Binder)).unwrap();
            k.syscall(pid, Syscall::BinderRegister { service: &format!("svc-{i}") }).unwrap();
            spaces.push((ns, pid, i));
        }
        for &victim in &kill {
            k.destroy_namespace(spaces[victim].0).unwrap();
        }
        for &(ns, _pid, i) in &spaces {
            if kill.contains(&i) {
                prop_assert!(!k.namespace_exists(ns));
            } else {
                let found = k.binder_mut(ns).unwrap().lookup(&format!("svc-{i}")).is_some();
                prop_assert!(found);
            }
        }
    }

    /// Any sequence of forks followed by exits keeps the process table
    /// consistent: children of exited parents survive, zombies can't fork.
    #[test]
    fn fork_exit_consistency(n_children in 1usize..10) {
        let mut k = Kernel::new(HostSpec::paper_server());
        let ns = k.create_namespace();
        let init = k.processes.spawn(ns, "init", 0);
        let mut pids = vec![init];
        for i in 0..n_children {
            let parent = pids[i % pids.len()];
            if let Ok(SyscallRet::Pid(child)) =
                k.syscall(parent, Syscall::Fork { child_name: &format!("c{i}") })
            {
                pids.push(child);
            }
        }
        let total = pids.len();
        prop_assert_eq!(k.processes.in_namespace(ns).len(), total);
        // Exit the init: everyone else still exists.
        k.processes.exit(init).unwrap();
        let fork_err = k.syscall(init, Syscall::Fork { child_name: "x" }).is_err();
        prop_assert!(fork_err);
        prop_assert_eq!(k.processes.in_namespace(ns).len(), total, "zombie still listed");
        // Namespace teardown clears everything.
        k.destroy_namespace(ns).unwrap();
        prop_assert!(k.processes.in_namespace(ns).is_empty());
    }
}
