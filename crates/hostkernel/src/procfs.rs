//! `/proc`-style introspection of the simulated kernel — the view an
//! operator gets when they SSH into a Rattrap server: `lsmod`, `ps`
//! (with namespace columns), and a memory summary.

use crate::kernel::Kernel;
use crate::module::ANDROID_CONTAINER_DRIVER;
use crate::process::ProcessState;
use std::fmt::Write as _;

/// Render `lsmod`: resident modules with size and use count.
pub fn lsmod(kernel: &Kernel) -> String {
    let mut out = String::from("Module                  Size  Used by\n");
    for spec in ANDROID_CONTAINER_DRIVER {
        if kernel.module_loaded(spec.name) {
            let name = spec.name.trim_end_matches(".ko");
            let _ = writeln!(out, "{name:<20} {:>7}  -", spec.kernel_memory_bytes);
        }
    }
    out
}

/// Render `ps`-like output across all namespaces: host pid, namespace,
/// namespace-local pid, state, command.
pub fn ps(kernel: &Kernel) -> String {
    let mut out = String::from("  PID    NS NSPID STATE    COMMAND\n");
    let mut rows: Vec<_> = Vec::new();
    for ns in kernel.namespace_ids() {
        for p in kernel.processes.in_namespace(ns) {
            rows.push((p.pid, p.namespace, p.ns_pid, p.state, p.name.clone()));
        }
    }
    rows.sort_unstable_by_key(|r| r.0);
    for (pid, ns, ns_pid, state, name) in rows {
        let st = match state {
            ProcessState::Running => "R",
            ProcessState::Zombie => "Z",
        };
        let _ = writeln!(out, "{pid:>5} {ns:>5} {ns_pid:>5} {st:<8} {name}");
    }
    out
}

/// Render a `/proc/meminfo`-flavoured summary of kernel memory.
pub fn meminfo(kernel: &Kernel) -> String {
    let host = kernel.host();
    format!(
        "MemTotal:    {:>12} kB\nKernelMods:  {:>12} kB\nNamespaces:  {:>12}\nProcesses:   {:>12}\n",
        host.memory_bytes / 1024,
        kernel.kernel_memory() / 1024,
        kernel.namespace_count(),
        kernel.processes.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::HostSpec;

    fn kernel_with_container() -> Kernel {
        let mut k = Kernel::new(HostSpec::paper_server());
        k.load_android_container_driver();
        let ns = k.create_namespace();
        let init = k.processes.spawn(ns, "/init", 0);
        k.processes.fork(init, "zygote").unwrap();
        k
    }

    #[test]
    fn lsmod_lists_loaded_modules_only() {
        let mut k = Kernel::new(HostSpec::paper_server());
        assert!(!lsmod(&k).contains("android_binder"));
        k.load_android_container_driver();
        let out = lsmod(&k);
        assert!(out.contains("android_binder"));
        assert!(out.contains("ashmem"));
        k.unload_module("ashmem.ko").unwrap();
        assert!(
            !lsmod(&k).contains("ashmem "),
            "unloaded module disappears:\n{}",
            lsmod(&k)
        );
    }

    #[test]
    fn ps_shows_namespace_columns() {
        let k = kernel_with_container();
        let out = ps(&k);
        assert!(out.contains("/init"));
        assert!(out.contains("zygote"));
        // Namespace-local pid 1 for init, 2 for zygote.
        let init_line = out.lines().find(|l| l.contains("/init")).unwrap();
        assert!(init_line.split_whitespace().nth(2) == Some("1"));
    }

    #[test]
    fn ps_marks_zombies() {
        let mut k = kernel_with_container();
        let pid = k.processes.spawn(1, "dying", 0);
        k.processes.exit(pid).unwrap();
        let out = ps(&k);
        let line = out.lines().find(|l| l.contains("dying")).unwrap();
        assert!(line.contains(" Z "), "{line}");
    }

    #[test]
    fn ps_lists_namespaces_past_a_gap() {
        // A host that has churned through containers: namespaces 1–69
        // are gone, and only the 70th still runs a process.
        let mut k = Kernel::new(HostSpec::paper_server());
        for _ in 0..70 {
            k.create_namespace();
        }
        for ns in 1..70 {
            k.destroy_namespace(ns).unwrap();
        }
        k.processes.spawn(70, "survivor", 0);
        let out = ps(&k);
        let line = out.lines().find(|l| l.contains("survivor"));
        assert!(
            line.is_some_and(|l| l.split_whitespace().nth(1) == Some("70")),
            "{out}"
        );
    }

    #[test]
    fn meminfo_reports_module_memory() {
        let k = kernel_with_container();
        let out = meminfo(&k);
        assert!(out.contains("MemTotal:"));
        assert!(out.contains(&format!("{}", k.kernel_memory() / 1024)));
        assert!(out.contains("Processes:"));
    }
}
