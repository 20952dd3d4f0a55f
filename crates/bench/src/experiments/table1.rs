//! Table I — overheads of code runtime environments: setup time,
//! memory footprint, CPU allocation, disk usage. Plus the §VI-B setup
//! speedups (4.22× / 16.41×).

use super::ExperimentOutput;
use analysis::{fnum, fx, Scorecard, Table};
use hostkernel::HostSpec;
use rattrap::config::paper;
use simkit::units::format_bytes;
use virt::{CloudHost, RuntimeClass};

/// Run the Table I measurement: provision one runtime of each class on
/// a fresh host and read off its overheads.
pub fn run(_seed: u64) -> ExperimentOutput {
    let mut table = Table::new(
        "Table I — Overheads of code runtime environments",
        &["Code Runtime", "Setup Time", "Memory", "CPU", "Disk Usage"],
    );
    let mut setups = Vec::new();
    let mut sc = Scorecard::new();

    for (i, class) in RuntimeClass::ALL.iter().enumerate() {
        // Fresh host per class: Table I measures a single instance on a
        // steady-state server (the Android Container Driver is already
        // resident — its one-time insmod cost is an ablation, not part
        // of Table I's setup time).
        let mut host = CloudHost::new(HostSpec::paper_server());
        host.kernel.load_android_container_driver();
        let base_disk = host.total_disk_usage();
        let (id, setup) = host.provision(*class).expect("fresh host has room");
        let inst = host.instance(id).expect("just provisioned");
        let spec = class.spec();
        let disk = inst.exclusive_disk_bytes();
        // The optimized container additionally relies on the shared
        // layer, published once per host, not per instance.
        let _ = base_disk;
        table.row(&[
            class.label().to_string(),
            format!("{:.2}s", setup.as_secs_f64()),
            format_bytes(spec.memory_bytes),
            format!("{}vCPU", spec.vcpus),
            format_bytes(disk),
        ]);
        setups.push(setup.as_secs_f64());
        sc.within(
            &format!("setup time: {}", class.label()),
            paper::SETUP_TIMES_S[i],
            setup.as_secs_f64(),
            0.02,
        );
        sc.within(
            &format!("memory: {}", class.label()),
            paper::MEMORY_MIB[i] as f64,
            spec.memory_bytes as f64 / (1024.0 * 1024.0),
            0.01,
        );
    }

    let s_wo = setups[0] / setups[1];
    let s_opt = setups[0] / setups[2];
    sc.within(
        "§VI-B setup speedup, CAC non-optimized",
        paper::SETUP_SPEEDUPS[0],
        s_wo,
        0.03,
    );
    sc.within(
        "§VI-B setup speedup, CAC optimized",
        paper::SETUP_SPEEDUPS[1],
        s_opt,
        0.03,
    );

    let mut body = table.render();
    body.push_str(&format!(
        "\nSetup speedup over VM: CAC(non-opt) {}, CAC {}\n",
        fx(s_wo),
        fx(s_opt)
    ));
    body.push_str(&format!(
        "Memory saving vs VM: CAC(non-opt) {}%, CAC {}%\n",
        fnum((1.0 - 128.0 / 512.0) * 100.0, 0),
        fnum((1.0 - 96.0 / 512.0) * 100.0, 0)
    ));

    // Boot-stage detail (Fig. 6 narrative).
    for class in RuntimeClass::ALL {
        body.push_str(&format!("\n{} boot stages:\n", class.label()));
        for (name, cum) in class.boot_sequence().cumulative() {
            body.push_str(&format!("  {:<38} → {:.2}s\n", name, cum.as_secs_f64()));
        }
    }

    ExperimentOutput {
        id: "Table I",
        body,
        scorecard: sc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper() {
        let out = run(0);
        assert!(out.scorecard.all_ok(), "\n{}", out.scorecard.render());
        assert!(out.body.contains("28.72s"));
        assert!(out.body.contains("1.75s"));
        assert!(out.body.contains("512.0 MiB"));
        assert!(
            out.body.contains("6.8 MiB"),
            "optimized CAC disk:\n{}",
            out.body
        );
    }
}
