//! What an operator sees on a Rattrap server: `lsmod` before/after the
//! Android Container Driver loads, `ps` across container namespaces,
//! meminfo, and a container moved between two hosts by checkpoint /
//! teardown / restore — the composition `fleet`'s host LP performs.
//!
//! Run with: `cargo run --release --example host_introspection`

use hostkernel::procfs::{lsmod, meminfo, ps};
use hostkernel::HostSpec;
use simkit::SimDuration;
use virt::{checkpoint, restore, CloudHost, RuntimeClass};

fn main() {
    let mut host_a = CloudHost::new(HostSpec::paper_server());
    println!("=== host A, stock server ===");
    println!("$ lsmod\n{}", lsmod(&host_a.kernel));

    host_a.kernel.load_android_container_driver();
    println!("$ insmod android_container_driver/*.ko");
    println!("$ lsmod\n{}", lsmod(&host_a.kernel));

    let (c1, t1) = host_a
        .provision(RuntimeClass::CacOptimized)
        .expect("fresh host");
    let (_c2, _) = host_a
        .provision(RuntimeClass::CacOptimized)
        .expect("fresh host");
    host_a
        .load_app(c1, "com.bench.chessgame", 2 << 20)
        .expect("live");
    println!("provisioned two cloud android containers (first in {t1})\n");
    println!("$ ps --namespaces\n{}", ps(&host_a.kernel));
    println!("$ cat /proc/meminfo\n{}", meminfo(&host_a.kernel));

    // Move container 1 to a second host over 10 GbE: freeze and
    // serialize, tear the source down, ship the state, rebuild.
    let mut host_b = CloudHost::new(HostSpec::paper_server());
    let (ckpt, freeze) = checkpoint(&host_a, c1).expect("containers checkpoint");
    host_a.teardown(c1).expect("live");
    let transfer = SimDuration::from_secs_f64(ckpt.state_bytes() as f64 / 1.25e9);
    let (c1_on_b, rebuild) = restore(&mut host_b, &ckpt).expect("fresh host");
    println!(
        "$ rattrap migrate cac-{} host-b   # {} MiB of state, {} downtime",
        c1.0,
        ckpt.state_bytes() >> 20,
        freeze + transfer + rebuild
    );
    println!("\n=== host B after migration ===");
    println!("$ ps --namespaces\n{}", ps(&host_b.kernel));
    let reload = host_b
        .load_app(c1_on_b, "com.bench.chessgame", 2 << 20)
        .expect("live");
    println!("chess code still warm on host B: classload cost {reload}");
}
