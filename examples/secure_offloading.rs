//! The Request-based Access Controller in action (§IV-E): a benign app
//! offloads normally while a malicious app probing the platform racks
//! up violations and gets blocked.
//!
//! Run with: `cargo run --release --example secure_offloading`

use rattrap::{AccessController, Action, Denial};

fn main() {
    println!("=== request-based access control demo ===\n");
    let mut controller = AccessController::new(3);

    // Both apps are analyzed on their first offloading request; requests
    // from the same app then share one permission table.
    controller.admit("com.bench.ocr", 280 * 1024);
    controller.admit("com.evil.miner", 4 * 1024);
    println!(
        "analyzed {} apps (analysis happens once per app)\n",
        controller.analyzed_apps()
    );

    // The benign OCR app's workflow sails through the filter.
    let benign = [
        Action::NetConnect { dest: "device-0" },
        Action::FsWrite { bytes: 300 * 1024 },
        Action::BinderCall {
            service: "offloadcontroller",
        },
        Action::SpawnProcess,
    ];
    for action in &benign {
        let verdict = controller.check("com.bench.ocr", action);
        println!(
            "ocr     {action:<55?} → {}",
            if verdict.is_ok() { "allowed" } else { "DENIED" }
        );
    }

    // The malicious app probes beyond its permission table.
    println!();
    let attacks = [
        Action::BinderCall {
            service: "telephony",
        }, // not an offloading service
        Action::WarehouseRead { aid: "8d6d1b5" }, // another app's cached code
        Action::FsWrite {
            bytes: 500 * 1024 * 1024,
        }, // way over its declared payload
        Action::NetConnect { dest: "device-0" },  // legitimate… but too late
    ];
    for action in &attacks {
        let verdict = controller.check("com.evil.miner", action);
        let label = match &verdict {
            Ok(()) => "allowed".to_string(),
            Err(Denial::Violation { .. }) => format!(
                "VIOLATION ({}/3)",
                controller.violation_count("com.evil.miner")
            ),
            Err(Denial::Blocked) => "BLOCKED".to_string(),
        };
        println!("miner   {action:<55?} → {label}");
    }

    println!(
        "\ncom.evil.miner blocked: {} — com.bench.ocr unaffected: {}",
        controller.is_blocked("com.evil.miner"),
        !controller.is_blocked("com.bench.ocr")
    );
    assert!(controller.is_blocked("com.evil.miner"));
    assert!(!controller.is_blocked("com.bench.ocr"));
}
