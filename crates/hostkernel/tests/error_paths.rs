//! Error-path coverage for the kernel's driver surface, table-driven.
//!
//! Every case pins the *precise* `KernelError` (not just `is_err()`):
//! the fleet's crash-recovery and the simcheck harness's
//! "ENODEV iff module unloaded" invariant both pattern-match on these
//! variants, so a drive-by change from `NoSuchDevice` to `NotFound`
//! (say) is a behavioural break, not a refactor.

use hostkernel::logger::{LogRecord, LoggerDriver};
use hostkernel::{DeviceKind, HostSpec, Kernel, KernelError, Syscall};

fn kernel() -> Kernel {
    Kernel::new(HostSpec::paper_server())
}

/// A kernel with the full Android Container Driver loaded and one
/// namespace that has opened every Android device node.
fn booted() -> (Kernel, u32) {
    let mut k = kernel();
    k.load_android_container_driver();
    let ns = k.create_namespace();
    for kind in DeviceKind::ALL {
        k.open_device(ns, kind).expect("modules are loaded");
    }
    (k, ns)
}

/// One error-path case: a named scenario, the operation under test,
/// and the exact error it must produce.
struct Case {
    name: &'static str,
    run: fn() -> Result<(), KernelError>,
    expect: fn(&KernelError) -> bool,
    expect_desc: &'static str,
}

/// Driver-surface operations against a kernel whose module was
/// unloaded out from under a namespace that had opened its node. All of
/// them must be `ENODEV` on the unloaded device — never a success
/// that silently reads stale state, and never a `NotFound` that
/// misattributes the failure to the object instead of the device.
#[test]
fn unloaded_module_error_paths() {
    let cases: Vec<Case> = vec![
        Case {
            name: "alarm access after rmmod android_alarm.ko",
            run: || {
                let (mut k, ns) = booted();
                k.unload_module("android_alarm.ko")?;
                k.device(ns, DeviceKind::Alarm)
            },
            expect: |e| matches!(e, KernelError::NoSuchDevice { device } if *device == "/dev/alarm"),
            expect_desc: "NoSuchDevice(/dev/alarm)",
        },
        Case {
            name: "logger write after rmmod android_logger.ko",
            run: || {
                let (mut k, ns) = booted();
                k.unload_module("android_logger.ko")?;
                k.logger_mut(ns).map(|_| ())
            },
            expect: |e| matches!(e, KernelError::NoSuchDevice { device } if *device == "/dev/log/main"),
            expect_desc: "NoSuchDevice(/dev/log/main)",
        },
        Case {
            name: "ashmem access after rmmod ashmem.ko",
            run: || {
                let (mut k, ns) = booted();
                k.unload_module("ashmem.ko")?;
                k.device(ns, DeviceKind::Ashmem)
            },
            expect: |e| matches!(e, KernelError::NoSuchDevice { device } if *device == "/dev/ashmem"),
            expect_desc: "NoSuchDevice(/dev/ashmem)",
        },
        Case {
            name: "sw_sync access after rmmod sw_sync.ko",
            run: || {
                let (mut k, ns) = booted();
                k.unload_module("sw_sync.ko")?;
                k.device(ns, DeviceKind::SwSync)
            },
            expect: |e| matches!(e, KernelError::NoSuchDevice { device } if *device == "/dev/sw_sync"),
            expect_desc: "NoSuchDevice(/dev/sw_sync)",
        },
        Case {
            name: "binder access after rmmod android_binder.ko",
            run: || {
                let (mut k, ns) = booted();
                k.unload_module("android_binder.ko")?;
                k.binder_mut(ns).map(|_| ())
            },
            expect: |e| matches!(e, KernelError::NoSuchDevice { device } if *device == "/dev/binder"),
            expect_desc: "NoSuchDevice(/dev/binder)",
        },
    ];

    let mut failures = Vec::new();
    for case in &cases {
        match (case.run)() {
            Ok(()) => failures.push(format!(
                "{}: succeeded, expected {}",
                case.name, case.expect_desc
            )),
            Err(e) if (case.expect)(&e) => {}
            Err(e) => failures.push(format!(
                "{}: got {e:?}, expected {}",
                case.name, case.expect_desc
            )),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The syscall layer surfaces the same `ENODEV` — a process inside a
/// container whose alarm module vanished finds the node dead, exactly
/// as `device` reports it.
#[test]
fn alarm_syscall_is_enodev_after_rmmod() {
    let (mut k, ns) = booted();
    let pid = k.processes.spawn(ns, "timerd", 0);
    k.syscall(pid, Syscall::OpenDevice(DeviceKind::Alarm))
        .expect("module resident: the node opens");
    k.unload_module("android_alarm.ko").unwrap();
    let err = k
        .syscall(pid, Syscall::OpenDevice(DeviceKind::Alarm))
        .unwrap_err();
    assert_eq!(
        err,
        KernelError::NoSuchDevice {
            device: "/dev/alarm"
        }
    );
    assert_eq!(format!("{err}"), "ENODEV: no such device /dev/alarm");
    assert_eq!(k.device(ns, DeviceKind::Alarm), Err(err));
}

/// Logger ring wrap-around at the *exact* buffer boundary. Record
/// size is `20 + tag.len() + message.len()`; with capacity = 2 × 22
/// an exact-fit write must NOT evict (the condition is `used + size >
/// capacity`, not `>=`), and the first byte past it evicts exactly
/// one record.
#[test]
fn logger_ring_wraps_at_exact_boundary() {
    let rec = |tag: &str, msg: &str| LogRecord {
        priority: 4,
        tag: tag.into(),
        message: msg.into(),
        pid: 1,
        at_us: 0,
    };
    // Each record: 20 + 1 + 1 = 22 bytes. Capacity exactly two records.
    let mut log = LoggerDriver::new(44);
    log.write(rec("a", "1"));
    log.write(rec("b", "2"));
    assert_eq!(log.used_bytes(), 44, "ring exactly full");
    assert_eq!(log.len(), 2);
    assert_eq!(log.dropped(), 0, "exact fit does not evict");

    // One more exact-size record: evicts exactly the oldest.
    log.write(rec("c", "3"));
    assert_eq!(log.used_bytes(), 44, "still exactly full after wrap");
    assert_eq!(log.len(), 2);
    assert_eq!(log.dropped(), 1);
    let dump = log.dump();
    assert_eq!(dump[0].tag, "b");
    assert_eq!(dump[1].tag, "c");

    // A record one byte larger evicts two (22 + 23 > 44 twice over).
    log.write(rec("dd", "4")); // 20 + 2 + 1 = 23 bytes
    assert_eq!(log.len(), 1, "both 22-byte records evicted");
    assert_eq!(log.dropped(), 3);
    assert_eq!(log.used_bytes(), 23);
    assert_eq!(log.written(), 4);
}

/// Double-insmod of the same driver is idempotent: `Ok(ZERO)` — no
/// error, no second latency charge, no duplicated kernel memory, and
/// `rmmod` still works once.
#[test]
fn double_insmod_is_idempotent() {
    let mut k = kernel();
    let first = k.load_module("android_alarm.ko").unwrap();
    assert!(!first.is_zero(), "first insmod pays the load latency");
    let mem_after_first = k.kernel_memory();
    let second = k.load_module("android_alarm.ko").unwrap();
    assert!(second.is_zero(), "second insmod is free");
    assert_eq!(
        k.kernel_memory(),
        mem_after_first,
        "no double memory charge"
    );
    k.unload_module("android_alarm.ko").unwrap();
    assert!(!k.module_loaded("android_alarm.ko"));
    assert_eq!(
        k.unload_module("android_alarm.ko").unwrap_err(),
        KernelError::NotFound {
            what: "module android_alarm.ko".into()
        },
        "one rmmod fully unloads an idempotently double-loaded module"
    );
    // An unknown module is NotFound on load, too (not ENODEV — there
    // is no device to be missing).
    assert_eq!(
        k.load_module("nonexistent.ko").unwrap_err(),
        KernelError::NotFound {
            what: "module nonexistent.ko".into()
        }
    );
}
