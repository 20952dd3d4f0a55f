//! Sampling profiler for the fleet engine: runs a named fleet shape N
//! times under a `SIGPROF` timer and a counting allocator, then prints
//! where the samples fell — by layer and by source line — with the
//! denominators beside them. A tool, not a gate: EXPERIMENTS.md's
//! "Where `fleet_long`'s 280 ms went" is its output.
//!
//! Usage: `fleet_prof [long|dense] [--reps N] [--hz N] [--top N] [--smoke] [--raw]`
//!
//! * `long` (default) is the repo benchmark's `fleet_long` shape (8
//!   hosts, 1 600 users, 1 h), `dense` its `fleet_dense` (128 hosts,
//!   150 000 users, 21 s); `--smoke` runs a tenth of the horizon.
//! * `--hz 0` turns sampling off (allocation counts only).
//! * `--raw` prints every sample as `module+0xoffset` frames, leaf
//!   first, instead of resolving them.
//!
//! Std only. The handler stores the interrupted RIP and a short
//! frame-pointer chain read from the `ucontext`; addresses are resolved
//! after the run with the `addr2line` / `nm` found on `PATH`. Callers
//! are only as good as the frame pointers: build with
//! `RUSTFLAGS=-Cforce-frame-pointers=yes` to trust anything past the
//! leaf (the layer table uses leaves only). Linux on x86-64; a stub
//! elsewhere.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod prof {
    use fleet::{run_fleet, FleetConfig};
    use simkit::SimDuration;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::collections::BTreeMap;
    use std::ffi::c_void;
    use std::process::Command;
    use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::Relaxed};
    use std::time::Instant;

    /// Counts every allocation the run makes; otherwise the system
    /// allocator.
    struct Counting;
    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter is a
    // statistic and publishes nothing.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            // SAFETY: the caller's `layout` contract is `System`'s.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            // SAFETY: as `dealloc`; `new_size` is the caller's contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Frames kept per sample: the interrupted RIP plus callers.
    const DEPTH: usize = 6;
    /// Sample slots; at 250 Hz this is four minutes of CPU time.
    const CAPACITY: usize = 1 << 16;

    /// `CAPACITY × DEPTH` words, leaked in `main` before the timer
    /// starts; the handler only ever writes through it.
    static SAMPLES: AtomicPtr<usize> = AtomicPtr::new(std::ptr::null_mut());
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    /// Upper bound of the stack the handler may walk: a local of `main`.
    static STACK_TOP: AtomicUsize = AtomicUsize::new(0);

    // glibc, x86-64.
    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offsets of `uc_mcontext.gregs[REG_RBP | REG_RSP | REG_RIP]`
    /// in `ucontext_t`: `gregs` starts at 40, registers are 8 bytes.
    const UC_RBP: usize = 40 + 8 * 10;
    const UC_RSP: usize = 40 + 8 * 15;
    const UC_RIP: usize = 40 + 8 * 16;

    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    /// The `SIGPROF` handler: atomics and raw loads/stores only.
    extern "C" fn on_prof(_sig: i32, _info: *mut c_void, uctx: *mut c_void) {
        let buf = SAMPLES.load(Relaxed);
        let slot = TAKEN.fetch_add(1, Relaxed);
        if buf.is_null() || slot >= CAPACITY {
            return;
        }
        let reg = |offset: usize| {
            // SAFETY: the kernel hands a `SA_SIGINFO` handler a valid
            // `ucontext_t`; the three offsets lie inside its `gregs`.
            unsafe { uctx.cast::<u8>().add(offset).cast::<usize>().read() }
        };
        let (rsp, top) = (reg(UC_RSP), STACK_TOP.load(Relaxed));
        let mut frames = [0usize; DEPTH];
        frames[0] = reg(UC_RIP);
        let mut fp = reg(UC_RBP);
        let mut floor = rsp;
        for frame in &mut frames[1..] {
            // A frame record is two words on this thread's stack, above
            // the interrupted stack pointer and above the last record.
            if fp < floor || fp % 8 != 0 || fp.saturating_add(16) > top {
                break;
            }
            // SAFETY: `[fp, fp + 16)` lies between the interrupted
            // stack pointer and a live local of `main` on this thread's
            // stack (checked above), which is mapped and readable.
            let (next, ret) = unsafe {
                let record = fp as *const usize;
                (record.read(), record.add(1).read())
            };
            *frame = ret;
            floor = fp + 16;
            fp = next;
        }
        for (i, &frame) in frames.iter().enumerate() {
            // SAFETY: `slot < CAPACITY`, so the index is inside the
            // `CAPACITY × DEPTH` buffer; each slot is claimed once.
            unsafe { buf.add(slot * DEPTH + i).write(frame) };
        }
    }

    fn set_timer(hz: u64) {
        // A zero interval disarms the timer.
        let tick = || TimeVal {
            sec: 0,
            usec: 1_000_000u64.checked_div(hz).unwrap_or(0) as i64,
        };
        let timer = ITimerVal {
            interval: tick(),
            value: tick(),
        };
        // SAFETY: `timer` is a valid `itimerval`; a null `old` is allowed.
        let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer(ITIMER_PROF)");
    }

    fn install_handler() {
        let buf = vec![0usize; CAPACITY * DEPTH].into_boxed_slice();
        SAMPLES.store(Box::leak(buf).as_mut_ptr(), Relaxed);
        let act = SigAction {
            handler: on_prof as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `act` matches glibc's x86-64 `struct sigaction`; the
        // handler is async-signal-safe (see `on_prof`); a null `old` is
        // allowed.
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction(SIGPROF)");
    }

    /// One executable mapping of this process.
    struct Module {
        path: String,
        /// Load base: the start of the file's first mapping.
        base: usize,
        text: std::ops::Range<usize>,
    }

    fn modules() -> Vec<Module> {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        let mut bases: BTreeMap<String, usize> = BTreeMap::new();
        let mut out = Vec::new();
        for line in maps.lines() {
            let mut f = line.split_whitespace();
            let (Some(range), Some(perms)) = (f.next(), f.next()) else {
                continue;
            };
            let Some(path) = f.nth(3).filter(|p| p.starts_with('/')) else {
                continue;
            };
            let Some((lo, hi)) = range.split_once('-') else {
                continue;
            };
            let parse = |s: &str| usize::from_str_radix(s, 16).expect("hex address");
            let (lo, hi) = (parse(lo), parse(hi));
            let base = *bases.entry(path.to_string()).or_insert(lo);
            if perms.contains('x') {
                out.push(Module {
                    path: path.to_string(),
                    base,
                    text: lo..hi,
                });
            }
        }
        out
    }

    /// `(module index, offset)` of `addr`, if it is in mapped code.
    fn locate(mods: &[Module], addr: usize) -> Option<(usize, usize)> {
        let m = mods.iter().position(|m| m.text.contains(&addr))?;
        Some((m, addr - mods[m].base))
    }

    /// Source location (`file:line`) of each offset in `path`, by
    /// `addr2line`; `None` when the tool is missing. Code inlined from
    /// `core` is charged to the first frame of its inline chain that
    /// says more: this workspace's, or a std collection's.
    fn addr2line(path: &str, offsets: &[usize]) -> Option<Vec<String>> {
        let args = offsets.iter().map(|o| format!("{o:#x}"));
        let out = Command::new("addr2line")
            .args(["-a", "-i", "-e", path])
            .args(args)
            .output()
            .ok()?;
        let text = String::from_utf8_lossy(&out.stdout);
        let telling = |f: &&&str| {
            !f.contains("/rustc/")
                || f.contains("/collections/")
                || f.contains("alloc/src/alloc.rs")
        };
        let chains = text.split("0x").skip(1).map(|group| {
            // The first line is the address `-a` echoes back.
            let frames: Vec<&str> = group.lines().skip(1).collect();
            let pick = frames.iter().find(telling).or(frames.first());
            pick.map_or_else(|| "?".to_string(), |f| f.to_string())
        });
        Some(chains.collect())
    }

    /// Dynamic symbols of a shared object as `(offset, name)`, sorted.
    fn dyn_symbols(path: &str) -> Vec<(usize, String)> {
        let Ok(out) = Command::new("nm")
            .args(["-D", "--defined-only", path])
            .output()
        else {
            return Vec::new();
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut syms: Vec<(usize, String)> = text
            .lines()
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                let (addr, _kind, name) = (f.next()?, f.next()?, f.next()?);
                let name = name.split('@').next()?.to_string();
                Some((usize::from_str_radix(addr, 16).ok()?, name))
            })
            .collect();
        syms.sort();
        syms
    }

    /// The layer a leaf belongs to, from where its code lives. Shared
    /// objects carry no symbol table here, only exports: a libc leaf is
    /// named after the nearest export below it, which for the
    /// allocator's internals is one of its own entry points and for the
    /// `mem*` / `str*` kernels (selected at load time, never exported)
    /// is noise.
    fn layer_of(site: &str) -> &'static str {
        if site.starts_with("libc.so") {
            let heap = ["alloc", "free", "morecore"]
                .iter()
                .any(|w| site.contains(w));
            return if heap {
                "malloc/free"
            } else {
                "libc mem* / str*"
            };
        }
        if site == "libm.so.6 round" {
            return "time rounding";
        }
        const RULES: &[(&str, &str)] = &[
            ("simkit/src/event.rs", "event queue"),
            ("collections/binary_heap", "event queue"),
            ("collections/btree", "BTreeMap"),
            ("alloc/src/alloc.rs", "malloc/free"),
            ("fleet_prof.rs", "malloc/free"),
            ("simkit/src/random.rs", "RNG + libm"),
            ("vendor/rand", "RNG + libm"),
            ("libm.so", "RNG + libm"),
            ("simkit/src/shard.rs", "window runner"),
            ("simkit/src/time.rs", "time rounding"),
            // The software `f64::round` baseline x86-64 falls back to.
            ("compiler-builtins", "time rounding"),
            ("simkit/src/", "executor + resource"),
            ("fleet/src/", "fleet control + host LP"),
            ("netsim/src/", "netsim"),
            ("traces/src/", "trace generation"),
            ("workloads/src/", "workload sampling"),
            ("crates/", "virt / kernel / fs / other crates"),
        ];
        let hit = RULES.iter().find(|(pat, _)| site.contains(pat));
        hit.map_or("std / other", |&(_, layer)| layer)
    }

    pub fn main() {
        let stack_top = 0usize;
        STACK_TOP.store(&stack_top as *const usize as usize, Relaxed);

        let (mut shape, mut reps, mut hz, mut top) = ("long", 10u32, 250u64, 40usize);
        let (mut smoke, mut raw) = (false, false);
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut num = |what: &str| -> u64 {
                let v = args.next().and_then(|v| v.parse().ok());
                v.unwrap_or_else(|| panic!("{what} takes a number"))
            };
            match a.as_str() {
                "long" => shape = "long",
                "dense" => shape = "dense",
                "--reps" => reps = num("--reps") as u32,
                "--hz" => hz = num("--hz"),
                "--top" => top = num("--top") as usize,
                "--smoke" => smoke = true,
                "--raw" => raw = true,
                other => panic!("unknown argument `{other}`"),
            }
        }
        let (hosts, users, horizon_s) = match shape {
            "dense" => (128, 150_000, 21),
            _ => (8, 1600, 3600),
        };
        let mut cfg = FleetConfig::paper_default(hosts, 7);
        cfg.traffic.users = users;
        cfg.traffic.duration = SimDuration::from_secs(horizon_s / if smoke { 10 } else { 1 });

        // One discarded run: lazy statics, the shared image, page faults.
        let warm = run_fleet(&cfg);
        let (requests, digest) = (warm.summary.submitted, warm.digest());
        drop(warm);

        install_handler();
        let allocs0 = ALLOCS.load(Relaxed);
        let (mut wall, mut fastest) = (0.0, f64::INFINITY);
        for _ in 0..reps {
            // Only the run is timed and sampled, not the digest check.
            let began = Instant::now();
            set_timer(hz);
            let report = run_fleet(&cfg);
            set_timer(0);
            let rep = began.elapsed().as_secs_f64();
            wall += rep;
            fastest = fastest.min(rep);
            assert_eq!(report.digest(), digest, "the run is deterministic");
        }
        let allocs = ALLOCS.load(Relaxed) - allocs0;
        let taken = TAKEN.load(Relaxed).min(CAPACITY);

        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        println!(
            "# fleet_prof shape=fleet_{shape} smoke={smoke} hosts={hosts} users={users} \
             horizon_s={} reps={reps} hz={hz} cores={cores} digest={digest:016x}",
            cfg.traffic.duration.as_micros() / 1_000_000
        );
        println!(
            "# requests/rep={requests} wall/rep={:.1} ms, fastest {:.1} ms  ({:.0} ns/request)  \
             allocations/rep={}  ({:.2} per request)",
            wall * 1e3 / reps as f64,
            fastest * 1e3,
            wall * 1e9 / (reps as f64 * requests as f64),
            allocs / reps as u64,
            allocs as f64 / (reps as f64 * requests as f64),
        );
        println!("samples {taken}");
        if taken == 0 {
            return;
        }

        // SAFETY: the timer is off, so the handler no longer writes; the
        // buffer was leaked in `install_handler` and holds `CAPACITY ×
        // DEPTH` initialised words.
        let samples =
            unsafe { std::slice::from_raw_parts(SAMPLES.load(Relaxed), CAPACITY * DEPTH) };
        let samples = &samples[..taken * DEPTH];
        let mods = modules();
        if raw {
            for s in samples.chunks(DEPTH) {
                let frames: Vec<String> = s
                    .iter()
                    .take_while(|&&a| a != 0)
                    .map(|&a| match locate(&mods, a) {
                        Some((m, off)) => format!("{}+{off:#x}", mods[m].path),
                        None => format!("?+{a:#x}"),
                    })
                    .collect();
                println!("{}", frames.join(" "));
            }
            return;
        }

        // Leaves only: count per (module, offset), resolve each once.
        let mut leaves: BTreeMap<Option<(usize, usize)>, u64> = BTreeMap::new();
        for s in samples.chunks(DEPTH) {
            *leaves.entry(locate(&mods, s[0])).or_default() += 1;
        }
        let exe = std::env::current_exe().expect("own path");
        let exe = exe.to_string_lossy();
        let mut sites: BTreeMap<String, u64> = BTreeMap::new();
        for (m, module) in mods.iter().enumerate() {
            let offsets: Vec<usize> = leaves
                .keys()
                .flatten()
                .filter(|&&(lm, _)| lm == m)
                .map(|&(_, off)| off)
                .collect();
            if offsets.is_empty() {
                continue;
            }
            let names: Vec<String> = if module.path == exe {
                addr2line(&module.path, &offsets)
                    .unwrap_or_else(|| offsets.iter().map(|o| format!("exe+{o:#x}")).collect())
            } else {
                let syms = dyn_symbols(&module.path);
                let lib = module.path.rsplit('/').next().unwrap_or("?");
                let name = |&off: &usize| {
                    let i = syms.partition_point(|(a, _)| *a <= off);
                    let sym = i.checked_sub(1).map_or("?", |i| syms[i].1.as_str());
                    format!("{lib} {sym}")
                };
                offsets.iter().map(name).collect()
            };
            for (off, name) in offsets.iter().zip(names) {
                *sites.entry(name).or_default() += leaves[&Some((m, *off))];
            }
        }
        if let Some(&n) = leaves.get(&None) {
            *sites
                .entry("? (kernel / vdso / unmapped)".into())
                .or_default() += n;
        }

        let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
        for (site, n) in &sites {
            *layers.entry(layer_of(site)).or_default() += n;
        }
        let share = |n: u64| 100.0 * n as f64 / taken as f64;
        let mut layers: Vec<_> = layers.into_iter().collect();
        layers.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        println!(
            "\n{:<36} {:>8} {:>7}",
            "layer (by leaf)", "samples", "share"
        );
        for (layer, n) in layers {
            println!("{layer:<36} {n:>8} {:>6.1}%", share(n));
        }
        let mut sites: Vec<_> = sites.into_iter().collect();
        sites.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
        println!("\n{:<72} {:>8} {:>7}", "hottest leaves", "samples", "share");
        for (site, n) in sites.iter().take(top) {
            let short = site
                .rsplit_once("/crates/")
                .map_or(site.as_str(), |(_, s)| s);
            println!("{short:<72} {n:>8} {:>6.1}%", share(*n));
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    prof::main();
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("fleet_prof reads x86-64 Linux signal contexts; nothing to do on this target");
}
