//! Sampling profiler for the two engines: runs a named benchmark shape
//! N times under a `SIGPROF` timer and a counting allocator, then prints
//! where the samples fell — by layer and by source line — with the
//! denominators beside them. A tool, not a gate: EXPERIMENTS.md's
//! "Where `fleet_long`'s 280 ms went" and "Where `paper_replay`'s
//! 220 ms went" are its output.
//!
//! Usage: `fleet_prof [long|dense|paper] [--reps N] [--hz N] [--top N]
//! [--allocs N] [--smoke] [--raw]`
//!
//! * `long` (default) is the repo benchmark's `fleet_long` shape (8
//!   hosts, 1 600 users, 1 h), `dense` its `fleet_dense` (128 hosts,
//!   150 000 users, 21 s), `paper` its `paper_replay` (one 70-user × 4 h
//!   LiveLab trace through the paper engine on 3 platforms × 4 apps);
//!   `--smoke` runs a tenth of the horizon.
//! * `--hz 0` turns sampling off (allocation counts only).
//! * `--allocs N` adds one untimed repetition in which every Nth
//!   allocation records its call stack, and prints the allocation sites
//!   (first frame outside std and this file) by share.
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
    use obsv::{Recorder, RecorderConfig};
    use rattrap::{run_scenario, PlatformKind, ReportHasher, ScenarioConfig, Simulation};
    use simkit::SimDuration;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::backtrace::Backtrace;
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::ffi::c_void;
    use std::process::Command;
    use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::Relaxed};
    use std::sync::Mutex;
    use std::time::Instant;
    use traces::TraceConfig;
    use workloads::WorkloadKind;

    /// Counts every allocation the run makes, and records the call
    /// stack of every [`STRIDE`]th; otherwise the system allocator.
    struct Counting;
    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    /// Record every this-many-th allocation's stack; 0 = none.
    static STRIDE: AtomicU64 = AtomicU64::new(0);
    static STACKS: Mutex<Vec<Backtrace>> = Mutex::new(Vec::new());

    thread_local! {
        /// Set while a stack is being recorded: what that allocates is
        /// the profiler's, neither counted nor recorded.
        static RECORDING: Cell<bool> = const { Cell::new(false) };
    }

    /// Count one allocation of the run; every `STRIDE`th keeps its stack.
    fn count() {
        if RECORDING.try_with(Cell::get).unwrap_or(true) {
            return;
        }
        let nth = ALLOCS.fetch_add(1, Relaxed);
        let stride = STRIDE.load(Relaxed);
        if stride != 0 && nth.is_multiple_of(stride) {
            RECORDING.with(|r| r.set(true));
            let stack = Backtrace::force_capture();
            STACKS.lock().expect("no panic while recording").push(stack);
            RECORDING.with(|r| r.set(false));
        }
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract. `count` re-enters the
    // allocator only behind its own `RECORDING` flag (a const-initialised
    // `Cell`, which never allocates), so the recursion ends one level in.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller's `layout` contract is `System`'s.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
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
            ("simkit/src/table.rs", "id-ordered tables"),
            ("simkit/src/", "executor + resource"),
            ("fleet/src/", "fleet control + host LP"),
            ("rattrap/src/", "paper engine (rattrap)"),
            ("hostkernel/src/", "hostkernel"),
            ("netsim/src/", "netsim"),
            ("traces/src/", "trace generation"),
            ("workloads/src/", "workload sampling"),
            ("crates/", "virt / kernel / fs / other crates"),
        ];
        let hit = RULES.iter().find(|(pat, _)| site.contains(pat));
        hit.map_or("std / other", |&(_, layer)| layer)
    }

    /// What a repetition runs: one fleet, or the paper engine's twelve
    /// replays of one trace.
    enum Shape {
        Fleet(Box<FleetConfig>),
        Paper(Vec<ScenarioConfig>),
    }

    /// The benchmark's `paper_replay` input: one LiveLab trace (Fig. 11's
    /// session parameters), every platform × every app.
    fn replay_scenarios(users: u32, horizon_s: u64) -> Vec<ScenarioConfig> {
        let traffic = TraceConfig::fig11(users, SimDuration::from_secs(horizon_s), 7);
        let trace = traces::generate(&traffic);
        PlatformKind::ALL
            .into_iter()
            .flat_map(|platform| WorkloadKind::ALL.map(|kind| (platform, kind)))
            .map(|(platform, kind)| traces::replay_scenario(&traffic, &trace, platform, kind))
            .collect()
    }

    impl Shape {
        /// One repetition. Returns what is checked afterwards, outside
        /// the timed and sampled region: `(requests, digest)` thunk.
        fn run(&self) -> Box<dyn FnOnce() -> (u64, u64)> {
            match self {
                Shape::Fleet(cfg) => {
                    let report = run_fleet(cfg);
                    Box::new(move || (report.summary.submitted, report.digest()))
                }
                Shape::Paper(cfgs) => {
                    let reports: Vec<_> = cfgs.iter().cloned().map(run_scenario).collect();
                    Box::new(move || {
                        let mut fold = ReportHasher::new();
                        let mut requests = 0;
                        for r in &reports {
                            fold.write_u64(r.digest());
                            requests += r.requests.len() as u64;
                        }
                        (requests, fold.finish())
                    })
                }
            }
        }

        /// Events one repetition pops, where the engine counts them
        /// (`rattrap.events_dispatched`, from one traced pass).
        fn events(&self) -> Option<u64> {
            let Shape::Paper(cfgs) = self else {
                return None;
            };
            let popped = cfgs.iter().map(|cfg| {
                let rec = Recorder::enabled(RecorderConfig::with_capacity(1 << 10));
                let mut sim = Simulation::new(cfg.clone());
                sim.set_recorder(rec.clone());
                sim.run();
                rec.snapshot().counters["rattrap.events_dispatched"]
            });
            Some(popped.sum())
        }
    }

    /// Where a recorded allocation came from: the first frame of `stack`
    /// that is neither std's nor this file's, as `file:line`.
    fn allocation_site(stack: &Backtrace) -> String {
        let text = stack.to_string();
        let site = text
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("at "))
            .find(|at| !at.starts_with("/rustc/") && !at.contains("fleet_prof.rs"));
        // `file:line:column`, from the workspace root.
        let site = site.and_then(|at| at.rsplit_once(':')).map(|(s, _)| s);
        site.map_or("? (no frame outside std)", |s| s.trim_start_matches("./"))
            .to_string()
    }

    pub fn main() {
        let stack_top = 0usize;
        STACK_TOP.store(&stack_top as *const usize as usize, Relaxed);

        let (mut shape, mut reps, mut hz, mut top) = ("long", 10u32, 250u64, 40usize);
        let (mut smoke, mut raw, mut stride) = (false, false, 0u64);
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut num = |what: &str| -> u64 {
                let v = args.next().and_then(|v| v.parse().ok());
                v.unwrap_or_else(|| panic!("{what} takes a number"))
            };
            match a.as_str() {
                "long" => shape = "long",
                "dense" => shape = "dense",
                "paper" => shape = "paper",
                "--reps" => reps = num("--reps") as u32,
                "--hz" => hz = num("--hz"),
                "--top" => top = num("--top") as usize,
                "--allocs" => stride = num("--allocs"),
                "--smoke" => smoke = true,
                "--raw" => raw = true,
                other => panic!("unknown argument `{other}`"),
            }
        }
        let (name, hosts, users, horizon_s) = match shape {
            "dense" => ("fleet_dense", 128, 150_000, 21),
            "paper" => ("paper_replay", 1, 70, 4 * 3600),
            _ => ("fleet_long", 8, 1600, 3600),
        };
        let horizon_s = horizon_s / if smoke { 10 } else { 1 };
        let work = if shape == "paper" {
            Shape::Paper(replay_scenarios(users, horizon_s))
        } else {
            let mut cfg = FleetConfig::paper_default(hosts, 7);
            cfg.traffic.users = users;
            cfg.traffic.duration = SimDuration::from_secs(horizon_s);
            Shape::Fleet(Box::new(cfg))
        };

        // One discarded run: lazy statics, the shared image, page faults.
        let (requests, digest) = work.run()();
        let events = work.events();

        install_handler();
        let (mut wall, mut fastest, mut allocs) = (0.0, f64::INFINITY, 0);
        for _ in 0..reps {
            // Only the run is timed, sampled and counted, not the digest
            // check.
            let (began, allocs0) = (Instant::now(), ALLOCS.load(Relaxed));
            set_timer(hz);
            let check = work.run();
            set_timer(0);
            let rep = began.elapsed().as_secs_f64();
            allocs += ALLOCS.load(Relaxed) - allocs0;
            wall += rep;
            fastest = fastest.min(rep);
            assert_eq!(check(), (requests, digest), "the run is deterministic");
        }
        let taken = TAKEN.load(Relaxed).min(CAPACITY);

        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        println!(
            "# fleet_prof shape={name} smoke={smoke} hosts={hosts} users={users} \
             horizon_s={horizon_s} reps={reps} hz={hz} cores={cores} digest={digest:016x}"
        );
        let events = events.map_or(String::new(), |e| format!(" events/rep={e}"));
        println!(
            "# requests/rep={requests}{events} wall/rep={:.1} ms, fastest {:.1} ms  \
             ({:.0} ns/request)  allocations/rep={}  ({:.2} per request)",
            wall * 1e3 / reps as f64,
            fastest * 1e3,
            wall * 1e9 / (reps as f64 * requests as f64),
            allocs / reps as u64,
            allocs as f64 / (reps as f64 * requests as f64),
        );
        println!("samples {taken}");

        if stride > 0 {
            STRIDE.store(stride, Relaxed);
            let check = work.run();
            STRIDE.store(0, Relaxed);
            drop(check);
            let stacks = std::mem::take(&mut *STACKS.lock().expect("recording is over"));
            let mut sites: BTreeMap<String, u64> = BTreeMap::new();
            for stack in &stacks {
                *sites.entry(allocation_site(stack)).or_default() += 1;
            }
            let mut sites: Vec<_> = sites.into_iter().collect();
            sites.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
            println!(
                "\n{:<72} {:>8} {:>7}",
                format!("allocation sites (every {stride}th of one repetition)"),
                "stacks",
                "share"
            );
            for (site, n) in sites.iter().take(top) {
                let share = 100.0 * *n as f64 / stacks.len() as f64;
                println!("{site:<72} {n:>8} {share:>6.1}%");
            }
        }
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
