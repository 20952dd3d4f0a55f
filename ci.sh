#!/usr/bin/env bash
# Repo CI gate: formatting, lints, docs, build, full test suite.
# Run from the repo root. Any failure fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> toolchain pin"
# The golden digests depend on consistent compiled semantics: verify
# the active toolchain matches the channel pinned in
# rust-toolchain.toml. Skipped gracefully where rustup is absent
# (e.g. distro-packaged cargo) — the pin is advisory there.
if command -v rustup >/dev/null 2>&1; then
    pinned=$(sed -n 's/^channel = "\(.*\)"/\1/p' rust-toolchain.toml)
    active=$(rustup show active-toolchain 2>/dev/null | awk 'NR==1{print $1}')
    case "$active" in
        "$pinned"-*|"$pinned")
            echo "    active toolchain '$active' matches pinned channel '$pinned'" ;;
        *)
            echo "    ERROR: active toolchain '$active' does not match pinned channel '$pinned'" >&2
            echo "    (rust-toolchain.toml should have selected it; is an override set?)" >&2
            exit 1 ;;
    esac
else
    echo "    rustup not found; skipping toolchain verification"
fi
rustc --version

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (workspace, deny warnings)"
# Intra-doc links are the only thing that notices a doc comment naming
# a type that was deleted or made private.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
# The suite runs at its own sizes: RATTRAP_BENCH_SMOKE is for the bench
# bins below, and an experiment test that inherits it shrinks past the
# point where its scorecard can pass (exp_robustness sees no retries).
env -u RATTRAP_BENCH_SMOKE cargo test -q --offline

echo "==> vendored stand-ins (rand, proptest, rayon)"
# Not workspace members, so the run above skips them; they carry the
# determinism contract every golden rests on.
cargo test -q --offline -p rand -p proptest -p rayon

echo "==> normal_near's bound (release, 10^8 draws)"
# The ignored simkit test checks |normal_near - libm| <= NORMAL_NEAR_DELTA,
# which the OCR page noise's byte-for-byte equality rests on (~5 s).
cargo test -q --release --offline -p simkit -- --ignored

echo "==> kernel goldens (release: every seed the debug run above skips)"
# The debug suite folds only the first few chess seeds; these fold 200
# seeds at Small and Medium and 20 at Large, and the scanner, Linpack
# and OCR outputs over theirs (~10 s). Two commands, not one `&&` list:
# `set -e` ignores a failure anywhere but the last command of a list.
cargo test -q --release --offline -p exec --test chess_golden --test kernel_goldens --test scan_linpack_golden
cargo test -q --release --offline -p workloads --test goldens

echo "==> examples"
# The test build compiles them; run each, so one that panics or exits
# non-zero fails the gate (about 0.4 s for all five in release).
for example in examples/*.rs; do
    cargo run --release --offline -q -p rattrap-bench --example "$(basename "$example" .rs)" >/dev/null
done

# Optional bench smoke: set RATTRAP_BENCH_SMOKE=1 to run the exp_*
# harnesses at reduced size; set RATTRAP_TRACE=<path> to additionally
# capture one instrumented replication as Chrome trace-event JSON and
# validate it (the CI bench-smoke job wires both). Every exp_* binary
# exits non-zero when its scorecard misses, so each run is a gate.
if [ "${RATTRAP_BENCH_SMOKE:-0}" != "0" ]; then
    echo "==> bench smoke (exp_fig9)"
    cargo run --release --offline -p rattrap-bench --bin exp_fig9 >/dev/null
    echo "==> bench smoke (exp_cluster)"
    cargo run --release --offline -p rattrap-bench --bin exp_cluster >/dev/null
    echo "==> bench smoke (exp_geo)"
    cargo run --release --offline -p rattrap-bench --bin exp_geo >/dev/null
    echo "==> bench smoke (exp_mega)"
    cargo run --release --offline -p rattrap-bench --bin exp_mega >/dev/null
    echo "==> bench smoke (exp_storm: scenario plane)"
    cargo run --release --offline -p rattrap-bench --bin exp_storm >/dev/null
    echo "==> bench smoke (exp_scheduler at seeds 1-20: the warm floor holds at every seed)"
    cargo build --release --offline -q -p rattrap-bench --bin exp_scheduler
    for seed in $(seq 1 20); do
        "${CARGO_TARGET_DIR:-target}/release/exp_scheduler" "$seed" >/dev/null
    done
    echo "==> bench smoke (exp_drift: modeled vs real kernel latency)"
    cargo run --release --offline -p rattrap-bench --bin exp_drift >/dev/null
    echo "==> fleet_prof smoke (SIGPROF sampler + counting allocator, 2 repetitions a shape)"
    # A tool, not a gate: it only has to run and see itself running.
    for shape in "long" "paper --smoke"; do
        # shellcheck disable=SC2086  # $shape is a shape and its flag
        samples=$(cargo run --release --offline -p rattrap-bench --bin fleet_prof -- \
            $shape --reps 2 | awk '$1 == "samples" { print $2 }')
        if [ "${samples:-0}" -lt 1 ]; then
            echo "    ERROR: fleet_prof $shape took no sample" >&2
            exit 1
        fi
    done
    echo "==> exec serve probe (offload API end to end)"
    cargo run --release --offline -p rattrap-bench --bin exec_serve -- --probe >/dev/null
    echo "==> repo benchmark smoke (benchmark/check.sh: pinned simulator digests, serve checksums)"
    benchmark/check.sh >/dev/null
    if [ -n "${RATTRAP_TRACE:-}" ]; then
        echo "==> validate trace ($RATTRAP_TRACE)"
        cargo run --release --offline -p rattrap-bench --bin validate_trace -- "$RATTRAP_TRACE"
    fi
fi

echo "==> size"
# ROADMAP counts net-negative lines as a success metric; read them here.
printf '    crates/*/src: %s lines\n' \
    "$(find crates -path '*/src/*' -name '*.rs' | xargs cat | wc -l)"
printf '    examples/ tests/: %s lines\n' \
    "$(find examples/ tests/ -name '*.rs' | xargs cat | wc -l)"

echo "==> surface"
# A `pub fn` under crates/*/src that no other .rs file of the repo names
# is a candidate to delete, make private or gate behind #[cfg(test)]
# (ROADMAP item 16). Each one is listed, and any fails the gate.
pub_fns=$(find crates -path '*/src/*' -name '*.rs' -print0 |
    xargs -0 grep -oH 'pub fn [A-Za-z0-9_]*' | sed 's/:pub fn /:/')
unnamed=$(find crates examples tests benchmark -name target -prune -o -name '*.rs' -print0 |
    xargs -0 grep -oHw '[A-Za-z_][A-Za-z0-9_]*' |
    awk -F: 'NR == FNR { pub[$0] = 1; next }
        !seen[$0]++ { files[$2]++; last[$2] = $1 }
        END {
            for (k in pub) {
                split(k, a, ":")
                if (files[a[2]] == 1 && last[a[2]] == a[1]) print k
            }
        }' <(printf '%s\n' "$pub_fns") - | sort)
printf '    pub fns named nowhere outside their own file: %s\n' \
    "$(printf '%s' "$unnamed" | grep -c .)"
if [ -n "$unnamed" ]; then
    printf '      %s\n' $unnamed
    exit 1
fi

echo "CI OK"
