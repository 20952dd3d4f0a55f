#!/usr/bin/env bash
# Offline build + unit tests + a smoke pass of every workload (2 s
# serve regions, one simulator repetition at a tenth of the horizon,
# output checks on, bounds off). Under a minute on a warm build.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- --smoke --traced
