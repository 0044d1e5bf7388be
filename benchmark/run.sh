#!/usr/bin/env bash
# softmem-e2e: build kv_server + smd_daemon + the benchmark in release,
# then run it. All arguments go to the driver:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#
# Without --workload all four workloads run. The last stdout line per
# workload is one JSON object; everything else is for people.
set -euo pipefail

# A relative CARGO_TARGET_DIR is relative to where we were called from.
target="${CARGO_TARGET_DIR:-}"
case "$target" in "" | /*) ;; *) target="$PWD/$target" ;; esac

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${target:-$PWD/target}"

# Cargo's progress goes to stderr; stdout stays the benchmark's.
# --manifest-path: without the repository around it (a directory that
# holds only the benchmark) this must fail, not walk up to some other
# Cargo.toml.
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p softmem-kv --bin kv_server -p softmem-daemon --bin smd_daemon >&2
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --bins >&2

# Hard stop for a wedged run; the driver's children die with it
# (PR_SET_PDEATHSIG) and SIGTERM is handled for a clean sweep first.
exec timeout --signal=TERM --kill-after=5 170 \
    "$CARGO_TARGET_DIR/release/softmem-e2e" "$@"
