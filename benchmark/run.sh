#!/usr/bin/env bash
# The repo benchmark's one command (see README.md, ../BENCHMARK.json).
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--smoke]
#
# Builds the benchmark package from source (release, offline) and runs one
# process per workload — every workload when --workload is absent — so
# peak_rss_mb is per workload. Metrics go to stdout, one per line by name
# with their unit; the last line of each workload is its result object.
# Exits non-zero if a build fails or any correctness check does.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
BENCH_RUSTC="$(rustc --version)"
export BENCH_RUSTC
bin="$CARGO_TARGET_DIR/release/stopss-benchmark"

# Pin the process — the driver thread and the broker's notification worker
# — to one CPU. On the shared two-vCPU hosts this runs on, the hypervisor
# gives the guest two real cores for minutes and then one: unpinned, the
# two-thread workloads flip between two throughputs 25 % apart (serve-fanout
# 1 950 vs 1 560 events/s) and no statistic within a run can tell which
# it got. Pinned, they always measure the one-core deployment.
pin=()
if command -v taskset >/dev/null 2>&1; then
    cpu="$(taskset -cp $$ 2>/dev/null | sed -e 's/.*: *//' -e 's/.*[,-]//')"
    if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
        pin=(taskset -c "$cpu")
        export BENCH_PINNED_CPU="$cpu"
    fi
fi

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec ${pin[@]+"${pin[@]}"} "$bin" "$@"
    fi
done
status=0
for workload in match-fanout match-closure churn-index serve-fanout serve-selective session-resume; do
    ${pin[@]+"${pin[@]}"} "$bin" --workload "$workload" "$@" || status=$?
done
exit "$status"
