#!/usr/bin/env bash
# Steadiness of the benchmark itself: runs every workload (or the one
# named by --workload) on RUNS different seeds and prints, per end-to-end
# metric, the distance between the first and third quartile of its values
# as a share of their median, next to the bound BENCHMARK.json records.
# A spread above a third of its bound is flagged: lengthen the run or fix
# the workload before trusting a comparison on that metric.
#
#   benchmark/spread.sh [--workload W] [--runs 10] [--first-seed 1] [--save FILE]
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
workloads="match-fanout match-closure churn-index serve-fanout serve-selective session-resume"
runs=10
first=1
save=""
while [ $# -gt 0 ]; do
    case "$1" in
    --workload) workloads="$2" ;;
    --runs) runs="$2" ;;
    --first-seed) first="$2" ;;
    --save) save="$2" ;;
    *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
out="$(mktemp -p "${TMPDIR:-/tmp}" spread.XXXXXX)"
trap 'rm -f "$out"' EXIT
for workload in $workloads; do
    for k in $(seq 0 $((runs - 1))); do
        benchmark/run.sh --workload "$workload" --seed $((first + k)) --seconds "$seconds" --trace 0 |
            grep '^{"record"' >>"$out"
    done
done
[ -n "$save" ] && cp "$out" "$save"
python3 - "$out" <<'PY'
import json, statistics, sys
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
runs = {}
for line in open(sys.argv[1]):
    record = json.loads(line)["record"]
    for name, metric in record["metrics"].items():
        runs.setdefault((record["workload"], name), []).append(metric["value"])
print(f'{"workload":16} {"metric":16} {"median":>14} {"spread":>8} {"bound":>6}  verdict')
for (workload, name), values in runs.items():
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    bound = bounds[name]
    verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "TOO WIDE")
    if name == "setup_s":
        verdict += " (not gated on spread)"
    print(f"{workload:16} {name:16} {median:14.6g} {spread:8.2%} {bound:6.0%}  {verdict}")
PY
