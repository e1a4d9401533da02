#!/usr/bin/env bash
# Applies the bounds recorded in BENCHMARK.json to two result sets.
#
#   benchmark/compare.sh A B
#
# A and B are files holding the stdout of one or more `run.sh` runs
# (`run.sh ... | tee A`); A is the parent, B the change. Prints one row
# per end-to-end metric x workload:
#   within      B's median is no worse than A's by more than the bound
#   worse       it is
#   unresolved  the run-to-run spread of either side is wider than the
#               bound, so the medians cannot settle it — unless every run
#               of B reads better than every run of A, which is `within`
# Exits 1 if any row is `worse`.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
[ $# -eq 2 ] || { echo "usage: benchmark/compare.sh A B" >&2; exit 2; }
python3 - "$1" "$2" <<'PY'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
gated = {m["name"]: m for m in bench["end_to_end"]}

def load(path):
    runs = {}
    for line in open(path):
        if not line.startswith('{"record"'):
            continue
        record = json.loads(line)["record"]
        if record["trace"]:
            continue
        for name, metric in record["metrics"].items():
            runs.setdefault((record["workload"], name), []).append(metric["value"])
    return runs

def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median

a, b = load(sys.argv[1]), load(sys.argv[2])
worse = False
print(f'{"workload":16} {"metric":16} {"A median":>13} {"B median":>13} {"change":>8} {"bound":>6} {"spread A/B":>13}  verdict')
for key in sorted(a.keys() & b.keys(), key=lambda k: (k[0], list(gated).index(k[1]))):
    workload, name = key
    spec = gated[name]
    ma, mb = statistics.median(a[key]), statistics.median(b[key])
    lower = spec["better"] == "lower"
    worse_by = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
    sa, sb = spread(a[key]), spread(b[key])
    all_better = max(b[key]) < min(a[key]) if lower else min(b[key]) > max(a[key])
    if max(sa, sb) > spec["bound"] and not all_better:
        verdict = "unresolved"
    elif worse_by > spec["bound"]:
        verdict, worse = "worse", True
    else:
        verdict = "within"
    print(f"{workload:16} {name:16} {ma:13.6g} {mb:13.6g} {worse_by:+8.2%} {spec['bound']:6.0%} {sa:6.2%}/{sb:6.2%}  {verdict}")
for key in sorted(a.keys() ^ b.keys()):
    print(f"{key[0]:16} {key[1]:16} present in only one result set")
sys.exit(1 if worse else 0)
PY
