#!/usr/bin/env bash
# Tooling gate for the benchmark package itself: builds it, lints it,
# runs its self-tests, runs every workload in --smoke mode (tracing off
# and on) and validates what they print against BENCHMARK.json.
#
#   benchmark/check.sh
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/../target}"
cargo build --release --offline
cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline

cd ..
smoke="$(mktemp -p "${TMPDIR:-/tmp}" smoke.XXXXXX)"
trap 'rm -f "$smoke"' EXIT
benchmark/run.sh --smoke --trace 0 >"$smoke"
benchmark/run.sh --smoke --trace 1 >>"$smoke"
python3 - "$smoke" <<'PY'
import json, re, sys

bench = json.load(open("BENCHMARK.json"))
name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
errors = []
end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
if not (1 <= len(end_to_end) <= 16 and len(end_to_end) == len(bench["end_to_end"])):
    errors.append("end_to_end must hold 1 to 16 uniquely named metrics")
if not (1 <= len(per_layer) <= 128 and len(per_layer) == len(bench["per_layer"])):
    errors.append("per_layer must hold 1 to 128 uniquely named metrics")
for name in [*end_to_end, *per_layer, *(w["name"] for w in bench["workloads"])]:
    if not name_ok.match(name):
        errors.append(f"bad name {name!r}")

seen = set()
for line in open(sys.argv[1]):
    if not line.startswith('{"correct"'):
        if line.startswith('{"record"'):
            record = json.loads(line)["record"]
            seen.add((record["workload"], record["trace"]))
            last = record
        continue
    result = json.loads(line)
    where = f'{last["workload"]} trace={int(last["trace"])}'
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    want = per_layer if last["trace"] else end_to_end
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != want:
        missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
        units = sorted(n for n in want.keys() & got.keys() if want[n] != got[n])
        errors.append(f"{where}: missing {missing} extra {extra} unit mismatch {units}")
    if not last["trace"]:
        zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
        if zero:
            errors.append(f"{where}: end-to-end metrics read 0: {zero}")
for workload in (w["name"] for w in bench["workloads"]):
    for trace in (False, True):
        if (workload, trace) not in seen:
            errors.append(f"{workload} trace={int(trace)}: no result printed")
for error in errors:
    print("check.sh:", error)
print("check.sh: BENCHMARK.json and the smoke output", "DISAGREE" if errors else "agree")
sys.exit(1 if errors else 0)
PY
