#!/usr/bin/env bash
# A/A check: the same code measured twice must agree with itself.
#
#   benchmark/aa.sh [--runs N] [--seconds S]
#
# Runs two sets of N runs (default 10, each with another seed) of every
# workload in BENCHMARK.json, the second set in reverse workload order.
# For each end-to-end metric x workload it prints
#   spread = (Q3 - Q1) / median of the N values, per set, and
#   shift  = how much worse the second set's median is than the first's,
# against the metric's bound. Exits non-zero if a spread (setup_s
# excepted, as in the acceptance rule) or a shift exceeds its bound.
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - "$@" <<'PY'
import json, statistics, subprocess, sys

args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
runs = int(args.get("--runs", 10))
spec = json.load(open("BENCHMARK.json"))
seconds = args.get("--seconds", str(spec["run_seconds"]))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]

def one(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", seconds, "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

sets = []
for s, order in enumerate((workloads, workloads[::-1])):
    data = {}
    for w in order:
        data[w] = [one(w, 1000 * s + i + 1) for i in range(runs)]
        print(f"set {s + 1}: {w}: {runs} runs done", file=sys.stderr)
    sets.append(data)

bad = 0
print(f"| workload | metric | median A | median B | spread A | spread B | shift | bound | |")
print(f"|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a = [r[name] for r in sets[0][w]]
        b = [r[name] for r in sets[1][w]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = (spread(a), spread(b)) if runs >= 2 else (0.0, 0.0)
        over = worse > bound or (name != "setup_s" and max(sa, sb) > bound)
        bad += over
        print(f"| {w} | {name} | {ma:.4g} | {mb:.4g} | {sa:.3f} | {sb:.3f} | "
              f"{worse:+.3f} | {bound} | {'FAIL' if over else 'ok'} |")
sys.exit(1 if bad else 0)
PY
