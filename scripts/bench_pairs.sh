#!/usr/bin/env bash
# bench_pairs.sh — paired runs of the frozen benchmark: a parent revision
# against the working tree, one workload, alternating order.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [first-seed]
#
# Extracts <parent-rev> under .bench_build/pairs/ (git archive, so nothing is
# registered in .git), then runs <pairs> pairs of `bash benchmark/run.sh
# --workload <workload> --seed S` — once in the parent's tree, once in the
# working tree, each tree building its own benchmark binary from its own
# source with its own copy of the frozen run.sh. Every pair runs at
# first-seed (default 43), so the parent's quartiles measure run-to-run noise
# alone, not the spread between seeds; a held-out check is a second call with
# another first seed (the benchmark's held-out seed is 7). Odd pairs run the
# change first. The run length is the benchmark's own, from BENCHMARK.json's
# run_seconds.
#
# Every run's result line is kept in .bench_build/pairs/<workload>/. At the
# end, for every end-to-end metric of BENCHMARK.json: per-pair values, each
# side's median and quartiles (statistics.quantiles, n=4, as the benchmark's
# -compare reads them), the change's median against the parent's, and the
# pairs the change won (ties count for neither). A run that is not correct
# or failed operations is reported and makes the exit code non-zero.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 <parent-rev> <workload> <pairs> [first-seed]" >&2
  exit 2
fi
rev="$1" workload="$2" pairs="$3" seed0="${4:-43}"

root="$(git rev-parse --show-toplevel)"
cd "$root"
sha="$(git rev-parse --verify "$rev^{commit}")"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)"

work="$root/.bench_build/pairs"
parent="$work/parent-${sha:0:12}"
out="$work/$workload"
mkdir -p "$out"
if [ ! -f "$parent/BENCHMARK.json" ]; then
  rm -rf "$parent"
  mkdir -p "$parent"
  git archive "$sha" | tar -x -C "$parent"
fi
rm -f "$out"/*.json

# run <side> <tree> <pair> <seed>
run() {
  local side="$1" tree="$2" pair="$3" seed="$4"
  echo "== pair $pair seed $seed: $side" >&2
  (cd "$tree" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    | tail -n 1 >"$out/$side-$pair.json" || true # a failed run still prints its result line
}

seed="$seed0"
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run parent "$parent" "$i" "$seed"
    run change "$root" "$i" "$seed"
  else
    run change "$root" "$i" "$seed"
    run parent "$parent" "$i" "$seed"
  fi
done

echo "parent ${sha:0:12} vs working tree, $workload, $pairs pairs at seed $seed0, ${seconds}s runs"
python3 - "$out" "$pairs" "$seed0" BENCHMARK.json <<'EOF'
import json, statistics, sys

out, pairs, seed0, spec = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
metrics = json.load(open(spec))["end_to_end"]
def load(side, i):
    try:
        return json.load(open(f"{out}/{side}-{i}.json"))
    except (OSError, ValueError) as e:
        sys.exit(f"{side} pair {i}: no result line ({e})")

runs = {side: [load(side, i) for i in range(pairs)] for side in ("parent", "change")}

bad = 0
for side, rs in runs.items():
    for i, r in enumerate(rs):
        if not r.get("correct") or r.get("failed", 0):
            bad += 1
            print(f"{side} pair {i}: correct={r.get('correct')} failed={r.get('failed')}/{r.get('attempted')}")

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3

for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    lost = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    pm, cm = statistics.median(p), statistics.median(c)
    delta = (cm - pm) / pm if pm else float("nan")
    print(f"\n{name} ({m['unit']}, {m['better']} is better, bound {m['bound']:.0%})")
    for i, (a, b) in enumerate(zip(p, c)):
        print(f"  pair {i:2d} seed {seed0:3d}: parent {a:10.3f}  change {b:10.3f}")
    print(f"  parent median {pm:.3f} [Q1 {pq[0]:.3f}, Q3 {pq[2]:.3f}, IQR {pq[2] - pq[0]:.3f}]")
    print(f"  change median {cm:.3f} [Q1 {cq[0]:.3f}, Q3 {cq[2]:.3f}, IQR {cq[2] - cq[0]:.3f}]")
    print(f"  change/parent {delta:+.1%}; change won {won}/{pairs}, lost {lost}, "
          f"median gap {abs(cm - pm):.3f} vs parent IQR {pq[2] - pq[0]:.3f}")
sys.exit(1 if bad else 0)
EOF
