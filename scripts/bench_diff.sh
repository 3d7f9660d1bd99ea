#!/usr/bin/env bash
# bench_diff.sh — regression gate for the counting engine's recorded
# speedups.
#
# Re-runs the arithmetic-tier benchmark matrix (BenchmarkUnrank and
# BenchmarkSample: uint64 vs big on Q5/Q8/Q9, wide vs big on Q8+cross),
# computes the same production-tier-vs-oracle speedups BENCH_core.json
# records, and fails when any of them has regressed by more than 20%.
# Absolute ns/op shift with the host; the ratios are what the tiers
# promise, so the ratios are what the gate checks. Runs COUNT times and
# compares medians to damp scheduler noise.
#
# It also gates allocations on the executor's optimal-plan rows
# (BenchmarkExecute/*/optimal): allocs/op must stay within 10% of the
# value BENCH_core.json records. Allocation counts do not depend on the
# host, so this gate is absolute.
#
# Usage: scripts/bench_diff.sh   [BENCHTIME=300ms] [COUNT=3] [TOLERANCE=0.8]
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-300ms}"
COUNT="${COUNT:-3}"
TOLERANCE="${TOLERANCE:-0.8}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

echo "bench_diff: running benchmark matrix (benchtime=$BENCHTIME count=$COUNT)" >&2
go test -run '^$' -bench '^(BenchmarkUnrank|BenchmarkSample|BenchmarkRecost)$' \
	-benchtime "$BENCHTIME" -count "$COUNT" . | tee "$OUT"
go test -run '^$' -bench '^BenchmarkExecute$/^Q[0-9]+$/^optimal$' \
	-benchtime "$BENCHTIME" -count "$COUNT" . | tee -a "$OUT"

python3 - "$OUT" "$TOLERANCE" <<'PYEOF'
import json, re, statistics, sys

out_path, tolerance = sys.argv[1], float(sys.argv[2])
rows = {}
pat = re.compile(r'^(Benchmark(?:Unrank|Sample|Recost)/\S+?)-\d+\s+\d+\s+([\d.]+) ns/op')
for line in open(out_path):
    m = pat.match(line)
    if m:
        rows.setdefault(m.group(1), []).append(float(m.group(2)))
if not rows:
    sys.exit("bench_diff: no benchmark rows parsed")
med = {k: statistics.median(v) for k, v in rows.items()}

def speedup(kind, query, fast_tier):
    slow = med.get(f"Benchmark{kind}/{query}/big")
    fast = med.get(f"Benchmark{kind}/{query}/{fast_tier}")
    if slow is None or fast is None or fast == 0:
        return None
    return slow / fast

fresh = {"unrank": {}, "sample": {}, "recost": {}}
for q in ("Q5", "Q8", "Q9"):
    fresh["unrank"][q] = speedup("Unrank", q, "uint64")
    fresh["sample"][q] = speedup("Sample", q, "uint64")
fresh["unrank"]["Q8cross"] = speedup("Unrank", "Q8cross", "wide")
fresh["sample"]["Q8cross"] = speedup("Sample", "Q8cross", "wide")
# Overlay re-cost vs cold Prepare (the two-tier cache's promise).
cold = med.get("BenchmarkRecost/Q9/coldprepare")
recost = med.get("BenchmarkRecost/Q9/recost")
if cold is not None and recost:
    fresh["recost"]["Q9"] = cold / recost

allocs = {}
apat = re.compile(r'^(BenchmarkExecute/\S+/optimal)-\d+\s.*?\s(\d+) allocs/op')
for line in open(out_path):
    m = apat.match(line)
    if m:
        allocs.setdefault(m.group(1), []).append(int(m.group(2)))

core = json.load(open("BENCH_core.json"))
recorded = core["speedup"]
failed = []
print(f"\nbench_diff: speedup comparison (fail below {tolerance:.0%} of recorded)")
print(f"{'row':28} {'recorded':>9} {'fresh':>9} {'ratio':>7}")
for kind in ("unrank", "sample", "recost"):
    for q, want in sorted(recorded.get(kind, {}).items()):
        got = fresh.get(kind, {}).get(q)
        if got is None:
            failed.append(f"{kind}/{q}: row missing from fresh run")
            continue
        ratio = got / want
        flag = "" if ratio >= tolerance else "  << REGRESSION"
        print(f"{kind}/{q:22} {want:8.2f}x {got:8.2f}x {ratio:6.2f}{flag}")
        if ratio < tolerance:
            failed.append(f"{kind}/{q}: {want:.2f}x recorded, {got:.2f}x fresh")
print("\nbench_diff: allocs/op ceilings (recorded + 10%)")
print(f"{'row':28} {'recorded':>9} {'fresh':>9}")
for row in core["results"]:
    name = row["name"]
    if not re.fullmatch(r'BenchmarkExecute/\S+/optimal', name):
        continue
    want = row["allocs_per_op"]
    got = allocs.get(name)
    if got is None:
        failed.append(f"{name}: row missing from fresh run")
        continue
    ceiling = want * 1.1
    flag = "" if max(got) <= ceiling else "  << REGRESSION"
    print(f"{name[len('Benchmark'):]:28} {want:9d} {max(got):9d}{flag}")
    if max(got) > ceiling:
        failed.append(f"{name}: {want} allocs/op recorded, {max(got)} fresh (ceiling {ceiling:.0f})")
if failed:
    print("\nbench_diff: FAIL")
    for f in failed:
        print("  " + f)
    sys.exit(1)
print("\nbench_diff: OK — no recorded speedup regressed by more than "
      f"{1 - tolerance:.0%}, no executor row above its allocs/op ceiling")
PYEOF
