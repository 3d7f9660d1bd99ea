#!/usr/bin/env bash
# bench_diff.sh — regression gate for the counting engine's recorded
# speedups and allocation counts.
#
# Three gates, all against BENCH_core.json:
#
#  1. Zero allocations. Every production-tier row of BenchmarkUnrank
#     and BenchmarkSample (the /uint64 and /wide rows,
#     BenchmarkSample/five_spaces/mixed: sample-warm's five spaces in
#     turn into one arena, and BenchmarkSample/five_spaces/costed: the
#     same loop costing every plan with ScaledCostWith, sample-warm's
#     loop without the wire), BenchmarkSampleRanks and
#     BenchmarkRender/AppendTo (plan trees rendered into a reused
#     buffer) must report exactly 0 allocs/op on every run. Allocation counts do not depend on the host, so this
#     gate is absolute.
#  2. Allocation ceilings. BenchmarkExecute/*/optimal,
#     BenchmarkExecute/Q10/optimal_cold,
#     BenchmarkExecute/Q5/median_sampled,
#     BenchmarkExecute/Q5/merge_sampled,
#     BenchmarkExecute/sweep/sampled, BenchmarkPrepare/Q9/cached,
#     BenchmarkPrepare/Q9/reparse, BenchmarkPrepare/Q9/cold,
#     BenchmarkPrepare/Q3/shape_cold, BenchmarkPrepare/cross10/cold and
#     BenchmarkRecost/Q9/* allocs/op must stay within 10% of the value
#     BENCH_core.json records, and so must the B/op of those
#     BenchmarkExecute rows. The cold row runs Q10's optimal plan with
#     fresh selection bitmaps per op, so its scans evaluate their
#     filters row by row and record them. The median sampled plan runs three
#     nested-loop joins that re-open their inner sides once per outer
#     row, a path the optimal plans barely touch; the merge sampled plan,
#     the one of the same draws whose merge joins emit the most rows, is
#     the only row with a merge join; the sweep runs 160 seeded
#     uniform plans of Q3/Q5/Q9/Q10 under a 16,000-row work budget,
#     most of which it cuts; the cached Prepare is a repeated text,
#     answered through its statement-text alias, and the reparse
#     Prepare the SQL front end (parse, canonical rendering,
#     fingerprints) every new text pays; the cold Prepares and the coldprepare row are structure
#     builds (memo construction and counting), cross10 the 10-way
#     Cartesian one; shape_cold is the structure miss of a literal
#     variant whose shape is resident (a memo copy, shared counts);
#     the recost row is the overlay rebuild, and recost_feedback the
#     same rebuild under live feedback corrections. Like allocation
#     counts, bytes allocated do not depend on the host.
#  3. Speedups. The production tiers are timed against the /big rows
#     (the reference oracle) and the recorded speedups must not regress
#     by more than 20%. Absolute ns/op shift with the host; the ratios
#     are what the tiers promise. The test binary is built once and run
#     COUNT times with -count 1, so inside one run each production row
#     executes back to back with its /big row; the gate takes the
#     median of those per-run paired ratios, which cancels most of the
#     drift a shared host adds between runs.
#
# GATES=allocs runs gates 1 and 2 only, once by default, and skips the
# /big oracle rows they do not read. Neither gate depends on the host,
# so CI runs this mode as a blocking step; the timed gate 3 stays
# advisory. The benchtime must stay long enough (300ms is) that the
# zero-allocation rows' one-time buffers amortize below one allocation
# per op.
#
# Usage: scripts/bench_diff.sh   [BENCHTIME=300ms] [COUNT=7] [TOLERANCE=0.8] [GATES=all|allocs]
set -euo pipefail
cd "$(dirname "$0")/.."

GATES="${GATES:-all}"
case "$GATES" in
all)
	COUNT="${COUNT:-7}"
	CORE_BENCH=('^(BenchmarkUnrank|BenchmarkSample|BenchmarkSampleRanks|BenchmarkRecost)$')
	;;
allocs)
	COUNT="${COUNT:-1}"
	CORE_BENCH=('^(BenchmarkUnrank|BenchmarkSample)$/./^(uint64|wide|mixed|costed)$' '^(BenchmarkSampleRanks|BenchmarkRecost)$')
	;;
*)
	echo "bench_diff: GATES must be all or allocs, not $GATES" >&2
	exit 2
	;;
esac
BENCHTIME="${BENCHTIME:-300ms}"
TOLERANCE="${TOLERANCE:-0.8}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go test -c -o "$TMP/repro.test" .
echo "bench_diff: running benchmark matrix (gates=$GATES benchtime=$BENCHTIME runs=$COUNT)" >&2
for i in $(seq 1 "$COUNT"); do
	echo "bench_diff: run $i/$COUNT" >&2
	{
		for pat in "${CORE_BENCH[@]}"; do
			"$TMP/repro.test" -test.run '^$' -test.benchmem -test.count 1 -test.benchtime "$BENCHTIME" \
				-test.bench "$pat"
		done
		"$TMP/repro.test" -test.run '^$' -test.benchmem -test.count 1 -test.benchtime "$BENCHTIME" \
			-test.bench '^BenchmarkExecute$/^(Q[0-9]+|sweep)$/^(optimal|optimal_cold|median_sampled|merge_sampled|sampled)$'
		"$TMP/repro.test" -test.run '^$' -test.benchmem -test.count 1 -test.benchtime "$BENCHTIME" \
			-test.bench '^BenchmarkPrepare$/^(Q3|Q9|cross10)$/^(cached|reparse|cold|shape_cold)$'
		"$TMP/repro.test" -test.run '^$' -test.benchmem -test.count 1 -test.benchtime "$BENCHTIME" \
			-test.bench '^BenchmarkRender$/^AppendTo$'
	} | tee "$TMP/run$i.txt"
done

python3 - "$TMP" "$COUNT" "$TOLERANCE" "$GATES" <<'PYEOF'
import json, os, re, statistics, sys

tmp, count, tolerance, gates = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
pat = re.compile(r'^(Benchmark\S+?)-\d+\s+\d+\s+([\d.]+) ns/op.*?\s(\d+) B/op\s+(\d+) allocs/op')
runs = []  # one {row: (ns/op, allocs/op, B/op)} per run
for i in range(1, count + 1):
    rows = {}
    for line in open(os.path.join(tmp, f"run{i}.txt")):
        m = pat.match(line)
        if m:
            rows[m.group(1)] = (float(m.group(2)), int(m.group(4)), int(m.group(3)))
    runs.append(rows)
if not any(runs):
    sys.exit("bench_diff: no benchmark rows parsed")

def paired(slow_row, fast_row):
    """Per-run slow/fast ratios for runs holding both rows."""
    out = []
    for rows in runs:
        slow, fast = rows.get(slow_row), rows.get(fast_row)
        if slow and fast and fast[0] > 0:
            out.append(slow[0] / fast[0])
    return out

pairs = {"unrank": {}, "sample": {}, "recost": {}}
for q, tier in (("Q5", "uint64"), ("Q8", "uint64"), ("Q9", "uint64"), ("Q8cross", "wide")):
    pairs["unrank"][q] = paired(f"BenchmarkUnrank/{q}/big", f"BenchmarkUnrank/{q}/{tier}")
    pairs["sample"][q] = paired(f"BenchmarkSample/{q}/big", f"BenchmarkSample/{q}/{tier}")
# Overlay re-cost vs cold Prepare (the two-tier cache's promise).
pairs["recost"]["Q9"] = paired("BenchmarkRecost/Q9/coldprepare", "BenchmarkRecost/Q9/recost")

core = json.load(open("BENCH_core.json"))
failed = []

print(f"\nbench_diff: zero-allocation rows ({count} runs)")
print(f"{'row':28} {'max allocs/op':>14}")
zero = [r["name"] for r in core["results"]
        if re.fullmatch(r'Benchmark(Unrank|Sample)/\S+/(uint64|wide)|BenchmarkSample/five_spaces/(mixed|costed)|BenchmarkSampleRanks|BenchmarkRender/AppendTo', r["name"])]
for name in zero:
    got = [rows[name][1] for rows in runs if name in rows]
    if len(got) != count:
        failed.append(f"{name}: present in {len(got)} of {count} runs")
        continue
    flag = "" if max(got) == 0 else "  << ALLOCATES"
    print(f"{name[len('Benchmark'):]:28} {max(got):14d}{flag}")
    if max(got) != 0:
        failed.append(f"{name}: {max(got)} allocs/op, want 0")

print(f"\nbench_diff: allocs/op ceilings (recorded + 10%)")
print(f"{'row':28} {'recorded':>9} {'fresh':>9}")
for row in core["results"]:
    name = row["name"]
    if not re.fullmatch(r'BenchmarkExecute/(\S+/optimal|Q10/optimal_cold|Q5/(median|merge)_sampled|sweep/sampled)|BenchmarkPrepare/(Q9/cached|Q9/reparse|Q9/cold|Q3/shape_cold|cross10/cold)|BenchmarkRecost/Q9/\S+', name):
        continue
    want = row["allocs_per_op"]
    got = [rows[name][1] for rows in runs if name in rows]
    if len(got) != count:
        failed.append(f"{name}: present in {len(got)} of {count} runs")
        continue
    ceiling = want * 1.1
    flag = "" if max(got) <= ceiling else "  << REGRESSION"
    print(f"{name[len('Benchmark'):]:28} {want:9d} {max(got):9d}{flag}")
    if max(got) > ceiling:
        failed.append(f"{name}: {want} allocs/op recorded, {max(got)} fresh (ceiling {ceiling:.0f})")

print(f"\nbench_diff: B/op ceilings (recorded + 10%)")
print(f"{'row':28} {'recorded':>9} {'fresh':>9}")
for row in core["results"]:
    name = row["name"]
    if not re.fullmatch(r'BenchmarkExecute/(\S+/optimal|Q10/optimal_cold|Q5/(median|merge)_sampled|sweep/sampled)', name):
        continue
    want = row["bytes_per_op"]
    got = [rows[name][2] for rows in runs if name in rows]
    if len(got) != count:
        failed.append(f"{name}: present in {len(got)} of {count} runs")
        continue
    ceiling = want * 1.1
    flag = "" if max(got) <= ceiling else "  << REGRESSION"
    print(f"{name[len('Benchmark'):]:28} {want:9d} {max(got):9d}{flag}")
    if max(got) > ceiling:
        failed.append(f"{name}: {want} B/op recorded, {max(got)} fresh (ceiling {ceiling:.0f})")

if gates == "all":
    recorded = core["speedup"]
    print(f"\nbench_diff: speedups, median of per-run paired ratios (fail below {tolerance:.0%} of recorded)")
    print(f"{'row':28} {'recorded':>9} {'fresh':>9} {'ratio':>7}  per-run")
    for kind in ("unrank", "sample", "recost"):
        for q, want in sorted(recorded.get(kind, {}).items()):
            ratios = pairs.get(kind, {}).get(q)
            if not ratios:
                failed.append(f"{kind}/{q}: row missing from fresh runs")
                continue
            got = statistics.median(ratios)
            ratio = got / want
            flag = "" if ratio >= tolerance else "  << REGRESSION"
            spread = " ".join(f"{r:.2f}" for r in ratios)
            print(f"{kind}/{q:22} {want:8.2f}x {got:8.2f}x {ratio:6.2f}  [{spread}]{flag}")
            if ratio < tolerance:
                failed.append(f"{kind}/{q}: {want:.2f}x recorded, {got:.2f}x fresh")
if failed:
    print("\nbench_diff: FAIL")
    for f in failed:
        print("  " + f)
    sys.exit(1)
speedups = f", no recorded speedup regressed by more than {1 - tolerance:.0%}" if gates == "all" else ""
print("\nbench_diff: OK — production rows allocate nothing, no gated row above its "
      f"allocs/op or B/op ceiling{speedups}")
PYEOF
