#!/usr/bin/env bash
# Smoke test of cmd/planserved: build and start the server, then drive
# the real client loop — prepare → sample → execute_batch → a governed
# pathological /execute — failing on any non-200 response or any
# truncated result that carries no reason. CI runs this on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18080
BIN=$(mktemp -d)/planserved

go build -o "$BIN" ./cmd/planserved
"$BIN" -addr "$ADDR" -sf 0.0004 &
PID=$!
trap 'kill $PID 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  curl -sf "http://$ADDR/stats" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$ADDR/stats" >/dev/null || { echo "FAIL: server did not come up"; exit 1; }

# post PATH BODY — POST and require HTTP 200, echo the body.
post() {
  local out code
  out=$(curl -s -w $'\n%{http_code}' "http://$ADDR$1" -d "$2")
  code=${out##*$'\n'}
  if [ "$code" != 200 ]; then
    echo "FAIL: POST $1 -> HTTP $code: ${out%$'\n'*}" >&2
    exit 1
  fi
  printf '%s' "${out%$'\n'*}"
}

prep=$(post /prepare '{"query":"Q5"}')
echo "$prep" | grep -q '"fingerprint"' || { echo "FAIL: prepare missing fingerprint: $prep"; exit 1; }
echo "smoke: prepare ok"

samp=$(post /sample '{"query":"Q5","k":4,"seed":1}')
echo "$samp" | grep -q '"ranks"' || { echo "FAIL: sample missing ranks: $samp"; exit 1; }
echo "smoke: sample ok"

batch=$(post /execute_batch '{"query":"Q3","k":3,"seed":7,"timeout_ms":10000}')
python3 - "$batch" <<'PY'
import json, sys
resp = json.loads(sys.argv[1])
assert resp["optimal"]["digest"], "optimal reference has no digest"
assert not resp["optimal"]["truncated"], f"optimal reference truncated: {resp['optimal']}"
assert len(resp["plans"]) == 3, f"expected 3 plans, got {len(resp['plans'])}"
for p in resp["plans"]:
    if p.get("error"):
        raise SystemExit(f"FAIL: sampled plan errored: {p}")
    if p.get("truncated") and not p.get("truncated_reason"):
        raise SystemExit(f"FAIL: truncated without reason: {p}")
    if not p.get("truncated") and not p.get("matches_optimal"):
        raise SystemExit(f"FAIL: completed plan differs from optimal: {p}")
print("smoke: execute_batch ok,", len(resp["plans"]), "plans verified")
PY

# Adaptive feedback round-trip: execute records observed cardinalities,
# /feedback/apply folds them (bumping the feedback epoch), and the next
# execute of the same query must re-cost the cached structure — not
# re-prepare it, not serve the stale costing — and still produce the
# same result.
ex1=$(post /execute '{"query":"Q3","timeout_ms":20000}')
fb=$(post /feedback/apply '{}')
ex2=$(post /execute '{"query":"Q3","timeout_ms":20000}')
python3 - "$ex1" "$fb" "$ex2" <<'PY'
import json, sys
ex1, fb, ex2 = (json.loads(a) for a in sys.argv[1:4])
assert not ex1["truncated"], f"pre-feedback execute truncated: {ex1}"
assert fb["epoch"] >= 1, f"feedback apply did not bump the epoch: {fb}"
assert fb["folded"] > 0, f"feedback apply folded no corrections: {fb}"
assert ex2["cached"], f"post-feedback execute rebuilt the structure: {ex2}"
assert not ex2["overlay_cached"], f"post-feedback execute served a stale costing: {ex2}"
assert ex2["fingerprint"] == ex1["fingerprint"], "structure fingerprint changed across feedback"
assert ex2["digest"] == ex1["digest"], "re-optimized plan changed the result"
print("smoke: feedback round-trip ok: epoch", fb["epoch"], "with", fb["folded"], "corrections folded")
PY

# The round-trip dropped the stale overlays. This run is sequential,
# over one engine with one feedback store, so each resident structure
# holds at most one current overlay and overlays cannot outnumber
# structures. That bound is specific to this sequence: in general one
# entry can hold several overlays (one per feedback store sharing the
# cache, or a re-cost that finished after ApplyFeedback's sweep).
python3 - "$(curl -sf "http://$ADDR/stats")" <<'PY'
import json, sys
st = json.loads(sys.argv[1])
ov, cache = st["overlays"], st["cache"]
assert ov["invalidations"] >= 1, f"feedback apply dropped no stale overlays: {ov}"
assert ov["entries"] <= cache["entries"], f"{ov['entries']} overlays outlive {cache['entries']} cached structures"
print("smoke: overlay stats ok:", ov["invalidations"], "invalidated,", ov["entries"], "resident over", cache["entries"], "structures")
PY

killed=$(post /execute '{"sql":"SELECT COUNT(l_orderkey) AS n FROM lineitem, orders, customer","cross":true,"max_intermediate_rows":50000}')
python3 - "$killed" <<'PY'
import json, sys
r = json.loads(sys.argv[1])
assert r["truncated"], f"pathological cross-product plan was not truncated: {r}"
assert r["truncated_reason"], f"truncated without a reason: {r}"
print("smoke: governor kill ok:", r["truncated_reason"])
PY

stats=$(curl -sf "http://$ADDR/stats")
echo "$stats" | grep -q '"bytes_cached"' || { echo "FAIL: stats missing bytes_cached: $stats"; exit 1; }
echo "$stats" | grep -q '"structure_bytes"' || { echo "FAIL: stats missing structure_bytes: $stats"; exit 1; }
echo "$stats" | grep -q '"overlay_bytes"' || { echo "FAIL: stats missing overlay_bytes: $stats"; exit 1; }
echo "$stats" | grep -q '"feedback"' || { echo "FAIL: stats missing feedback block: $stats"; exit 1; }
echo "smoke: stats ok"

echo "planserved smoke OK"
