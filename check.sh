#!/bin/sh
# Repo gate: build, tests, formatting.  Run before every commit.
set -e
cd "$(dirname "$0")"

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== dune build @fmt"
dune build @fmt

echo "== dead-export gate"
# Every val of lib/**/*.mli has a caller outside its own module, or a line
# in tools/dead_exports.allow saying why it stays public.
dune exec --no-build tools/dead_exports.exe -- tools/dead_exports.allow

echo "== telemetry smoke"
# Small fixed-seed run with the full telemetry stack on; telemetry-check
# fails unless every line parses as JSON and the required series are there.
TDIR=$(mktemp -d)
trap 'rm -rf "$TDIR"' EXIT
dune exec --no-build -- gigaflow-sim run -p PSC --flows 2000 --combos 512 --seed 77 \
  --telemetry-out "$TDIR/telemetry.jsonl" --sample-every 2000 --trace-events 4 \
  > /dev/null
dune exec --no-build -- gigaflow-sim telemetry-check "$TDIR/telemetry.jsonl"
test -s "$TDIR/telemetry.prom" || { echo "missing Prometheus snapshot" >&2; exit 1; }
grep -q '^gigaflow_packets_total 10615$' "$TDIR/telemetry.prom" || {
  echo "Prometheus snapshot missing expected packet count" >&2; exit 1; }
# The same run on the batched engine at one domain: every exported series
# is derived from Metrics at finalize, so the snapshots match byte for byte.
dune exec --no-build -- gigaflow-sim run -p PSC --flows 2000 --combos 512 --seed 77 \
  --engine batched --domains 1 \
  --telemetry-out "$TDIR/telemetry_batched.jsonl" --sample-every 2000 --trace-events 4 \
  > /dev/null
cmp "$TDIR/telemetry.prom" "$TDIR/telemetry_batched.prom" || {
  echo "walker and batched engine Prometheus snapshots differ" >&2; exit 1; }

echo "== capacity-stress smoke"
# Tiny capacities + churn trace + LRU eviction: the run must stay healthy
# under sustained pressure — non-zero pressure evictions, no NaN anywhere,
# and telemetry that still validates.
dune exec --no-build -- gigaflow-sim run -p PSC --flows 2000 --combos 512 --seed 77 \
  --churn --churn-active 1024 --table-capacity 64 --evict-policy lru \
  --telemetry-out "$TDIR/churn.jsonl" --sample-every 2000 --trace-events 4 \
  > "$TDIR/churn.out"
dune exec --no-build -- gigaflow-sim telemetry-check "$TDIR/churn.jsonl"
grep -Eq '^gigaflow_hw_pressure_evictions_total [1-9]' "$TDIR/churn.prom" || {
  echo "capacity stress produced no pressure evictions" >&2; exit 1; }
if grep -qi 'nan' "$TDIR/churn.out" "$TDIR/churn.prom"; then
  echo "NaN leaked into capacity-stress output" >&2; exit 1
fi

echo "== batched engine smoke"
# A single-domain streaming run processes the whole trace through one
# datapath, so on a fixed seed it must agree with the per-packet walker
# on every headline counter; 4 domains shard flows over per-core caches
# (counters legitimately differ), so that run only has to stay healthy —
# valid telemetry, no NaN — while exercising the SPSC rings and the
# poison shutdown.
dune exec --no-build -- gigaflow-sim run -p PSC --flows 2000 --combos 512 --seed 77 \
  > "$TDIR/walker.out"
dune exec --no-build -- gigaflow-sim run -p PSC --flows 2000 --combos 512 --seed 77 \
  --engine batched --domains 1 --batch-size 64 \
  > "$TDIR/batched.out"
dune exec --no-build -- gigaflow-sim run -p PSC --flows 2000 --combos 512 --seed 77 \
  --engine batched --domains 4 --batch-size 64 \
  --telemetry-out "$TDIR/batched.jsonl" --sample-every 2000 \
  > "$TDIR/batched4.out"
for metric in 'packets' 'SmartNIC hit rate' 'slowpath executions' 'installs' 'mean latency'; do
  w=$(grep -F "| $metric " "$TDIR/walker.out")
  b=$(grep -F "| $metric " "$TDIR/batched.out")
  test -n "$w" && test "$w" = "$b" || {
    echo "batched engine diverged from walker on '$metric':" >&2
    echo "  walker:  $w" >&2
    echo "  batched: $b" >&2
    exit 1
  }
done
dune exec --no-build -- gigaflow-sim telemetry-check "$TDIR/batched.jsonl"
if grep -qi 'nan' "$TDIR/batched.out" "$TDIR/batched4.out"; then
  echo "NaN leaked into batched engine output" >&2; exit 1
fi
# The same agreement under heavy-hitter admission: the drifting-skew
# gf_sw_hh run defers every cold slowpath and promotes the flows that get
# hot, so the deferral and promotion paths run through both the walker
# (memo off) and the engine's memoised walk; the software-cache hits and
# deferred installs rows read those two paths directly.
ADM="-p PSC --flows 20000 --combos 8192 --seed 77 --trace drift --hierarchy gf_sw_hh"
dune exec --no-build -- gigaflow-sim run $ADM > "$TDIR/adm_walker.out"
dune exec --no-build -- gigaflow-sim run $ADM --engine batched --domains 1 \
  > "$TDIR/adm_batched.out"
for metric in 'packets' 'SmartNIC hit rate' 'software-cache hits' 'slowpath executions' \
  'installs' 'deferred installs' 'mean latency'; do
  w=$(grep -F "| $metric " "$TDIR/adm_walker.out")
  b=$(grep -F "| $metric " "$TDIR/adm_batched.out")
  test -n "$w" && test "$w" = "$b" || {
    echo "batched engine diverged from walker under admission on '$metric':" >&2
    echo "  walker:  $w" >&2
    echo "  batched: $b" >&2
    exit 1
  }
done

echo "== offload admission smoke"
# Constrained hardware slots + elephant/mice trace: heavy-hitter admission
# must strictly beat install-on-miss on SmartNIC hit rate, emit defer
# events into telemetry that still validates, and keep NaN out of the
# output.
dune exec --no-build -- gigaflow-sim run -p PSC --flows 20000 --combos 8192 --seed 77 \
  --trace elephant --hierarchy mf_sw --tables 1 --capacity 16 \
  > "$TDIR/offload_reject.out"
dune exec --no-build -- gigaflow-sim run -p PSC --flows 20000 --combos 8192 --seed 77 \
  --trace elephant --hierarchy mf_sw_hh --tables 1 --capacity 16 \
  --telemetry-out "$TDIR/offload.jsonl" --sample-every 2000 --trace-events 4 \
  > "$TDIR/offload_hh.out"
dune exec --no-build -- gigaflow-sim telemetry-check "$TDIR/offload.jsonl"
hh=$(grep -F '| SmartNIC hit rate' "$TDIR/offload_hh.out" | grep -Eo '[0-9]+\.[0-9]+')
rj=$(grep -F '| SmartNIC hit rate' "$TDIR/offload_reject.out" | grep -Eo '[0-9]+\.[0-9]+')
awk -v hh="$hh" -v rj="$rj" 'BEGIN { exit !(hh + 0 > rj + 0) }' || {
  echo "heavy-hitter admission did not beat reject baseline (hh=$hh% vs reject=$rj%)" >&2
  exit 1
}
grep -q '"kind":"defer"' "$TDIR/offload.jsonl" || {
  echo "no defer events in heavy-hitter telemetry" >&2; exit 1; }
if grep -qi 'nan' "$TDIR/offload_hh.out" "$TDIR/offload_reject.out"; then
  echo "NaN leaked into offload smoke output" >&2; exit 1
fi

echo "== loadtest SLO gate smoke"
# Healthy operating point: a 10 kpps offered load on the PSC workload with
# SLO bounds it comfortably meets must PASS (exit 0) with --gate, and its
# JSONL report must validate.  The same workload oversubscribed at 2 Mpps
# against a zero-drop SLO must FAIL (non-zero exit) — the gate both passes
# and fails for the right reasons.
dune exec --no-build -- gigaflow-sim loadtest -p PSC --flows 2000 --combos 512 --seed 77 \
  --rate 1e4 --warmup 4000 --window 4000 --windows 3 \
  --slo-p50 50 --slo-p99 1500 --slo-p999 3000 --gate -o "$TDIR/loadtest.jsonl" \
  > "$TDIR/loadtest.out"
dune exec --no-build -- gigaflow-sim telemetry-check "$TDIR/loadtest.jsonl"
grep -q 'SLO gate: PASS' "$TDIR/loadtest.out" || {
  echo "healthy loadtest did not report PASS" >&2; exit 1; }
if dune exec --no-build -- gigaflow-sim loadtest -p PSC --flows 2000 --combos 512 --seed 77 \
  --rate 2e6 --warmup 4000 --window 4000 --windows 3 \
  --slo-drop-rate 0.0 --gate > "$TDIR/loadtest_fail.out" 2>&1; then
  echo "oversubscribed loadtest passed a zero-drop SLO gate" >&2; exit 1
fi
grep -q 'SLO gate: FAIL' "$TDIR/loadtest_fail.out" || {
  echo "oversubscribed loadtest did not report FAIL" >&2; exit 1; }
# A negative Zipf exponent is a usage error (Cmdliner's exit code 124),
# not an assertion failure inside the trace generator.
status=0
dune exec --no-build -- gigaflow-sim loadtest -p PSC --flows 200 --combos 64 \
  --trace drift --zipf=-0.5 > "$TDIR/zipf_neg.out" 2>&1 || status=$?
test "$status" -eq 124 && grep -q 'invalid Zipf exponent' "$TDIR/zipf_neg.out" || {
  echo "loadtest --zipf=-0.5 was not rejected as a usage error (exit $status)" >&2
  exit 1; }

echo "== adaptive control smoke"
# Drifting-skew loadtest on the gf_sw_hh preset: the static configuration
# (Reject NIC frozen on stale elephants) must FAIL the gate, the same run
# with --controller slo must PASS it by flipping the NIC to LRU off the
# blown warmup window, and the JSONL report — controller_action lines
# included — must validate with no NaN anywhere.
CTL="-p PSC --flows 20000 --combos 8192 --seed 42 --hierarchy gf_sw_hh \
  --tables 2 --capacity 128 --trace drift --epochs 6 --drift 128 --zipf 1.2 \
  --rate 1e5 --warmup 20000 --window 20000 --windows 3 --slo-p50 50"
if dune exec --no-build -- gigaflow-sim loadtest $CTL --gate \
  > "$TDIR/ctl_static.out" 2>&1; then
  echo "static drifting-skew loadtest passed a gate it should fail" >&2; exit 1
fi
grep -q 'SLO gate: FAIL' "$TDIR/ctl_static.out" || {
  echo "static drifting-skew loadtest did not report FAIL" >&2; exit 1; }
dune exec --no-build -- gigaflow-sim loadtest $CTL --controller slo --gate \
  -o "$TDIR/ctl.jsonl" > "$TDIR/ctl.out"
grep -q 'SLO gate: PASS' "$TDIR/ctl.out" || {
  echo "controlled drifting-skew loadtest did not report PASS" >&2; exit 1; }
grep -q 'Controller actions:' "$TDIR/ctl.out" || {
  echo "controller reported no actions" >&2; exit 1; }
dune exec --no-build -- gigaflow-sim telemetry-check "$TDIR/ctl.jsonl" \
  | grep -Eq '[1-9][0-9]* controller actions' || {
  echo "controller_action lines missing from validated JSONL" >&2; exit 1; }
# \bnan\b, not plain 'nan': action reasons legitimately contain
# "...-dominant".
if grep -Eqi '(^|[^a-z])nan([^a-z]|$)' "$TDIR/ctl.out" "$TDIR/ctl.jsonl"; then
  echo "NaN leaked into adaptive control output" >&2; exit 1
fi

echo "== profile smoke"
# Sub-traversal tracing profiler on the drift trace: folded stacks must
# be non-empty, the chrome trace must be schema-valid JSON, and the
# miss-cause census must reconcile exactly with the Metrics miss
# counters (the profile command exits non-zero on a mismatch;
# telemetry-check re-verifies the JSONL reconciliation independently).
PROF="-p PSC --flows 20000 --combos 8192 --seed 77 --trace drift --hierarchy gf_sw_hh --sample 1/64"
dune exec --no-build -- gigaflow-sim profile $PROF --out "$TDIR/profile" \
  > "$TDIR/profile.out"
test -s "$TDIR/profile.folded" || {
  echo "profile produced empty folded stacks" >&2; exit 1; }
grep -q '(reconciled)' "$TDIR/profile.out" || {
  echo "profile census did not reconcile" >&2; exit 1; }
dune exec --no-build -- gigaflow-sim telemetry-check \
  --chrome "$TDIR/profile.trace.json" "$TDIR/profile.jsonl"
# The census across engines: the batched engine at one domain must charge
# every miss to the same cause as the walker.  At two domains the caches
# shard per core, so the counts legitimately differ, but they must still
# reconcile with that run's misses.
census() { grep -E '"type":"profile_(cause|summary)"' "$1"; }
dune exec --no-build -- gigaflow-sim profile $PROF --engine batched --domains 1 \
  --out "$TDIR/profile_b1" > /dev/null
test "$(census "$TDIR/profile.jsonl")" = "$(census "$TDIR/profile_b1.jsonl")" || {
  echo "walker and batched engine miss-cause census differ" >&2; exit 1; }
dune exec --no-build -- gigaflow-sim profile $PROF --engine batched --domains 2 \
  --out "$TDIR/profile_b2" > /dev/null
dune exec --no-build -- gigaflow-sim telemetry-check "$TDIR/profile_b2.jsonl"

echo "== benchmark overhead floor"
# A fresh traced benchmark run alternates traced and untraced replays of
# the same loop; trace.overhead_frac is the ratio of their median CPU
# times minus one.  Tracing cannot make a replay faster, so a value below
# the floor means the untraced baseline was timed wrongly.  The floor sits
# below the timing noise: 48 runs on a 2-vCPU Xeon VM read -0.158 to
# +0.538 (-0.158 with a compile running beside it).  So the gate catches
# gross mis-timing only — a baseline timed over two replays reads about
# -0.5 — not a few-percent bias.
OVERHEAD_FLOOR=-0.25
dune exec --no-build benchmark/main.exe -- --workload drift_slo --traced --seconds 6 \
  --chrome "$TDIR/drift_slo.trace.json" > "$TDIR/bench.out"
dune exec --no-build -- gigaflow-sim telemetry-check --chrome "$TDIR/drift_slo.trace.json"
frac=$(tail -n 1 "$TDIR/bench.out" |
  grep -Eo '"trace\.overhead_frac": \{"value": [-+0-9.eE]+' | awk '{ print $NF }')
test -n "$frac" || { echo "traced benchmark reported no trace.overhead_frac" >&2; exit 1; }
awk -v f="$frac" -v floor="$OVERHEAD_FLOOR" 'BEGIN { exit !(f + 0 >= floor + 0) }' || {
  echo "trace.overhead_frac = $frac is below the $OVERHEAD_FLOOR noise floor" >&2; exit 1; }
echo "trace.overhead_frac = $frac (floor $OVERHEAD_FLOOR)"

echo "check.sh: all gates passed"
