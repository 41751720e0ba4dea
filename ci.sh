#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test"
cargo test -q

# Gating: the benchmark is a package of its own (own workspace), so the
# tier-1 command never builds it, yet it calls the front end's lexer,
# parser and lowering directly. Build and test it here so a front-end API
# change cannot break the benchmark unnoticed.
echo "==> tier-1: benchmark package (cargo test --manifest-path benchmark/Cargo.toml)"
cargo test -q --manifest-path benchmark/Cargo.toml

# Non-gating incremental-maintenance tier: regenerate the
# BENCH_incremental.json experiment (single-method edits at scale 64
# under 2obj+H) and flag drift against the checked-in artifact.
# Wall-clock and the resulting speedup are host-dependent, so this
# warns instead of gating; the final fact counts are what the artifact
# exists to pin. Refresh with:
#   ./target/release/incrbench --edits 20 --reps 3 --json BENCH_incremental.json
echo "==> incremental tier (non-gating)"
if cargo build --release -q -p pta-bench \
   && ./target/release/incrbench --edits 20 --reps 1 --min-speedup 10 \
        --json /tmp/bench-incr.json >/dev/null 2>&1; then
  if [ "$(grep -o '"final_ctx_tuples":[0-9]*' /tmp/bench-incr.json)" \
     = "$(grep -o '"final_ctx_tuples":[0-9]*' BENCH_incremental.json)" ]; then
    echo "    incremental tier OK: matches BENCH_incremental.json"
  else
    echo "    WARNING: incremental results drifted from BENCH_incremental.json (non-gating);"
    echo "    regenerate it with the incrbench command above and commit the diff."
  fi
else
  echo "    WARNING: incremental tier failed or speedup under 10x (non-gating);"
  echo "    re-run manually: ./target/release/incrbench --edits 20 --reps 1 --min-speedup 10"
fi

# Non-gating scale-256 tier: regenerate the BENCH_scale.json experiment
# (one 2obj+H cell at scale 256) and flag drift against the checked-in
# artifact. Wall-clock and peak RSS are host-dependent, so this warns
# instead of gating; the fact counts are what the artifact exists to
# record. Refresh with:
#   ./target/release/table1 --workloads luindex --analyses 2obj+H \
#     --scale 256 --reps 1 --jobs 1 --json BENCH_scale.json
echo "==> scale-256 tier (non-gating)"
if ./target/release/table1 --workloads luindex --analyses 2obj+H \
     --scale 256 --reps 1 --jobs 1 --json /tmp/bench-scale.json >/dev/null 2>&1 \
   && ./target/release/table1 --check /tmp/bench-scale.json --expect-cells 1 \
   && grep -q '"status":"ok"' /tmp/bench-scale.json; then
  if [ "$(grep -o '"sensitive_var_points_to":[0-9]*' /tmp/bench-scale.json)" \
     = "$(grep -o '"sensitive_var_points_to":[0-9]*' BENCH_scale.json)" ]; then
    echo "    scale-256 tier OK: matches BENCH_scale.json"
  else
    echo "    WARNING: scale-256 results drifted from BENCH_scale.json (non-gating);"
    echo "    regenerate it with the table1 command above and commit the diff."
  fi
else
  echo "    WARNING: scale-256 tier failed (non-gating); re-run manually with the table1 command above."
fi

# Non-gating smoke-perf: run the table1 matrix on the two smallest
# workloads, dump JSON, and re-parse it with the harness's own checker
# (12 analyses x 2 workloads = 24 cells). Failures warn but never block —
# this catches harness bit-rot, not performance regressions.
echo "==> smoke-perf (non-gating)"
if cargo build --release -q -p pta-bench \
   && ./target/release/table1 --workloads luindex,lusearch --reps 1 \
      --cell-timeout 300 --json /tmp/bench.json >/dev/null 2>&1 \
   && ./target/release/table1 --check /tmp/bench.json --expect-cells 24; then
  echo "    smoke-perf OK"
else
  echo "    WARNING: smoke-perf failed (non-gating); re-run manually:"
  echo "    ./target/release/table1 --workloads luindex,lusearch --reps 1 --json /tmp/bench.json"
fi

# Gating rule-profile drift check: re-run the profiled config behind
# BENCH_profile.json and diff per-rule fire counts with profdiff. The
# solver is deterministic, so the 5% tolerance only absorbs deliberate
# small rule-mix shifts; real drift fails the build. When a change to
# rule behaviour is *intended*, refresh the baseline in the same commit:
#   ./target/release/table1 --workloads luindex,lusearch \
#     --analyses insens,1obj,S-2obj+H --reps 1 --jobs 1 --profile \
#     --json BENCH_profile.json
# then re-run ./ci.sh and review the BENCH_profile.json diff alongside
# the code change (see DESIGN.md §11 for the profile format).
echo "==> rule-profile drift gate (profdiff --tolerance 5)"
./target/release/table1 --workloads luindex,lusearch \
  --analyses insens,1obj,S-2obj+H --reps 1 --jobs 1 --profile \
  --json /tmp/bench-profile.json >/dev/null
if ./target/release/profdiff BENCH_profile.json /tmp/bench-profile.json --tolerance 5; then
  echo "    rule-profile gate OK: fire counts within 5% of the checked-in baseline"
else
  echo "    ERROR: rule profiles drifted from BENCH_profile.json."
  echo "    If the change is intended, regenerate the baseline and commit it:"
  echo "    ./target/release/table1 --workloads luindex,lusearch --analyses insens,1obj,S-2obj+H --reps 1 --jobs 1 --profile --json BENCH_profile.json"
  exit 1
fi

# Gating: `pta check` client-suite smoke on the motivating example. The
# spec marks Client.main a source and C.foo's argument a sink; exactly
# the two conflation-visible findings must appear (W020 x2), the JSON
# must be byte-stable, and the Datalog client back end must agree with
# the direct fixpoints byte-for-byte.
echo "==> tier-1: pta check smoke (motivating example, direct vs datalog)"
./target/release/pta check examples/programs/motivating.jir \
  --spec examples/specs/motivating.spec --format json \
  --client-backend direct > /tmp/ci-check-direct.json
./target/release/pta check examples/programs/motivating.jir \
  --spec examples/specs/motivating.spec --format json \
  --client-backend datalog > /tmp/ci-check-datalog.json
cmp /tmp/ci-check-direct.json /tmp/ci-check-datalog.json
test "$(grep -o '"code":"W020"' /tmp/ci-check-direct.json | wc -l)" -eq 2
test "$(grep -o '"code":"' /tmp/ci-check-direct.json | wc -l)" -eq 2  # and nothing else
echo "    pta check smoke OK: 2 taint findings, client back ends byte-identical"

# Gating: serve smoke. Start the resident daemon over stdio, exercise all
# four query kinds plus health, request shutdown, and require a graceful
# drain (the pipeline fails unless `pta serve` exits 0). The cast site is
# a fixed property of the deterministic luindex generator (visible via
# `pta analyze --casts`).
echo "==> tier-1: serve smoke (daemon lifecycle over stdio)"
./target/release/pta workload luindex --scale 0.2 --print > /tmp/ci-serve.jir
printf '%s\n' \
  '{"id":1,"op":"points_to","var":"r"}' \
  '{"id":2,"op":"devirt","invo":0}' \
  '{"id":3,"op":"cast_check","method":"Service0.step0","instr":2}' \
  '{"id":4,"op":"findings","var":"r"}' \
  '{"id":5,"op":"health"}' \
  '{"id":6,"op":"shutdown"}' \
  | ./target/release/pta serve /tmp/ci-serve.jir --policy S-2obj+H > /tmp/ci-serve.out
for pat in '"op":"points_to"' '"op":"devirt"' '"may_fail":true' \
           '"op":"findings"' '"status":"ok"' '"stopping":true'; do
  grep -q "$pat" /tmp/ci-serve.out
done
test "$(grep -c '"ok":true' /tmp/ci-serve.out)" -eq 6
echo "    serve smoke OK: four query kinds answered, graceful drain exited 0"

# Gating: telemetry smoke. Exercise three query ops plus the `metrics`
# op over stdio and assert exact counter values in both renderings
# (the JSON registry dump and the escaped Prometheus text), then probe
# the HTTP exposition endpoint of a TCP-only daemon with a raw GET over
# /dev/tcp and require a well-formed scrape. Counter values are exact:
# per-op request counts are deterministic functions of the request
# stream.
echo "==> tier-1: telemetry smoke (metrics op + Prometheus endpoint)"
printf '%s\n' \
  '{"id":1,"op":"points_to","var":"r"}' \
  '{"id":2,"op":"points_to","var":"r"}' \
  '{"id":3,"op":"devirt","invo":0}' \
  '{"id":4,"op":"metrics"}' \
  '{"id":5,"op":"shutdown"}' \
  | ./target/release/pta serve /tmp/ci-serve.jir --policy S-2obj+H \
      --events /tmp/ci-serve-events.jsonl > /tmp/ci-serve-metrics.out
grep -q '"name":"pta_requests_total","labels":{"op":"points_to"},"value":2' /tmp/ci-serve-metrics.out
grep -q '"name":"pta_requests_total","labels":{"op":"devirt"},"value":1' /tmp/ci-serve-metrics.out
grep -q '"name":"pta_solve_total","labels":{},"value":1' /tmp/ci-serve-metrics.out
grep -q 'pta_requests_total{op=\\"points_to\\"} 2' /tmp/ci-serve-metrics.out
grep -q '"event":"daemon_start"' /tmp/ci-serve-events.jsonl
grep -q '"event":"request","id":1,"op":"points_to","status":"ok"' /tmp/ci-serve-events.jsonl
grep -q '"event":"shutdown","forced":false' /tmp/ci-serve-events.jsonl
rm -f /tmp/ci-metrics-port /tmp/ci-serve-port
./target/release/pta serve /tmp/ci-serve.jir --no-stdin \
  --port 0 --port-file /tmp/ci-serve-port \
  --metrics-addr 127.0.0.1:0 --metrics-port-file /tmp/ci-metrics-port \
  2>/dev/null & SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s /tmp/ci-metrics-port ] && [ -s /tmp/ci-serve-port ] && break
  sleep 0.1
done
# One answered query, *then* the scrape: the worker records the latency
# observation before the response line is written, so by the time the
# client has the answer the histogram deterministically holds 1 sample.
exec 4<>"/dev/tcp/127.0.0.1/$(cat /tmp/ci-serve-port)"
printf '{"id":8,"op":"points_to","var":"r"}\n' >&4
read -r answer_line <&4
echo "$answer_line" | grep -q '"ok":true'
exec 3<>"/dev/tcp/127.0.0.1/$(cat /tmp/ci-metrics-port)"
printf 'GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n' >&3
SCRAPE=$(cat <&3)
exec 3<&- 3>&-
echo "$SCRAPE" | head -n 1 | grep -q '200 OK'
echo "$SCRAPE" | grep -q '# TYPE pta_request_latency_us histogram'
echo "$SCRAPE" | grep -q '^pta_request_latency_us_count{op="points_to"} 1$'
echo "$SCRAPE" | grep -q '# TYPE pta_solver_vpt_inserted_total counter'
echo "$SCRAPE" | grep -q '^pta_solve_total 1$'
printf '{"id":9,"op":"shutdown"}\n' >&4
read -r _ack <&4 || true
exec 4<&- 4>&-
wait "$SERVE_PID"
echo "    telemetry smoke OK: exact counters in both renderings, endpoint scraped"

# Non-gating: 500-request fault-injection soak. Replays a seeded mixed
# query stream (2% injected faults: delays, forced cancellations, budget
# exhaustion, garbled responses) from 4 concurrent connections against
# the in-process daemon and byte-compares every response with a fresh
# batch oracle; also asserts zero hangs, bounded cancellation latency,
# and a clean drain. Deterministic, but timing-sensitive on loaded
# runners, so it warns instead of gating.
echo "==> serve fault-injection soak (non-gating)"
if ./target/release/soak --requests 500 --seed 42 --fault-rate 0.02 \
     > /tmp/ci-soak.out 2>&1; then
  tail -n 3 /tmp/ci-soak.out | sed 's/^/    /'
else
  echo "    WARNING: serve soak failed (non-gating); re-run manually:"
  echo "    ./target/release/soak --requests 500 --seed 42 --fault-rate 0.02"
  tail -n 5 /tmp/ci-soak.out | sed 's/^/    /'
fi

# Non-gating: serve telemetry drift. Reruns the soak (the deterministic
# configuration BENCH_serve.json pins) and compares
# the counter digest of the daemon's Prometheus exposition against the
# checked-in baseline. The digest covers counters only — deterministic
# sums of per-request increments decided by (seed, id) — so any
# mismatch means the telemetry or the request lifecycle changed
# observably, not that the machine is slower.
echo "==> serve telemetry drift vs BENCH_serve.json (non-gating)"
if ./target/release/soak --requests 500 --seed 42 --fault-rate 0.02 \
     --json /tmp/bench-serve.json > /tmp/ci-soak-drift.out 2>&1; then
  WANT=$(grep -o '"metrics_digest":"[0-9a-f]*"' BENCH_serve.json)
  GOT=$(grep -o '"metrics_digest":"[0-9a-f]*"' /tmp/bench-serve.json)
  if [ "$WANT" = "$GOT" ]; then
    echo "    telemetry drift OK: counter digest matches the baseline ($GOT)"
  else
    echo "    WARNING: telemetry counter digest drifted (non-gating):"
    echo "    baseline $WANT, current $GOT"
    echo "    If the change is intended, regenerate the baseline and commit it:"
    echo "    ./target/release/soak --requests 500 --seed 42 --fault-rate 0.02 --json BENCH_serve.json"
  fi
else
  echo "    WARNING: telemetry drift soak failed (non-gating)"
  tail -n 5 /tmp/ci-soak-drift.out | sed 's/^/    /'
fi

echo "==> CI green"
