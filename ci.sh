#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 suite, the benchmark
# package's tests and the rule-profile gate, plus two non-gating tiers.
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

echo "==> CI green"
