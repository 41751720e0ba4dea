#!/usr/bin/env bash
# Local CI gate: formatting, lints, warning-free API docs, the tier-1
# suite (which includes the rule-profile gate) and the benchmark
# package's tests, plus one non-gating tier and the non-gating line count.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# Gating: the published API docs build without a warning, so no doc
# link dangles or points at a private item.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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
#   ./target/release/pta table1 --workloads luindex --analyses 2obj+H \
#     --scale 256 --reps 1 --jobs 1 --json BENCH_scale.json
echo "==> scale-256 tier (non-gating)"
if ./target/release/pta table1 --workloads luindex --analyses 2obj+H \
     --scale 256 --reps 1 --jobs 1 --json /tmp/bench-scale.json >/dev/null 2>&1 \
   && ./target/release/pta table1 --check /tmp/bench-scale.json --expect-cells 1 \
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

# Non-gating: the ROADMAP's north-star metric, net Rust lines outside
# tests/ directories, printed so each run shows it.
echo "==> line count (non-gating)"
echo "    $(find crates src -name '*.rs' -not -path '*/tests/*' | xargs cat | wc -l) lines of Rust outside tests/"

echo "==> CI green"
