#!/usr/bin/env bash
# Smoke-test the engine perf pipeline: run bench_report against
# bench/micro_engine at a tiny --min-time so it finishes in seconds,
# then validate the emitted BENCH_engine.json (schema + both engines
# present for every required benchmark, both links for
# BM_SaturatedLink/{scalar,pooled}, and every ledger row variant,
# BM_DrainChainCycle/{10,24,46,188}). Speedup thresholds are NOT
# enforced here — a ctest sharing the machine with the rest of the
# suite would flake; run
#   tools/ci_checks.sh bench
# for an honest, longer measurement. A last leg checks that a floor
# which is not a finite number > 0 is a usage error (exit 2), never a
# floor of 0 that passes everything.
#
# Usage: tools/bench_smoke.sh <bench_report-bin> <micro_engine-bin>
set -euo pipefail

bench_report="${1:?usage: bench_smoke.sh <bench_report> <micro_engine>}"
micro_engine="${2:?usage: bench_smoke.sh <bench_report> <micro_engine>}"

out_dir="$(mktemp -d)"
trap 'rc=$?; rm -rf "$out_dir"; exit $rc' EXIT

out="$out_dir/BENCH_engine.json"
"$bench_report" --bench "$micro_engine" --out "$out" --min-time 0.01
"$bench_report" --validate "$out"

for bad in abc -1 nan 2x; do
  rc=0
  "$bench_report" --validate "$out" --require-speedup "$bad" \
    >/dev/null 2>&1 || rc=$?
  if [[ $rc -ne 2 ]]; then
    echo "bench smoke: FAIL (--require-speedup $bad exited $rc, want 2)" >&2
    exit 1
  fi
done

echo "bench smoke: OK"
