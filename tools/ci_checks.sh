#!/usr/bin/env bash
# Canonical CI entry point — also pleasant to run locally before
# pushing. Chains, in order:
#
#   1. configure with warnings-as-errors (SLOWCC_WERROR=ON)
#   2. full build
#   3. slowcc_lint over the tree (the `lint` target)
#   4. clang-tidy (`tidy` target; no-op when clang-tidy is absent)
#   5. ctest tier-1 suite (includes sweep_chaos_smoke: a SIGKILLed
#      --jobs 4 sweep, resumed, must match the uninterrupted --jobs 1
#      output byte-for-byte; spec_smoke: the specs/ library vs its
#      committed golden digests plus spec-driven sweep determinism
#      across --jobs 1/--jobs 4 and scales that round times to 0 ns;
#      bench_smoke: the perf pipeline end to end plus its strict floor
#      parsing; and overload_smoke: a memory-bomb trial under
#      --trial-max-bytes must quarantine as resource-exhausted with
#      peak-usage fields while the canonical outputs stay
#      byte-identical across --jobs 1/--jobs 4)
#   6. spec library golden gate: every specs/*.toml compiled and run
#      on the one event engine and the one packet path, digests
#      byte-compared against specs/golden/ (regen with
#      SLOWCC_REGEN_GOLDEN=1)
#   7. engine perf report: bench_report runs the event-queue
#      micro-benchmarks (the timer wheel against the reference heap
#      from tests/) plus the BM_SaturatedLink packet hot-path
#      macro-bench (net::Link against the reference test::ScalarLink
#      from tests/) and writes BENCH_engine.json into the build dir.
#      The wheel >= 1.5x heap and pooled >= 2x scalar floors are
#      advisory by default (warn only): wall-clock ratios between two
#      in-process benchmarks are not stable on shared/virtualized
#      runners. Set SLOWCC_ENFORCE_BENCH=1 on a dedicated quiet perf
#      runner to make both floors hard failures, or SLOWCC_SKIP_BENCH=1
#      to skip the bench step entirely.
#   8. benchmark self-test: slowbench/run.py selftest builds slowbench/
#      against this tree's src/ into the build dir (CARGO_TARGET_DIR)
#      and runs both workloads at tiny scale through their digest gate.
#      Tier-1 never compiles slowbench/src, so this is what catches an
#      src/sim or src/net API change that breaks the benchmark (~55 s
#      with the build; skipped with the bench step under
#      SLOWCC_SKIP_BENCH=1).
#   9. lint baseline must stay empty: the hot-path rules were promoted
#      to enforced with tools/lint/baseline.txt driven to empty, and
#      new entries may not ride in silently — shrinking a finding means
#      fixing it, not baselining it.
#
# Usage: tools/ci_checks.sh [build-dir]   (default: build-ci)
# Environment: JOBS=<n> overrides the parallelism (default: nproc).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-ci}"
jobs="${JOBS:-$(nproc)}"

step() { echo; echo "=== ci_checks: $* ==="; }

step "configure (SLOWCC_WERROR=ON) -> $build_dir"
cmake -B "$build_dir" -S "$repo_root" -DSLOWCC_WERROR=ON

step "build (-j$jobs)"
cmake --build "$build_dir" -j"$jobs"

step "lint (slowcc_lint over src bench tools examples)"
cmake --build "$build_dir" --target lint

step "lint SARIF artifact + baseline-delta gate"
# Fails only on enforced findings absent from the committed baseline, so
# a rule rollout can land before the whole tree is clean; the SARIF file
# is the uploadable CI artifact. (The baseline itself must stay empty —
# see the growth gate at the end.)
"$build_dir/tools/slowcc_lint" --root "$repo_root" \
  --format sarif --output "$build_dir/lint.sarif" \
  --cache "$build_dir/lint-cache" \
  --baseline "$repo_root/tools/lint/baseline.txt" \
  src bench tools examples
echo "ci_checks: lint SARIF artifact at $build_dir/lint.sarif"

step "tidy (clang-tidy; no-op when unavailable)"
cmake --build "$build_dir" --target tidy

step "ctest (-j$jobs)"
ctest --test-dir "$build_dir" --output-on-failure -j"$jobs"

step "spec library golden check (slowcc_spec --check specs)"
"$build_dir/tools/slowcc_spec" --check "$repo_root/specs"

if [[ "${SLOWCC_SKIP_BENCH:-0}" != "1" ]]; then
  if [[ "${SLOWCC_ENFORCE_BENCH:-0}" == "1" ]]; then
    step "bench (BENCH_engine.json, enforcing wheel >= 1.5x heap, BM_SaturatedLink pooled >= 2x scalar)"
    speedup_flag="--require-speedup"
    packet_flag="--require-packet-speedup"
  else
    step "bench (BENCH_engine.json, wheel >= 1.5x heap / BM_SaturatedLink pooled >= 2x scalar advisory)"
    speedup_flag="--advise-speedup"
    packet_flag="--advise-packet-speedup"
  fi
  "$build_dir/tools/bench_report" \
    --bench "$build_dir/bench/micro_engine" \
    --out "$build_dir/BENCH_engine.json" --min-time 0.25 \
    --lint "$build_dir/tools/slowcc_lint" --lint-root "$repo_root"
  "$build_dir/tools/bench_report" \
    --validate "$build_dir/BENCH_engine.json" "$speedup_flag" 1.5 \
    "$packet_flag" 2.0

  step "benchmark self-test (slowbench/run.py selftest)"
  CARGO_TARGET_DIR="$build_dir" python3 "$repo_root/slowbench/run.py" selftest
else
  step "bench + benchmark self-test (skipped: SLOWCC_SKIP_BENCH=1)"
fi

step "lint baseline growth gate (tools/lint/baseline.txt must stay empty)"
if grep -v '^#' "$repo_root/tools/lint/baseline.txt" | grep -q .; then
  echo "ci_checks: tools/lint/baseline.txt grew — fix the findings instead" >&2
  grep -v '^#' "$repo_root/tools/lint/baseline.txt" >&2
  exit 1
fi
echo "ci_checks: baseline empty"

echo
echo "ci_checks: ALL PASS"
