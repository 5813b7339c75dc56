#!/usr/bin/env bash
# Sweep driver smoke, in two legs:
#
#   1  Determinism: a tiny 2x2 grid (2 algorithms x 2 trials) under
#      --jobs 4 with the jobs=4-vs-jobs=1 --selfcheck, writing every
#      output file.
#   2  Bad invocations fail loudly: exit 2 with a message, and no trial
#      run or written. Covers a spec directory with no --experiment
#      (which once fell back to a default grid and exited 0), every
#      option of the removed multi-process mode, so a stale script
#      never silently runs something else, and malformed numeric flags
#      (trailing junk, a sign on a count, non-finite, underflowing or
#      out-of-range values), which once ran with a truncated or wrapped value.
#
# Usage: tools/sweep_smoke.sh /path/to/slowcc_sweep specs/
set -euo pipefail

sweep="${1:?usage: sweep_smoke.sh /path/to/slowcc_sweep specs_dir}"
specs="${2:?usage: sweep_smoke.sh /path/to/slowcc_sweep specs_dir}"
if [[ ! -x "$sweep" ]]; then
  echo "sweep_smoke: slowcc_sweep not found at '$sweep' —" \
       "build it with: cmake --build build --target slowcc_sweep" >&2
  exit 1
fi
[[ -d "$specs" ]] || { echo "sweep_smoke: no specs dir at '$specs'" >&2; exit 1; }

work="$(mktemp -d)"
# Preserve the failing command's exit code through the cleanup trap so
# callers (ctest, CI) see the real status, not rm's.
trap 'rc=$?; rm -rf "$work"; exit $rc' EXIT

fail() {
  echo "sweep_smoke: FAIL ($*)" >&2
  exit 1
}

# ---- Leg 1: jobs=4 == jobs=1, outputs written ----------------------
"$sweep" --experiment static_compat --algorithms tcp,tfrc:6 \
  --trials 2 --jobs 4 --duration-scale 0.02 \
  --selfcheck --out "$work/smoke" --quiet \
  || fail "selfcheck sweep exited $?"
for f in trials.jsonl trials.csv cells.jsonl cells.csv manifest.jsonl; do
  [[ -s "$work/smoke.$f" ]] || fail "missing output $f"
done

# ---- Leg 2: bad invocations exit 2 and run nothing -----------------
# expect_usage_error LABEL PATTERN ARGS...: the sweep must exit 2, print
# PATTERN on stderr, and leave the scratch output directory empty.
expect_usage_error() {
  local label="$1" pattern="$2"; shift 2
  local out="$work/$label"
  mkdir -p "$out"
  local rc=0
  "$sweep" "$@" --duration-scale 0.02 --out "$out/run" \
    2>"$work/$label.err" >/dev/null || rc=$?
  [[ $rc -eq 2 ]] || fail "$label: exited $rc (want 2)"
  grep -q -- "$pattern" "$work/$label.err" \
    || fail "$label: stderr lacks '$pattern': $(cat "$work/$label.err")"
  [[ -z "$(ls -A "$out")" ]] || fail "$label: wrote $(ls "$out")"
}

expect_usage_error no-experiment "pick one with --experiment" \
  --spec "$specs"
for flag in --fleet --worker-id --lease-ttl --heartbeat \
            --max-lease-breaks --fleet-poll --mem-high-water; do
  expect_usage_error "removed${flag}" "unknown option $flag" \
    --experiment static_compat "$flag" 1
done

i=0
for bad in "--trial-max-events abc" "--trial-max-events -1" \
           "--trial-wall-seconds abc" "--trial-wall-seconds -3" \
           "--trial-wall-seconds 1e-400" \
           "--jobs 2x" "--max-attempts 2x" "--trial-weight-cap 2x" \
           "--chaos 0.5x" "--chaos nan"; do
  i=$((i + 1))
  # shellcheck disable=SC2086  # split "FLAG VALUE" into two words
  expect_usage_error "numeric-$i" "\[bad-config\]" \
    --experiment static_compat $bad
done

echo "sweep_smoke: PASS"
