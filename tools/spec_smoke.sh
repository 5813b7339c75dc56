#!/usr/bin/env bash
# Spec library smoke, in four legs:
#
#   1  Golden gate: slowcc_spec --check runs every committed spec at a
#      short duration scale and byte-compares the digests against
#      specs/golden/ (regen: SLOWCC_REGEN_GOLDEN=1). Among them,
#      saturated_dumbbell keeps its bottleneck busy for the whole run,
#      so the drain chain and propagation FIFO stay armed throughout.
#   2  Sweep determinism: a spec-driven sweep (algorithm hole filled
#      from --algorithms, one declared [params] axis swept) must be
#      byte-identical across --jobs 4 (via --selfcheck, which replays
#      the grid at --jobs 1), and the checkpointed finals of a --jobs 1
#      and a --jobs 4 run must match byte for byte.
#   3  Bad numbers fail loudly: a malformed --scale or --seed, and a
#      scale so small that an on/off pattern's period rounds to zero
#      (which once toggled forever at one instant), exit 2 with
#      [bad-config] and print no result.
#   4  Scales that round positive times to 0 ns: every spec under
#      --scale 1e-12 and 1e-10 either prints a result and exits 0, or
#      exits 2 with [bad-config] and prints nothing (never [bad-spec],
#      a crash or a hang).
#
# Usage: tools/spec_smoke.sh /path/to/slowcc_spec /path/to/slowcc_sweep specs/
set -euo pipefail

spec_tool="${1:?usage: spec_smoke.sh slowcc_spec slowcc_sweep specs_dir}"
sweep="${2:?usage: spec_smoke.sh slowcc_spec slowcc_sweep specs_dir}"
specs="${3:?usage: spec_smoke.sh slowcc_spec slowcc_sweep specs_dir}"
for bin in "$spec_tool" "$sweep"; do
  if [[ ! -x "$bin" ]]; then
    echo "spec_smoke: binary not found at '$bin' — build with:" \
         "cmake --build build --target slowcc_spec slowcc_sweep" >&2
    exit 1
  fi
done
[[ -d "$specs" ]] || { echo "spec_smoke: no specs dir at '$specs'" >&2; exit 1; }

work="$(mktemp -d)"
# Preserve the failing command's exit code through the cleanup trap so
# callers (ctest, CI) see the real status, not rm's.
trap 'rc=$?; rm -rf "$work"; exit $rc' EXIT

fail() {
  echo "spec_smoke: FAIL ($*)" >&2
  exit 1
}

# ---- Leg 1: every spec parses and matches its golden ---------------
"$spec_tool" --check "$specs" || fail "slowcc_spec --check exited $?"

# ---- Leg 2: spec-driven sweep determinism -------------------------
# wifi_jitter_burst declares the burst_loss param and leaves the flow
# algorithm as a "$algorithm" hole, so this exercises --spec + --sweep
# + --algorithms composed, exactly as EXPERIMENTS.md documents.
common=(--spec "$specs/wifi_jitter_burst.toml"
        --algorithms tcp,tfrc:6 --trials 2
        --sweep burst_loss=0.1,0.3 --base-seed 11
        --duration-scale 0.02 --quiet)

# jobs=4 vs jobs=1: --selfcheck re-runs the grid single-threaded and
# fails unless every row is byte-identical.
"$sweep" "${common[@]}" --jobs 4 --selfcheck \
  || fail "spec sweep --jobs 4 --selfcheck exited $?"

# Checkpointed --jobs 1 reference vs --jobs 4. The journal is in
# completion order, so only the sorted finals are compared.
"$sweep" "${common[@]}" --jobs 1 --resume "$work/ref" \
  || fail "spec sweep reference run exited $?"
"$sweep" "${common[@]}" --jobs 4 --resume "$work/par" \
  || fail "spec sweep --jobs 4 run exited $?"

for f in trials.jsonl trials.csv cells.jsonl cells.csv; do
  if ! cmp -s "$work/ref/$f" "$work/par/$f"; then
    echo "spec_smoke: FAIL ($f differs between --jobs 1 and --jobs 4)" >&2
    diff "$work/ref/$f" "$work/par/$f" >&2 || true
    exit 1
  fi
done

# ---- Leg 3: bad numbers exit 2 with [bad-config] -------------------
fig03="$specs/paper_fig03_stabilization.toml"
for bad in "--scale abc" "--scale 0" "--scale 0.05x" "--scale 1e-12" \
           "--scale 1e-400" \
           "--seed 12abc" "--seed -1"; do
  rc=0
  # shellcheck disable=SC2086  # split "FLAG VALUE" into two words
  timeout 20 "$spec_tool" --run "$fig03" $bad \
    >"$work/bad.out" 2>"$work/bad.err" || rc=$?
  [[ $rc -eq 2 ]] || fail "--run $bad exited $rc (want 2)"
  grep -q "\[bad-config\]" "$work/bad.err" \
    || fail "--run $bad: stderr lacks [bad-config]: $(cat "$work/bad.err")"
  [[ ! -s "$work/bad.out" ]] || fail "--run $bad printed a result"
done

# ---- Leg 4: scales that round a positive time to 0 ns -------------
for scale in 1e-12 1e-10; do
  for spec in "$specs"/*.toml; do
    rc=0
    timeout 20 "$spec_tool" --run "$spec" --scale "$scale" \
      >"$work/tiny.out" 2>"$work/tiny.err" || rc=$?
    name="$(basename "$spec") --scale $scale"
    if [[ $rc -eq 0 ]]; then
      [[ -s "$work/tiny.out" ]] || fail "$name exited 0 with no result"
    elif [[ $rc -eq 2 ]]; then
      grep -q "\[bad-config\]" "$work/tiny.err" \
        || fail "$name: stderr lacks [bad-config]: $(cat "$work/tiny.err")"
      [[ ! -s "$work/tiny.out" ]] || fail "$name printed a result"
    else
      fail "$name exited $rc (want 0 or 2)"
    fi
  done
done

echo "spec_smoke: PASS"
