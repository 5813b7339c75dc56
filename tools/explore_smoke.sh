#!/usr/bin/env bash
# slowcc_explore input validation: every bad invocation must exit 2
# with a typed [bad-config] SimError on stderr and print no result;
# one valid invocation must still run.
#
# Usage: tools/explore_smoke.sh /path/to/slowcc_explore
set -euo pipefail

explore="${1:?usage: explore_smoke.sh /path/to/slowcc_explore}"
if [[ ! -x "$explore" ]]; then
  echo "explore_smoke: slowcc_explore not found at '$explore' —" \
       "build it with: cmake --build build --target slowcc_explore" >&2
  exit 1
fi

work="$(mktemp -d)"
trap 'rc=$?; rm -rf "$work"; exit $rc' EXIT

fail() {
  echo "explore_smoke: FAIL ($*)" >&2
  exit 1
}

# expect_bad_config ARGS...: exit 2, [bad-config] on stderr, no stdout.
expect_bad_config() {
  local rc=0 out err
  out="$("$explore" "$@" 2>"$work/err")" || rc=$?
  err="$(cat "$work/err")"
  [[ $rc -eq 2 ]] || fail "'$*' exited $rc (want 2)"
  [[ "$err" == *"[bad-config]"* ]] || fail "'$*' stderr lacks [bad-config]: $err"
  [[ -z "$out" ]] || fail "'$*' printed a result: $out"
}

expect_bad_config static gamma=-2
expect_bad_config static gamma=abc
expect_bad_config static gamma=0
expect_bad_config static gamma
expect_bad_config static =2
expect_bad_config static loss=0.02x
expect_bad_config static seed=1,2
expect_bad_config static algo=bogus
expect_bad_config static algo=tcp conservative=1

out="$("$explore" static algo=tcp gamma=2 loss=0.05)" \
  || fail "valid invocation exited $?"
[[ "$out" == *"goodput"* ]] || fail "valid invocation printed no result"

echo "explore_smoke: PASS"
