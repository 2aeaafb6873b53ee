#!/bin/sh
# Malformed command lines must fail loudly: an unknown flag, a missing value
# or a number with trailing garbage exits 17 (the usage-error code) in the
# campaign driver and in a plain parse_options figure binary, and a valid
# invocation still exits 0.
#
# usage: cli_strict.sh PI2_CAMPAIGN FIG_RESPONSE SPEC WORKDIR
set -u
campaign="$1"; response="$2"; spec="$3"; work="$4"

rm -rf "$work"
mkdir -p "$work"
cd "$work" || exit 1

failures=0
expect() {  # expect CODE CMD...
  want="$1"; shift
  "$@" > out.txt 2> err.txt
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, expected $want: $*" >&2
    failures=$((failures + 1))
  fi
}

for bad in "--jbos 2" "--jobs abc" "--seed 1x" "--jobs"; do
  # shellcheck disable=SC2086  # the bad flag pair is split on purpose
  expect 17 "$campaign" --spec "$spec" --digest $bad
  # shellcheck disable=SC2086
  expect 17 "$response" --smoke $bad
done
grep -q -- "--jobs" err.txt || {
  echo "FAIL: the error does not name the flag" >&2
  failures=$((failures + 1))
}
expect 0 "$campaign" --spec "$spec" --digest --jobs 0 --seed 1
expect 0 "$response" --help

[ "$failures" -eq 0 ] || exit 1
echo "cli-strict ok"
