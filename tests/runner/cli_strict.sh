#!/bin/sh
# Malformed command lines must fail loudly: an unknown flag, a missing value
# or a number with trailing garbage exits 17 (the usage-error code) in the
# campaign driver and in a plain parse_options figure binary, and a valid
# invocation still exits 0. The figure binary refuses the driver-only flags
# (they would do nothing there), and the response spec refuses a stats
# window override (its window is T/10).
#
# usage: cli_strict.sh PI2_CAMPAIGN FIGURE_BINARY SPEC RESPONSE_SPEC WORKDIR
set -u
campaign="$1"; figure="$2"; spec="$3"; response_spec="$4"; work="$5"

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
  expect 17 "$figure" --smoke $bad
done
grep -q -- "--jobs" err.txt || {
  echo "FAIL: the error does not name the flag" >&2
  failures=$((failures + 1))
}
expect 17 "$figure" --fluid-background 5 --resume --grid-cap 3
expect 17 "$campaign" --spec "$response_spec" --digest --stats-start-s 2
expect 0 "$campaign" --spec "$spec" --digest --jobs 0 --seed 1
expect 0 "$campaign" --spec "$response_spec" --digest --smoke
expect 0 "$figure" --help

[ "$failures" -eq 0 ] || exit 1
echo "cli-strict ok"
