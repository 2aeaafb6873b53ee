#!/bin/sh
# Printed-table check for one figure of a grid run: the run's stdout must
# carry the figure's columns in its table header and the figure's footer
# lines, and print one row per point with every point ok.
#
# usage: check_table.sh STDOUT PATTERN...
# A PATTERN starting with "# " is a footer line prefix, looked up in the
# whole output; any other PATTERN is a column name of the header line (the
# first line that is neither blank nor a "#" comment).
set -eu
out="$1"; shift

fail() { echo "FAIL: $*" >&2; exit 1; }

header=$(grep -v -e '^#' -e '^$' "$out" | head -n 1)
[ -n "$header" ] || fail "no table header in $out"
for p in "$@"; do
  case "$p" in
    "# "*) grep -qF -- "$p" "$out" || fail "footer '$p' missing from $out" ;;
    *) case " $header " in
         *" $p "*) ;;
         *) fail "column '$p' missing from the table header" ;;
       esac ;;
  esac
done

ok=$(sed -n 's|^# points ok: \([0-9]*\)/\([0-9]*\)$|\1 \2|p' "$out")
set -- $ok
[ "$#" -eq 2 ] && [ "$1" -eq "$2" ] || fail "not every point ok: '$ok'"
lines=$(grep -cv -e '^#' -e '^$' "$out") || lines=0
rows=$((lines - 1))
[ "$rows" -eq "$1" ] || fail "$rows table rows for $1 points"

echo "table ok: $out"
