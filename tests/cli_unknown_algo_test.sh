#!/bin/sh
# An unknown --algo value is a usage error: simsel_cli names the flag on
# stderr and exits 2 instead of running another algorithm. Checked on the
# `query` and `serve` commands, with a valid --algo as the control.
#
# Usage: tests/cli_unknown_algo_test.sh path/to/simsel_cli
set -u
cli=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
printf 'main street\nmain st\nelm street\nmaple avenue\n' > "$dir/records.txt"
"$cli" build "$dir/records.txt" "$dir/index.simsel" > /dev/null || exit 1

fail=0
expect() {  # expect STATUS ARGS...
  want=$1
  shift
  "$cli" "$@" > "$dir/out" 2> "$dir/err"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: simsel_cli $* exited $got, want $want" >&2
    cat "$dir/err" >&2
    fail=1
  elif [ "$want" -eq 2 ] && ! grep -q -- '--algo' "$dir/err"; then
    echo "FAIL: simsel_cli $* did not name --algo on stderr" >&2
    fail=1
  fi
}

expect 0 query "$dir/records.txt" "$dir/index.simsel" main street --algo=inra
expect 2 query "$dir/records.txt" "$dir/index.simsel" main street --algo=bogus
expect 2 query "$dir/records.txt" "$dir/index.simsel" main street --algo=
expect 2 serve "$dir/records.txt" --algo=bogus "main street"
exit $fail
