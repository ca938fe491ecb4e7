#!/bin/sh
# `simsel_cli query <records> <index>` over a damaged index image fails with
# a message on stderr and an exit status in 1..127 (an error, not a crash):
# a truncated image, one flipped byte and an empty file. An undamaged image
# that still carries the retired by-id section is the control: exit 0.
#
# Usage: tests/cli_saved_index_test.sh path/to/simsel_cli path/to/tests/data
set -u
cli=$1
data=$2
records=$data/two_orders_records.txt
image=$data/two_orders_v4.simsel
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

size=$(wc -c < "$image")
head -c $((size / 2)) "$image" > "$dir/truncated.simsel"

cp "$image" "$dir/flipped.simsel"
at=$((size / 3))
old=$(od -An -tu1 -j "$at" -N1 "$image" | tr -d ' ')
if [ "$old" -eq 255 ]; then new='\000'; else new='\377'; fi
printf "$new" | dd of="$dir/flipped.simsel" bs=1 seek="$at" count=1 \
    conv=notrunc 2> /dev/null

: > "$dir/empty.simsel"

fail=0
for damaged in truncated flipped empty; do
  "$cli" query "$records" "$dir/$damaged.simsel" main street \
      > "$dir/out" 2> "$dir/err"
  got=$?
  if [ "$got" -eq 0 ] || [ "$got" -ge 128 ]; then
    echo "FAIL: $damaged image: simsel_cli query exited $got, want 1..127" >&2
    cat "$dir/err" >&2
    fail=1
  elif [ ! -s "$dir/err" ]; then
    echo "FAIL: $damaged image: simsel_cli query wrote nothing on stderr" >&2
    fail=1
  fi
done

for version in 2 3 4; do
  if ! "$cli" query "$records" "$data/two_orders_v$version.simsel" \
      main street > "$dir/out" 2> "$dir/err"; then
    echo "FAIL: simsel_cli query on two_orders_v$version.simsel failed" >&2
    cat "$dir/err" >&2
    fail=1
  fi
done
exit $fail
