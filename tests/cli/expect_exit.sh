#!/usr/bin/env bash
# Runs a command and checks how it ends: with exit status <status> and, when
# that status is nonzero, exactly one stderr line, matching <pattern>
# (grep -E).
#
# Usage: expect_exit.sh <status> <pattern> <command> [args...]
set -u
want=$1
pattern=$2
shift 2
err=$(mktemp)
trap 'rm -f "$err"' EXIT
"$@" > /dev/null 2> "$err"
got=$?
if [ "$got" -ne "$want" ]; then
  echo "FAIL: exit status $got, expected $want: $*"
  cat "$err"
  exit 1
fi
if [ "$want" -ne 0 ]; then
  lines=$(wc -l < "$err")
  if [ "$lines" -ne 1 ] || ! grep -Eq "$pattern" "$err"; then
    echo "FAIL: expected one stderr line matching '$pattern', got $lines:"
    cat "$err"
    exit 1
  fi
fi
echo "ok: exit status $got: $*"
