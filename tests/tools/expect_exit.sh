#!/bin/sh
# Runs a command and passes only when it exits with exactly the expected
# status (ctest alone tells zero from non-zero, so a crash would pass as a
# "failure"). With --mkdir, first recreates DIR as an empty directory.
#
#   expect_exit.sh [--mkdir DIR] STATUS COMMAND [ARG...]
if [ "$1" = "--mkdir" ]; then
  rm -rf "$2" && mkdir -p "$2" || exit 1
  shift 2
fi
expected=$1
shift
"$@"
status=$?
if [ "$status" -ne "$expected" ]; then
  echo "expected exit status $expected, got $status: $*" >&2
  exit 1
fi
