#!/bin/sh
# Diffs dcv_precheck's output against a checked-in golden file, byte for
# byte: each run's stdout followed by an "exit N" line.
#
#   precheck_golden.sh [--each] DCV_PRECHECK DATA_DIR WORK_DIR NAME
#
# Runs DATA_DIR/NAME.plan against DATA_DIR/fabric.topo and compares with
# DATA_DIR/NAME.out. With --each, every change of the plan runs as a plan of
# its own (a rollout stops at its first rejection, so this is how every
# change of the plan gets checked).
each=0
if [ "$1" = "--each" ]; then
  each=1
  shift
fi
tool=$1
data=$2
work=$3/$4
name=$4
rm -rf "$work" && mkdir -p "$work" || exit 1
if [ "$each" -eq 1 ]; then
  awk -v dir="$work" '/^change /{n++} n>0{print > sprintf("%s/%04d.plan", dir, n)}' \
    "$data/$name.plan" || exit 1
  plans=$(ls "$work"/*.plan)
else
  plans=$data/$name.plan
fi
for plan in $plans; do
  "$tool" --topology "$data/fabric.topo" --plan "$plan"
  echo "exit $?"
done > "$work/actual.out"
diff -u "$data/$name.out" "$work/actual.out"
