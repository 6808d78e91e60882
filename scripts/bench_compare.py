#!/usr/bin/env python3
"""Perf-regression gate over dcv-bench-v1 snapshots.

Compares two BENCH_<name>.json files (written by any bench's `--json OUT`)
and exits non-zero when a hot-path metric regressed beyond the threshold
(default 15%). A metric gates only if its `better` direction is "lower" or
"higher"; "none" metrics are informational and printed but never fail the
comparison. A gated baseline metric that the current snapshot no longer
carries fails the comparison too: a bench that renames or stops emitting a
gated metric would otherwise lose its gate silently. The gated statistic is p50, falling back to mean when the
snapshot carries a single sample (for count == 1 they coincide).

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]

Exit codes: 0 ok, 1 regression(s) or missing gated metric(s), 2 usage /
malformed snapshot.

Checked-in baselines and how to refresh them
--------------------------------------------
CI gates every run against the snapshots in bench/baselines/ (one
BENCH_<name>.json per bench). Wall-clock metrics (ms, devices/s) are
machine-dependent, so the CI gate uses a deliberately generous
--threshold: it catches order-of-magnitude regressions across machine
classes, while ratio metrics (e.g. bench_hotpath's *_speedup_ratio) are
machine-independent and meaningful at any threshold. To refresh after an
intentional performance change:

    cmake --build build --target bench_pipeline bench_hotpath
    ./build/bench/bench_pipeline --json bench/baselines/BENCH_pipeline.json
    ./build/bench/bench_hotpath  --json bench/baselines/BENCH_hotpath.json

then commit the updated JSON together with the change that moved the
numbers, and say in the commit message why the baseline moved. Never
refresh a baseline to silence a gate you cannot explain.
"""

import argparse
import json
import sys


def load_snapshot(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as error:
        sys.exit(f"bench_compare: cannot read {path}: {error}")
    if data.get("schema") != "dcv-bench-v1":
        sys.exit(f"bench_compare: {path}: not a dcv-bench-v1 snapshot "
                 f"(schema={data.get('schema')!r})")
    if not isinstance(data.get("metrics"), dict):
        sys.exit(f"bench_compare: {path}: missing metrics object")
    return data


def gate_value(metric):
    """The statistic the gate compares: p50, or mean for 1-sample metrics."""
    if metric.get("count", 0) > 1 and "p50" in metric:
        return metric["p50"]
    return metric.get("mean", metric.get("p50"))


def main():
    parser = argparse.ArgumentParser(
        description="diff two dcv-bench-v1 snapshots, fail on regressions")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression that fails the gate "
                             "(default 0.15 = 15%%)")
    args = parser.parse_args()

    base = load_snapshot(args.baseline)
    curr = load_snapshot(args.current)
    if base.get("bench") != curr.get("bench"):
        sys.exit(f"bench_compare: snapshot mismatch: baseline is "
                 f"{base.get('bench')!r}, current is {curr.get('bench')!r}")

    print(f"bench_compare: {base['bench']} "
          f"(threshold {100 * args.threshold:.0f}%)")
    print(f"  {'metric':<42} {'baseline':>12} {'current':>12} "
          f"{'delta':>8}  verdict")

    regressions = []
    missing = []
    compared = 0
    for name, base_metric in sorted(base["metrics"].items()):
        curr_metric = curr["metrics"].get(name)
        better = base_metric.get("better", "none")
        if curr_metric is None:
            gated = better in ("lower", "higher")
            if gated:
                missing.append(name)
            print(f"  {name:<42} {'':>12} {'':>12} {'':>8}  "
                  f"MISSING in current ({'FAIL' if gated else 'info'})")
            continue
        base_value = gate_value(base_metric)
        curr_value = gate_value(curr_metric)
        if base_value is None or curr_value is None:
            continue

        if better == "lower":
            delta = (curr_value - base_value) / base_value if base_value else 0.0
        elif better == "higher":
            delta = (base_value - curr_value) / base_value if base_value else 0.0
        else:
            print(f"  {name:<42} {base_value:>12.4g} {curr_value:>12.4g} "
                  f"{'':>8}  info")
            continue

        compared += 1
        regressed = delta > args.threshold
        if regressed:
            regressions.append((name, delta))
        # delta > 0 always means "worse", whatever the direction.
        print(f"  {name:<42} {base_value:>12.4g} {curr_value:>12.4g} "
              f"{100 * delta:>+7.1f}%  "
              f"{'REGRESSED' if regressed else 'ok'}")

    new_metrics = sorted(set(curr["metrics"]) - set(base["metrics"]))
    for name in new_metrics:
        print(f"  {name:<42} (new metric, not gated)")

    if missing:
        print(f"\nbench_compare: FAIL — {len(missing)} gated baseline "
              f"metrics missing in current: {', '.join(missing)}")
    if regressions:
        print(f"\nbench_compare: FAIL — {len(regressions)} of {compared} "
              f"gated metrics regressed > {100 * args.threshold:.0f}%:")
        for name, delta in regressions:
            print(f"  {name}: {100 * delta:+.1f}%")
    if missing or regressions:
        return 1
    print(f"\nbench_compare: ok — {compared} gated metrics within "
          f"{100 * args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
