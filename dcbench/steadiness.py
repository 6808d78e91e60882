#!/usr/bin/env python3
"""Steadiness report: two sets of benchmark runs of one build, compared.

    python3 dcbench/steadiness.py                      # every workload, 2 x 10 runs
    python3 dcbench/steadiness.py --workloads gate --runs 5

Every run uses another seed (1, 2, ... across both sets). For each workload
and end-to-end metric of BENCHMARK.json it prints, per set, the median, the
quartiles (as statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median; then the set-to-set change of the median, signed so
that positive means worse. It flags:

  SPREAD  a spread above the metric's bound,
  WIDE    a spread above a third of the bound (the target for a steady
          benchmark),
  WORSE   a second median worse than the first by more than the bound,
  WRONG   a run that reported correct=false or failed ops,
  STEAL   the two sets ran under host steal that differs by more than
          MAX_STEAL_CHANGE of the machine's CPU time; wall times follow
          steal, so the set-to-set changes of that workload are not a
          verdict on the code and the sets must be run again.

Exits 1 if any SPREAD, WORSE, WRONG or STEAL flag is raised. Raw results
go to .bench_out/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SETS = 2
MAX_STEAL_CHANGE = 0.05
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["inputs"] = json.loads(lines[-2].removeprefix("# inputs "))
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    raw = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                result = run_once(w, seed, args.seconds)
                raw[w][s].append({"seed": seed, **result})
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), file=sys.stderr, flush=True)

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)

    failed = False
    for w in workloads:
        print(f"\n== {w} ({args.runs} runs x {SETS} sets, "
              f"{args.seconds:g} s each)")
        wrong = [r["seed"] for runs in raw[w] for r in runs
                 if not r["correct"] or r["failed"]]
        if wrong:
            failed = True
            print(f"  WRONG: seeds {wrong} reported failures")
        steal = [statistics.median(r["inputs"]["host_steal_share"]
                                   for r in runs) for runs in raw[w]]
        steal_flag = ""
        if abs(steal[1] - steal[0]) > MAX_STEAL_CHANGE:
            failed = True
            steal_flag = "  STEAL"
        print("  host steal (median share of CPU time): "
              + "  |  ".join(f"{100 * x:.1f}%" for x in steal) + steal_flag)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            sets = [summarize([r["metrics"][name]["value"] for r in runs])
                    for runs in raw[w]]
            flags = []
            cells = []
            for st in sets:
                cells.append(f"{st['median']:.6g} [{st['q1']:.6g}, "
                             f"{st['q3']:.6g}] {100 * st['spread']:.1f}%")
                if st["spread"] > bound:
                    flags.append("SPREAD")
                elif st["spread"] > bound / 3:
                    flags.append("WIDE")
            change = ""
            if sets[0]["median"]:
                worse = sign * (sets[-1]["median"] / sets[0]["median"] - 1.0)
                change = f" change {100 * worse:+.1f}%"
                if worse > bound:
                    flags.append("WORSE")
            failed = failed or any(
                flag in ("SPREAD", "WORSE") for flag in flags)
            print(f"  {name:<22} bound {100 * bound:4.1f}%  "
                  + "  |  ".join(cells) + change
                  + (f"  {' '.join(sorted(set(flags)))}" if flags else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
