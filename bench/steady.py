"""Steadiness self-check: run each workload once per seed, each run in its own
process, and print every end-to-end metric's spread against its bound.

    python3 bench/steady.py --runs 10 [--workload cli-verify ...] [--compare FILE]

Run r uses seed r.  The spread is the distance between the first and third
quartiles of the runs' values (statistics.quantiles(values, n=4)) as a
share of their median.  Steal time is the share of CPU time the host took
from this machine during the runs, read from /proc/stat where it exists.
The raw values go to bench/out/steady-<workloads>.json; `--compare` reads
such a file from an earlier set and prints how far each median moved, as
a share of the earlier median (positive is worse).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def cpu_times():
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--compare", help="steady-*.json of an earlier set")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            earlier = json.load(handle)
    report = {}
    worst = worst_shift = 0.0
    for name in args.workload or names:
        values = {metric: [] for metric in bounds}
        shares = set()
        before, started = cpu_times(), time.monotonic()
        for seed in range(1, args.runs + 1):
            argv = [sys.executable, *spec["command"][1:], "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: outputs incorrect")
            shares.add((result["failed"] / result["attempted"]))
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        after = cpu_times()
        steal = None
        if before and after and after[1] > before[1]:
            steal = (after[0] - before[0]) / (after[1] - before[1])
        print(f"{name}: {args.runs} runs in {time.monotonic() - started:.0f} s, "
              f"failed share {sorted(shares)}, steal {'n/a' if steal is None else f'{steal:.1%}'}")
        if name in earlier and earlier[name]["failed_shares"] != sorted(shares):
            print(f"  failed share differs from the earlier set's {earlier[name]['failed_shares']}")
        for metric, bound in bounds.items():
            s = spread(values[metric])
            median = statistics.median(values[metric])
            worst = max(worst, s / bound)
            line = (f"  {metric:14s} median {median:12.6g}  spread {s:6.1%}  bound {bound:.0%}  "
                    f"{'ok' if s <= bound / 3 else 'WIDE' if s > bound else 'near'}")
            if name in earlier:
                before_median = statistics.median(earlier[name]["values"][metric])
                shift = (median - before_median) / before_median * (1 if lower[metric] else -1)
                worst_shift = max(worst_shift, shift / bound)
                line += f"  moved {shift:+6.1%} {'WORSE' if shift > bound else ''}"
            print(line)
        report[name] = {"values": values, "failed_shares": sorted(shares), "steal": steal}
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", f"steady-{'-'.join(report)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"worst spread / bound: {worst:.2f}")
    if earlier:
        print(f"worst worsening of a median / bound: {worst_shift:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
