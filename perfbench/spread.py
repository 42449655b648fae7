#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload seesaw --seeds 1-10 --seconds 15

Each run is a separate process of ``perfbench/run.py`` started from the
current directory, one after another.  For every metric the script prints
the median of the runs and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of that median.
With ``--out`` the per-run results are also saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, script, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "runs": runs}, fh, indent=1)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:40s} median {med:14.6g} {runs[0]['metrics'][name]['unit']:6s} "
              f"spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
