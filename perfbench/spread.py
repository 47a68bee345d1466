"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 perfbench/spread.py --workload duality --seeds 1-10 [--seconds 15]

Runs ``perfbench/run.py`` once per seed and prints, for each end-to-end
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ns = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = ns.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in seeds(ns.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             ns.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, check=True)
        res = json.loads(out.stdout.splitlines()[-1])
        if not res["correct"]:
            print(out.stdout)
            return 1
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < bounds[name] / 3 else (
            "within bound" if spread <= bounds[name] else "OVER BOUND")
        print(f"{ns.workload:<12} {name:<12} median={med:<10.5g} q1={q1:<10.5g}"
              f" q3={q3:<10.5g} spread={spread:.4f} bound={bounds[name]}"
              f" {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
