"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/measure.py [--workload NAME ...] [--seeds 0-9]
                                 [--out FILE]

For every workload it runs ``run.py`` as a separate process for each seed,
one at a time, for the ``run_seconds`` that ``BENCHMARK.json`` sets.  It
prints each end-to-end metric's median, quartiles and spread: the quartile
distance as a share of the median, with the quartiles that
``statistics.quantiles(values, n=4)`` gives.  With ``--out`` it writes
the summary as JSON, which is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"nproc": os.cpu_count(), "runs": len(seeds), "seeds": seeds,
               "seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workload or names:
        values: dict = {}
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"points={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        stats = {name: summarise(v) for name, v in values.items()}
        summary["workloads"][workload] = stats
        for name, s in stats.items():
            print(f"  {workload:11s} {name:14s} median {s['median']:.6g}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f} (bound {bounds[name]})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
