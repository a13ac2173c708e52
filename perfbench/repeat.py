#!/usr/bin/env python3
"""Run workloads several times, one seed each, and report the spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] \\
        [--seconds 20] [--first-seed 1] [--trace 0]

Each run is a fresh ``run.py`` process, one after another.  For every
metric the output gives the median, the quartiles and the spread
``(q3 - q1) / median`` (``statistics.quantiles(values, n=4)``), which
is the run-to-run spread each end-to-end bound is judged against.  The
record, with provenance, is printed and written under
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median, quantiles
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from cases import WORKLOADS  # noqa: E402
from definition import END_TO_END, RUN_SECONDS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr}")
    record = next((json.loads(line[len("# record "):]) for line in lines
                   if line.startswith("# record ")), {})
    return {"result": json.loads(lines[-1]), "record": record}


def summarize(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3,
            "values": values,
            "spread": (q3 - q1) / median(values) if median(values) else 0.0}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {name: bound for name, _u, _b, bound in END_TO_END}
    report = {"python": platform.python_version(),
              "cpu_count": os.cpu_count(), "runs": args.runs,
              "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        seeds = [args.first_seed + i for i in range(args.runs)]
        runs = [one_run(name, seed, args.seconds, args.trace)
                for seed in seeds]
        metrics: Dict[str, List[float]] = {}
        for run in runs:
            for key, m in run["result"]["metrics"].items():
                metrics.setdefault(key, []).append(m["value"])
        stats = {k: summarize(v) for k, v in metrics.items()
                 if len(v) >= 2}
        report["workloads"][name] = {
            "seeds": seeds,
            "records": [r["record"] for r in runs],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": stats,
        }
        print(f"== {name}: {args.runs} runs, failed units "
              f"{report['workloads'][name]['failed']}", flush=True)
        for key, s in stats.items():
            bound = bounds.get(key)
            flag = ""
            if bound is not None:
                flag = (f"  bound {bound}  "
                        + ("ok" if s["spread"] < bound / 3 else
                           "WIDE" if s["spread"] <= bound else "OVER"))
            print(f"  {key:34s} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f}{flag}", flush=True)
        print("  probe_ms per run: " + " ".join(
            f"{r['record'].get('probe_ms', 0):.2f}" for r in runs))
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench-out",
                        f"repeat-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"# record written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
