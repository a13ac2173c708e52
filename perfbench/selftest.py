#!/usr/bin/env python3
"""The benchmark's own checks, at a tiny run length.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches ``definition.py``; that probe
scaling is applied; that every workload prints every end-to-end metric
with its unit and passes its output checks; that a corrupted unit
output counts as a failed unit; that a traced run prints every
per-layer metric; and that a directory holding only BENCHMARK.json and
the benchmark exits non-zero without a result line.  Exits 0 when all
hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import harness  # noqa: E402
from cases import WORKLOADS  # noqa: E402
from definition import END_TO_END, PER_LAYER, UNITS, benchmark_json  # noqa: E402

#: --seconds for the runs below: enough units for every check, and
#: for serve-restart a full cycle.
TINY = {"sweep-recovery": 1.0, "predict-cold": 1.0, "serve-restart": 0.2}

FAILURES: List[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(out: subprocess.CompletedProcess) -> Dict:
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_definition() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    expect(on_disk == benchmark_json(),
           "BENCHMARK.json matches definition.py")


def check_probe_scaling() -> None:
    clock = harness.ProbeClock(probe_fn=lambda: 2 * harness.P_REF_S)
    units = [harness.Unit("u", lambda: sum(range(20000)), lambda _o: None)
             for _ in range(5)]
    recs = harness.run_units(units, clock)
    harness.scale(recs, clock.factor(0))
    expect(all(abs(r.scaled_s - r.raw_s / 2) < 1e-12 for r in recs)
           and len(clock.probes) >= 2,
           "a probe at twice P_REF halves every unit time")


def check_workload(name: str) -> None:
    seconds = str(TINY[name])
    out = run("--workload", name, "--seconds", seconds, "--trace", "0")
    res = result_of(out)
    expect(out.returncode == 0 and res["correct"] and res["failed"] == 0
           and res["attempted"] >= 1, f"{name}: untraced run passes its checks")
    want = {n for n, *_ in END_TO_END}
    if "unit_tail_ms omitted" in out.stdout:
        want.discard("unit_tail_ms")
    got = res["metrics"]
    expect(set(got) == want and all(got[n]["unit"] == UNITS[n] for n in got)
           and all(f"{n} = " in out.stdout for n in got),
           f"{name}: every end-to-end metric printed with its unit")

    bad = result_of(run("--workload", name, "--seconds", seconds,
                        "--corrupt", "0"))
    expect(bad["failed"] == 1 and not bad["correct"],
           f"{name}: a corrupted output is one failed unit")


def check_traced(name: str) -> None:
    out = run("--workload", name, "--seconds", str(TINY[name]),
              "--trace", "1")
    res = result_of(out)
    got = res["metrics"]
    expect(out.returncode == 0 and res["correct"]
           and set(got) == {n for n, _u in PER_LAYER}
           and all(got[n]["unit"] == UNITS[n] for n in got),
           f"{name}: traced run prints every per-layer metric")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench-tmp", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = run("--workload", "predict-cold", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(out.returncode != 0 and '"correct"' not in out.stdout,
           "a directory without the program exits non-zero, no result")


def main() -> int:
    check_definition()
    check_probe_scaling()
    check_bare_directory()
    for name in WORKLOADS:
        check_workload(name)
    for name in WORKLOADS:
        check_traced(name)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
