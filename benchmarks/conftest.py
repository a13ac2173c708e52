"""Shared helpers for the benchmark harness.

Every bench regenerates one paper table/figure.  The paper-style data
tables are printed to stdout *and* written under
``benchmarks/results/`` (ignored by git) so they survive pytest's
output capture.  Benches are gates: what they enforce is an assertion
in the bench source, and no bench writes a tracked file.  Timing
claims come from ``perfbench/``, whose records carry the commit, core
count, Python version and run-to-run spread.
"""

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")
