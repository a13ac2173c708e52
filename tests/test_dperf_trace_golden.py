"""Byte-identity of priced, scaled traces against a golden fixture.

``tests/data/trace_golden.json`` holds, per recipe, the SHA-256 of
every rank's ``dump_trace`` text: calibration, block-benchmark
scale-up (:func:`~repro.dperf.scale_skeleton`) and pricing
(:func:`~repro.dperf.materialize`) end to end.  The recipes are the
eight ``predict-cold`` predictions of ``perfbench`` plus an obstacle
case whose target iteration count is not a multiple of its
convergence-check cycle, so the tiled template cycle ends part-way.
``tests/test_dperf_golden.py`` pins the skeletons this starts from.

Regenerate (only when a semantic change is intended)::

    PYTHONPATH=src python tests/test_dperf_trace_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.scenarios import workloads
from repro.simx.tracefile import dump_trace

FIXTURE = Path(__file__).parent / "data" / "trace_golden.json"

#: (app, ranks, n, nit, level)
RECIPES = (
    ("obstacle", 2, 256, 40, "O0"),
    ("heat", 16, 256, 40, "O2"),
    ("heat", 16, 512, 40, "O0"),
    ("heat", 32, 256, 20, "O3"),
    ("heat", 16, 256, 40, "O1"),
    ("heat", 32, 256, 20, "Os"),
    ("heat", 16, 512, 40, "O3"),
    ("heat", 32, 256, 20, "O1"),
    ("obstacle", 4, 128, 35, "O3"),  # 3.5 cycles of 10 iterations
)


def _recipe_id(recipe) -> str:
    return "{}@{}-n{}-nit{}-{}".format(*recipe)


def _digests(app: str, nprocs: int, n: int, nit: int, level: str):
    # straight through the predictor: the disk trace cache is not read
    out = workloads.predictor(app).traces_for(
        workloads.calibration_runs(app, nprocs), level,
        scale=workloads.scale_plan(app, nprocs, n, nit),
        app=app, extra_meta={"n": str(n), "nit": str(nit)},
    )
    return [hashlib.sha256(dump_trace(t).encode()).hexdigest() for t in out]


@pytest.mark.parametrize("recipe", RECIPES, ids=_recipe_id)
def test_matches_trace_golden(recipe):
    want = json.loads(FIXTURE.read_text())[_recipe_id(recipe)]
    got = _digests(*recipe)
    assert len(got) == len(want)
    for rank, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"rank {rank}: trace differs"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    golden = {_recipe_id(r): _digests(*r) for r in RECIPES}
    FIXTURE.write_text("{\n" + ",\n".join(  # one line per recipe
        f"{json.dumps(k)}: {json.dumps(v)}"
        for k, v in sorted(golden.items())) + "\n}\n")
    print(f"wrote {len(golden)} recipes to {FIXTURE}")
