"""Byte-identity of the sweep-comparison renderers against golden files.

``tests/data/compare_golden.md`` and ``tests/data/compare_golden.html``
hold ``SweepComparison.to_markdown()`` and ``to_html()`` of one fixed
comparison that carries every optional column: percentile columns, the
completion columns, a row present on one side only, a regression, an
improvement, a row inside the ratio band, and a key that HTML must
escape.  Both renderers share the header and cell layout, so a change
to one that drifts from the other shows up here.

Regenerate (only when a change to the report layout is intended)::

    PYTHONPATH=src python tests/test_compare_golden.py --write
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.analysis.compare import ComparisonRow, SweepComparison

DATA = Path(__file__).parent / "data"
GOLDEN = {
    "markdown": DATA / "compare_golden.md",
    "html": DATA / "compare_golden.html",
}


def _comparison() -> SweepComparison:
    rows = [
        ComparisonRow(  # regression, with percentiles and completion
            key={"n_peers": "4", "tag": "<a&b>"}, n_a=3, n_b=3,
            mean_a=10.0, mean_b=12.5, completion_a=1.0,
            completion_b=2 / 3,
            pcts_a={"p50": 9.5, "p99": 11.0},
            pcts_b={"p50": 12.0, "p99": float("nan")},
        ),
        ComparisonRow(  # improvement
            key={"n_peers": "8", "tag": "x"}, n_a=2, n_b=2,
            mean_a=8.0, mean_b=6.0, completion_a=0.5, completion_b=1.0,
            pcts_a={"p50": 8.0, "p99": 9.0},
            pcts_b={"p50": 6.0, "p99": 6.5},
        ),
        ComparisonRow(  # inside the ratio band, no completion data
            key={"n_peers": "16", "tag": "x"}, n_a=1, n_b=1,
            mean_a=4.0, mean_b=4.1,
            pcts_a={"p50": 4.0, "p99": 4.0},
            pcts_b={"p50": 4.1, "p99": 4.1},
        ),
        ComparisonRow(  # unmatched: B only
            key={"n_peers": "32", "tag": "x"}, n_a=0, n_b=2,
            mean_b=3.0, completion_b=1.0,
            pcts_a={"p50": None, "p99": None},
            pcts_b={"p50": 3.0, "p99": 3.2},
        ),
    ]
    return SweepComparison(
        a="sweep-a", b="sweep-b", metric="makespan",
        shared_axes=["n_peers", "tag"], rows=rows, percentiles=(50.0, 99.0),
    )


def _render(kind: str) -> str:
    cmp = _comparison()
    return cmp.to_markdown() if kind == "markdown" else cmp.to_html()


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_matches_compare_golden(kind):
    assert _render(kind) == GOLDEN[kind].read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    for kind, path in GOLDEN.items():
        path.write_text(_render(kind), encoding="utf-8")
        print(f"wrote {path}")
