"""Byte-identity of calibration runs against a golden fixture.

``tests/data/interp_golden.json`` was written by the tree-walking
mini-C interpreter this package used to ship.  Every case here runs
the current backend and compares, per rank, the skeleton entries
(each gap's per-block census *in dict order*, since
``MachineModel.census_ns`` sums a census in insertion order), the
block execution counts, the total census, the printed output and the
return value.

Regenerate (only when a semantic change is intended)::

    PYTHONPATH=src python tests/test_dperf_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.dperf import (CommRecord, ComputeGap, RegionMark, instrument,
                         run_distributed, run_single)
from repro.dperf.minic import parse
from repro.dperf.minic.fortran import parse_fortran
from repro.dperf.minic.unparser import expr_text
from repro.scenarios.workloads import CAL_N, adapter

FIXTURE = Path(__file__).parent / "data" / "interp_golden.json"

RELAX = """
function relax(n, nit) result(res)
integer :: n, nit, rank, size, it, i
real*8 :: u(n + 2), res
rank = p2psap_rank()
size = p2psap_size()
do i = 1, n + 2
   u(i) = dble(rank + i)
end do
res = 0.0d0
do it = 1, nit
   call dperf_region_begin('iter')
   if (rank .gt. 0) then
      call p2psap_isend(rank - 1, u, 1)
   end if
   if (rank .lt. size - 1) then
      call p2psap_recv(rank + 1, u, 1)
   end if
   do i = 2, n + 1
      u(i) = 0.5d0 * (u(i - 1) + u(i + 1))
   end do
   call dperf_region_end('iter')
end do
res = u(2)
end
"""

#: Small programs over the corners of the census: mixed int/float
#: operands, runtime-typed ``?:``, calls inside loop conditions and
#: bodies, globals, compound assignment on elements, short-circuits,
#: ``floor`` (an int result), row views and ``printf``.
CORNERS = {
    "mixed": """
    double main(int n) {
        double s = 0.0; int k = 0; long big = 3;
        for (int i = 0; i < n; i++) {
            s += i * 0.5 + k / 2; k = k + i % 3; big *= 2;
            s = s - (i > 2 ? 1 : 0.5);
            if (i % 2 == 0 && s > 1.0 || k == 3) { s = -s; } else s += 1;
        }
        return s + floor(s) + ceil(2.5) + abs(-k) + big;
    }
    """,
    "calls": """
    int g = 4;
    double h = 1.5;
    int sq(int x) { return x * x; }
    double half(double x) { if (x > 2.0) return x / 2.0; return x; }
    void bump(double u[], int n) { for (int i = 0; i < n; i++) u[i] += h; }
    double main(int n) {
        double u[8]; double m[3][4]; int a[5];
        for (int i = 0; i < sq(2) + g; i++) { u[i] = half((double)i); }
        bump(u, 8); bump(m[1], 4);
        for (int i = 0; i < 5; i++) { a[i] = i; a[i] *= 3; a[i]++; --a[i]; }
        bump(a, 5);
        int j = 0;
        while (j < 10) { j++; if (j == 3) continue; if (j > 6) break; g += j; }
        printf("g=%d u=%.3f m=%g a=%d\\n", g, u[7], m[1][2], a[4]);
        return u[7] + m[1][3] + a[4] + g + !j + ~j + -j;
    }
    """,
}

CASES = (
    [("obstacle", p, g) for p in (1, 2, 4) for g in ("block", "statement")]
    + [("heat", p, g) for p in (2, 16, 32) for g in ("block", "statement")]
    + [("relax", 3, g) for g in ("block", "statement")]
    + [(name, 1, g) for name in CORNERS for g in ("block", "statement")]
)


def _case_id(case) -> str:
    return "{}@{}-{}".format(*case)


def _run(app: str, nprocs: int, granularity: str):
    if app == "relax":
        program, entry, args = parse_fortran(RELAX), "relax", [16, 4]
    elif app in CORNERS:
        program, entry, args = parse(CORNERS[app]), "main", [6]
    else:
        a = adapter(app)
        program = parse(a.source())
        entry, args = a.entry, list(a.entry_args(CAL_N, a.cal_nit))
    instrumented, table = instrument(program, granularity)
    if nprocs == 1:
        return [run_single(instrumented, entry, args, table)]
    return run_distributed(instrumented, entry, nprocs, args, table)


def _entry(e):
    if isinstance(e, ComputeGap):
        return ["gap", [[bid, list(c.items())] for bid, c in e.by_block.items()]]
    if isinstance(e, CommRecord):
        count = None if e.count_expr is None else expr_text(e.count_expr)
        return ["comm", e.api, e.kind, e.peer, e.count, count,
                e.elem_bytes, e.tag]
    assert isinstance(e, RegionMark)
    return ["region", e.name, e.which]


def _digest(run) -> dict:
    entries = json.dumps([_entry(e) for e in run.entries],
                         separators=(",", ":"))
    return {
        "value": repr(run.value),
        "output": list(run.output),
        "block_exec_counts": [[b, n] for b, n in run.block_exec_counts.items()],
        "total_census": [[c, n] for c, n in run.census.items()],
        "n_entries": len(run.entries),
        "entries_sha256": hashlib.sha256(entries.encode()).hexdigest(),
    }


def _golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_matches_golden_fixture(case):
    want = _golden()[_case_id(case)]
    got = [_digest(run) for run in _run(*case)]
    assert len(got) == len(want)
    for rank, (g, w) in enumerate(zip(got, want)):
        for key in w:  # per component, so a failure names what differs
            assert g[key] == w[key], f"rank {rank}: {key} differs"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    golden = {_case_id(c): [_digest(r) for r in _run(*c)] for c in CASES}
    FIXTURE.write_text("{\n" + ",\n".join(  # one line per case
        f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
        for k, v in sorted(golden.items())) + "\n}\n")
    print(f"wrote {len(golden)} cases to {FIXTURE}")
