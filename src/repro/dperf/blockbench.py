"""Block benchmarking: from execution skeletons to scaled traces.

dPerf's block-benchmarking technique (paper §III-D2 and [6]) measures
each basic block once on a small *calibration* run and scales the
measurements up to the full problem "while maintaining accuracy".  We
implement the scale-up in two orthogonal steps:

1. **Census scaling** — each block's operation counts are multiplied
   by the ratio of its enclosing compute-loop trip counts evaluated
   under target vs calibration parameters (``n``-scaling).  Message
   sizes are re-evaluated from their recorded count *expressions*.

2. **Iteration tiling** — the application marks its time loop with
   ``dperf_region_begin/end("iter")``; the steady-state cycle of
   iterations from the calibration run is tiled out to the target
   iteration count (``nit``-scaling), preserving the periodic pattern
   (e.g. a convergence allreduce every k-th iteration).

:func:`scale_skeleton` scales first and tiles second: the prologue,
the template cycle and the epilogue are scaled once each, and the
tiled list repeats the *same* scaled entries ``nit`` times over.
Scaling one entry depends on nothing but that entry, so this equals
scaling every tiled copy.

Finally :func:`materialize` prices the skeleton with the machine model
at a chosen GCC optimization level, producing `repro.simx` traces.  It
prices each distinct entry once and reuses its cost (and its frozen
trace event) wherever the entry repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..simx.traces import AllReduce, Barrier, Compute, Recv, Send, Trace, TraceEvent
from .costmodel import MachineModel
from .gcc import GccModel
from .instrument import BlockTable
from .minic import cast as A
from .minic.analysis import estimate_trip_count
from .papi import UNATTRIBUTED, Census, CommRecord, ComputeGap, RegionMark


class ScaleError(ValueError):
    pass


def eval_affine(expr: Optional[A.Expr], env: Mapping[str, float]) -> Optional[float]:
    """Evaluate an affine-ish expression under parameter bindings."""
    if expr is None:
        return None
    if isinstance(expr, A.IntLit):
        return float(expr.value)
    if isinstance(expr, A.FloatLit):
        return expr.value
    if isinstance(expr, A.Ident):
        return env.get(expr.name)
    if isinstance(expr, A.UnOp) and expr.op == "-":
        v = eval_affine(expr.operand, env)
        return -v if v is not None else None
    if isinstance(expr, A.Cast):
        return eval_affine(expr.expr, env)
    if isinstance(expr, A.BinOp):
        l = eval_affine(expr.left, env)
        r = eval_affine(expr.right, env)
        if l is None or r is None:
            return None
        if expr.op == "+":
            return l + r
        if expr.op == "-":
            return l - r
        if expr.op == "*":
            return l * r
        if expr.op == "/":
            return l / r if r else None
    return None


def block_scale_factor(
    info, env_cal: Mapping[str, float], env_target: Mapping[str, float]
) -> float:
    """Work multiplier for one block: product of enclosing compute-loop
    trip-count ratios.  Loops we cannot resolve contribute factor 1
    (their trip count is assumed instance-independent)."""
    factor = 1.0
    for loop in info.enclosing_loops:
        trips_cal = estimate_trip_count(loop, env_cal)
        trips_target = estimate_trip_count(loop, env_target)
        if trips_cal and trips_target and trips_cal > 0:
            factor *= trips_target / trips_cal
    return factor


def scale_entries(
    entries: Sequence[object],
    table: BlockTable,
    env_cal: Mapping[str, float],
    env_target: Mapping[str, float],
) -> List[object]:
    """Apply census scaling + message-size re-evaluation to a skeleton."""
    factors: Dict[int, float] = {}
    out: List[object] = []
    for entry in entries:
        if isinstance(entry, ComputeGap):
            gap = ComputeGap()
            for bid, census in entry.by_block.items():
                f = factors.get(bid)
                if f is None:
                    f = (
                        1.0
                        if bid == UNATTRIBUTED
                        else block_scale_factor(table.info(bid), env_cal, env_target)
                    )
                    factors[bid] = f
                gap.by_block[bid] = census.scaled(f)
            out.append(gap)
        elif isinstance(entry, CommRecord):
            count = entry.count
            if entry.count_expr is not None:
                new_count = eval_affine(entry.count_expr, env_target)
                if new_count is not None:
                    count = int(round(new_count))
            out.append(
                CommRecord(
                    api=entry.api, kind=entry.kind, peer=entry.peer,
                    count=count, count_expr=entry.count_expr,
                    elem_bytes=entry.elem_bytes, tag=entry.tag,
                )
            )
        else:
            out.append(entry)
    return out


@dataclass
class _Split:
    prologue: List[object]
    iterations: List[List[object]]
    epilogue: List[object]


def split_by_region(entries: Sequence[object], region: str) -> _Split:
    """Split a skeleton into prologue / marked iterations / epilogue."""
    prologue: List[object] = []
    iterations: List[List[object]] = []
    epilogue: List[object] = []
    current: Optional[List[object]] = None
    seen_any = False
    for entry in entries:
        if isinstance(entry, RegionMark) and entry.name == region:
            if entry.which == "begin":
                if current is not None:
                    raise ScaleError(f"nested region {region!r} markers")
                current = []
                seen_any = True
            else:
                if current is None:
                    raise ScaleError(f"region {region!r} end without begin")
                iterations.append(current)
                current = None
            continue
        if current is not None:
            current.append(entry)
        elif not seen_any:
            prologue.append(entry)
        else:
            epilogue.append(entry)
    if current is not None:
        raise ScaleError(f"region {region!r} begin without end")
    return _Split(prologue, iterations, epilogue)


def _template_split(
    entries: Sequence[object],
    region: str,
    nit_target: int,
    cycle_len: int,
    warmup_cycles: int,
) -> _Split:
    """The prologue, the template cycle and the epilogue of a skeleton
    (``iterations`` holds the template cycle only)."""
    if nit_target < 0:
        raise ScaleError("negative target iteration count")
    split = split_by_region(entries, region)
    n_cal = len(split.iterations)
    needed = (warmup_cycles + 1) * cycle_len
    if n_cal < needed:
        raise ScaleError(
            f"calibration run has {n_cal} iterations of region {region!r};"
            f" scale-up needs at least {needed}"
            f" ({warmup_cycles} warm-up cycles + 1 template cycle of"
            f" {cycle_len})"
        )
    start = warmup_cycles * cycle_len
    return _Split(split.prologue, split.iterations[start:start + cycle_len],
                  split.epilogue)


def _tile(split: _Split, nit_target: int) -> List[object]:
    """Prologue, ``nit_target`` iterations of the template cycle (by
    reference), epilogue."""
    template = split.iterations
    cycle_len = len(template)
    out: List[object] = list(split.prologue)
    for it in range(nit_target):
        out.extend(template[it % cycle_len])
    out.extend(split.epilogue)
    return out


def tile_iterations(
    entries: Sequence[object],
    region: str,
    nit_target: int,
    cycle_len: int = 1,
    warmup_cycles: int = 1,
) -> List[object]:
    """Tile the steady-state iteration cycle out to ``nit_target``.

    The calibration run must contain at least ``(warmup_cycles + 1) *
    cycle_len`` marked iterations; the cycle starting right after the
    warm-up (phase-aligned to iteration index 0 modulo ``cycle_len``)
    becomes the template.
    """
    split = _template_split(entries, region, nit_target, cycle_len,
                            warmup_cycles)
    return _tile(split, nit_target)


# --------------------------------------------------------------------------
# Materialization: skeleton → simx trace events
# --------------------------------------------------------------------------

def gap_ns(
    gap: ComputeGap,
    table: BlockTable,
    machine: MachineModel,
    gcc: GccModel,
) -> float:
    total = 0.0
    for bid, census in gap.by_block.items():
        info = table.info(bid)
        total += machine.census_ns(census, gcc.factors(info.vectorizable))
    return total


def materialize(
    entries: Sequence[object],
    table: BlockTable,
    machine: MachineModel,
    gcc: GccModel,
) -> List[TraceEvent]:
    """Price a skeleton at one optimization level → trace events.

    A scaled skeleton repeats a few distinct entries many times, so
    each distinct entry (by identity) is priced once: a gap's cost is
    computed once and re-added wherever it recurs, a comm record
    builds its event once, and equal compute bursts share one event.
    Trace events are frozen, so sharing them is safe, and ``pending_ns``
    sums the same floats in the same order as pricing every copy.
    The memos live for this call only; ``entries`` keeps every keyed
    object alive meanwhile, so no ``id`` is reused.
    """
    events: List[TraceEvent] = []
    gap_cost: Dict[int, float] = {}
    comm_event: Dict[int, TraceEvent] = {}
    computes: Dict[float, Compute] = {}
    pending_ns = 0.0

    def burst(ns: float) -> Compute:
        compute = computes.get(ns)
        if compute is None:
            compute = computes[ns] = Compute(ns)
        return compute

    for entry in entries:
        key = id(entry)
        ns = gap_cost.get(key)
        if ns is None and isinstance(entry, ComputeGap):
            ns = gap_cost[key] = gap_ns(entry, table, machine, gcc)
        if ns is not None:
            pending_ns += ns
            continue
        event = comm_event.get(key)
        if event is None:
            if isinstance(entry, RegionMark):
                continue
            if not isinstance(entry, CommRecord):  # pragma: no cover
                raise TypeError(f"unknown skeleton entry {entry!r}")
            event = comm_event[key] = _comm_event(entry)
        if pending_ns > 0.0:
            events.append(burst(pending_ns))
            pending_ns = 0.0
        events.append(event)
    if pending_ns > 0.0:
        events.append(burst(pending_ns))
    return events


def _comm_event(entry: CommRecord) -> TraceEvent:
    if entry.kind == "send":
        return Send(entry.peer, entry.size_bytes, entry.tag)
    if entry.kind == "isend":
        return Send(entry.peer, entry.size_bytes, entry.tag, blocking=False)
    if entry.kind == "recv":
        return Recv(entry.peer, entry.tag)
    if entry.kind == "barrier":
        return Barrier()
    if entry.kind == "allreduce":
        return AllReduce(entry.size_bytes)
    raise ValueError(f"unknown comm kind {entry.kind!r}")  # pragma: no cover


@dataclass(frozen=True)
class ScalePlan:
    """How to scale a calibration skeleton to the target instance."""

    env_cal: Mapping[str, float]
    env_target: Mapping[str, float]
    nit_target: int
    region: str = "iter"
    cycle_len: int = 1
    warmup_cycles: int = 1


def scale_skeleton(
    entries: Sequence[object], table: BlockTable, plan: ScalePlan
) -> List[object]:
    """Full scale-up: census/message scaling of the prologue, the
    template cycle and the epilogue, once each, then iteration tiling
    of the scaled template (by reference)."""
    split = _template_split(entries, plan.region, plan.nit_target,
                            plan.cycle_len, plan.warmup_cycles)
    parts = [split.prologue, *split.iterations, split.epilogue]
    # one scale_entries call, so each block's factor is worked out once;
    # it maps entries one to one, so the parts cut back out in order
    flat = iter(scale_entries([e for part in parts for e in part], table,
                              plan.env_cal, plan.env_target))
    scaled = [[next(flat) for _ in part] for part in parts]
    return _tile(_Split(scaled[0], scaled[1:-1], scaled[-1]), plan.nit_target)
