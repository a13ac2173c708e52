"""Probe-scaled timing and the unit runner.

The host this benchmark was built on drifts by about 15% between
repeats of the same pure-Python loop, so a raw wall time says as much
about the host as about the program.  Every timed block is therefore
bracketed by a fixed pure-Python *probe* and reported as

    scaled = raw * P_REF_S / mean (or median) of the phase's probes

which reads as "the time on a host where the probe takes P_REF_S".
Raw times and probe times are reported beside the scaled ones as
ungated per-layer metrics.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from dataclasses import dataclass, field
from statistics import mean
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Probe time of the reference host; fixed, so scaled times compare
#: across runs, hosts and commits.
P_REF_S = 0.018
#: Probe size (a probe took about P_REF_S inside a run when these were
#: chosen, more than alone: the program's working set evicts the
#: probe's between blocks).
#: Changing any of these changes every scaled number.
PROBE_EVENTS = 4500
PROBE_NODES = 4000
PROBE_TABLE = 50000
#: A probe bracket covers at least this much unit time.
BLOCK_MIN_S = 0.1
#: Probes on each side of a set-up step.
SETUP_PROBES = 4
#: A tail percentile needs at least this many units beyond it, and is
#: at most the workload's ``tail_cap``.
TAIL_BEYOND = 10


class _Node:
    __slots__ = ("load", "peers", "t")

    def __init__(self) -> None:
        self.load = 0.0
        self.peers: List["_Node"] = []
        self.t = 0.0


class _ProbeState:
    """The probe's fixed working set: a few thousand linked objects
    and a large dict, built once per process."""

    def __init__(self) -> None:
        self.nodes = [_Node() for _ in range(PROBE_NODES)]
        for i, node in enumerate(self.nodes):
            node.peers = [self.nodes[(i * 7 + k * 131) % PROBE_NODES]
                          for k in range(4)]
        self.table = {i: [i, 0.0] for i in range(PROBE_TABLE)}


_STATE: List[_ProbeState] = []


def probe() -> float:
    """Seconds one fixed pure-Python event loop takes right now.

    The loop does what the program spends its time on: heap-ordered
    events, attribute updates on linked objects, dict lookups over a
    working set of a few MB and small allocations.  It shares no code
    with the program, so optimising the program never moves it.
    """
    if not _STATE:
        _STATE.append(_ProbeState())
    nodes, table = _STATE[0].nodes, _STATE[0].table
    # the collector's cost depends on the program's heap, not the host
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _probe_loop(nodes, table)
    finally:
        if enabled:
            gc.enable()


def _probe_loop(nodes: List[_Node], table: Dict[int, List[float]]) -> float:
    t0 = time.perf_counter()
    heap = [(0.0, 0, 0)]
    seq, x = 1, 12345
    for _ in range(PROBE_EVENTS):
        t, _seq, i = heapq.heappop(heap)
        node = nodes[i]
        node.t = t
        for peer in node.peers:
            peer.load += 0.5
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x % PROBE_TABLE][1] += 1.0
        for k in range(2):
            heapq.heappush(heap, (t + (x % 97) * 1e-3 + k, seq,
                                  (i + x + k) % PROBE_NODES))
            seq += 1
        if len(heap) > 512:
            heap = heap[:256]
            heapq.heapify(heap)
    return time.perf_counter() - t0


class ProbeClock:
    """Interleaves probes with the timed work and scales raw times.

    A probe runs immediately before and after every timed block
    (consecutive blocks share one).  The scale factor of a phase
    (set-up, or a pass over the units) is P_REF_S over the mean or the
    median of every probe the phase took, which follows the host's
    speed over it.  On the 2-vCPU VM this was built on, one probe varies by
    2x within a single run, so scaling each block by its own two probes
    added more noise than it removed.  Over eight sweep-recovery runs
    at eight seeds, whose raw unit time spread by 15%, the phase mean
    brought the spread to 4% (p50 3%, tail 3%).
    """

    def __init__(self, probe_fn: Callable[[], float] = probe) -> None:
        self._probe_fn = probe_fn
        self.probes: List[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            self.probes.append(self._probe_fn())

    def mark(self) -> int:
        """Where the next phase's probes start (see :meth:`factor`)."""
        return len(self.probes)

    def factor(self, since: int, stat: Callable[[List[float]], float] = mean,
               ) -> float:
        """Raw seconds → probe-scaled seconds, from the probes taken
        since ``since`` (one phase of the run).  ``stat`` summarises
        them: the mean for a total of unit time, which pays for a
        preempted unit as the mean pays for a preempted probe; the
        median for a unit quantile, which skips both."""
        return P_REF_S / stat(self.probes[since:])

    def time_call(self, fn: Callable[[], Any]) -> float:
        """Raw seconds ``fn()`` takes, as a block of its own.  A set-up
        step is timed a few times per run, not hundreds like units, so
        it is bracketed by several probes."""
        self.probe(SETUP_PROBES)
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
        self.probe(SETUP_PROBES)
        return raw


@dataclass
class UnitRecord:
    """One unit of work: what it was, how long it took, whether its
    output was right."""

    uid: int
    kind: str
    raw_s: float = 0.0
    scaled_s: float = 0.0
    ok: bool = True
    error: str = ""
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Unit:
    """A unit the runner times: ``call()`` returns the output that
    ``check(output)`` judges (a string is a failure reason, None
    passes).  ``kind`` labels the unit in traces; ``info`` is what
    the check learned about it, copied to its record."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    info: Dict[str, Any] = field(default_factory=dict)


def run_units(units: Iterable[Unit], clock: ProbeClock,
              on_start: Optional[Callable[[UnitRecord], None]] = None,
              on_stop: Optional[Callable[[UnitRecord, Any], None]] = None,
              ) -> List[UnitRecord]:
    """Time every unit; probe around blocks of at least BLOCK_MIN_S.

    Only the unit calls are timed.  Work the iterator does between
    units (restarts, input generation) and the output checks run
    outside the timed calls, so they never count as unit time.  A unit
    that raises, or whose check fails, is recorded as failed.
    ``on_start``/``on_stop`` run right before and after each call.
    Records hold raw times until :func:`scale` is applied.
    """
    records: List[UnitRecord] = []
    block_s = 0.0
    clock.probe()
    for uid, unit in enumerate(units):
        rec = UnitRecord(uid=uid, kind=unit.kind)
        if on_start is not None:
            on_start(rec)
        out = None
        t0 = time.perf_counter()
        try:
            out = unit.call()
        except Exception as exc:  # a failed unit is a datum, not a crash
            rec.raw_s = time.perf_counter() - t0
            rec.ok, rec.error = False, f"{type(exc).__name__}: {exc}"
        else:
            rec.raw_s = time.perf_counter() - t0
        if on_stop is not None:
            on_stop(rec, out)
        if rec.ok:
            reason = unit.check(out)
            if reason is not None:
                rec.ok, rec.error = False, reason
            rec.info = unit.info
        records.append(rec)
        block_s += rec.raw_s
        if block_s >= BLOCK_MIN_S:
            clock.probe()
            block_s = 0.0
    if block_s:
        clock.probe()
    return records


def scale(records: List[UnitRecord], factor: float) -> None:
    for rec in records:
        rec.scaled_s = rec.raw_s * factor


def tail_index(n: int, cap: float) -> Optional[int]:
    """Index (ascending order) of the highest percentile up to ``cap``
    with at least TAIL_BEYOND units beyond it, or None with too few
    units."""
    if n < 2 * TAIL_BEYOND:
        return None
    return min(n - TAIL_BEYOND, math.ceil(n * cap / 100)) - 1


def tail_percentile(n: int, cap: float) -> float:
    """The percentile :func:`tail_index` picks, for the output."""
    return 100.0 * (tail_index(n, cap) + 1) / n
