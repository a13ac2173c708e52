"""Emulated PAPI hardware counters and execution-skeleton recording.

The real dPerf reads nanosecond timings from hardware counters via
PAPI while the instrumented code runs.  Our interpreter instead counts
*operations per basic block* (the census); nanoseconds are derived
later by the cost model at each GCC optimization level.  This module
holds the recording structures:

* :class:`Census` — operation counts by category;
* :class:`ComputeGap` — census accumulated between two communication
  events, attributed per instrumented block;
* :class:`CommRecord` / :class:`RegionMark` — communication calls and
  iteration-region markers in program order;
* :class:`SkeletonRecorder` — the per-rank recorder the interpreter
  writes into (the "virtual PAPI" of one process).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

#: Operation categories charged by the interpreter.
CATEGORIES = (
    "scalar_load",   # read of a named scalar variable
    "scalar_store",  # write of a named scalar variable
    "mem_load",      # array element read
    "mem_store",     # array element write
    "addr",          # address arithmetic per index expression
    "fp_add",        # float add/sub
    "fp_mul",
    "fp_div",
    "int_op",        # integer ALU / logical
    "branch",        # conditional evaluated
    "call",          # user-function call overhead
)

#: Block id for work executed outside any instrumented block
#: (loop-control expressions, function prologues).
UNATTRIBUTED = -1


class Census(Dict[str, float]):
    """Operation counts by category (``builtin:<name>`` also allowed)."""

    def add(self, category: str, n: float = 1.0) -> None:
        self[category] = self.get(category, 0.0) + n

    def merge(self, other: "Census", factor: float = 1.0) -> None:
        for cat, cnt in other.items():
            self[cat] = self.get(cat, 0.0) + cnt * factor

    def scaled(self, factor: float) -> "Census":
        out = Census()
        for cat, cnt in self.items():
            out[cat] = cnt * factor
        return out

    @property
    def total_ops(self) -> float:
        return sum(self.values())


@dataclass
class ComputeGap:
    """Computation between comm events: census per instrumented block."""

    by_block: Dict[int, Census] = field(default_factory=dict)

    @property
    def total_ops(self) -> float:
        return sum(c.total_ops for c in self.by_block.values())


@dataclass
class CommRecord:
    """One communication call with its runtime parameters.

    ``count_expr`` keeps the *source expression* of the element count
    so the scale-up stage can re-evaluate it under target parameters
    (dPerf records "relevant parameters for communication calls").
    """

    api: str                       # p2psap_send / MPI_Recv / ...
    kind: str                      # send|isend|recv|barrier|allreduce
    peer: Optional[int] = None     # absolute rank, resolved at runtime
    count: int = 0                 # elements, as executed
    count_expr: Optional[object] = None  # minic AST of the count argument
    elem_bytes: int = 8
    tag: str = "msg"

    @property
    def size_bytes(self) -> int:
        return self.count * self.elem_bytes


@dataclass
class RegionMark:
    """``dperf_region_begin/end`` marker (iteration-structure hints)."""

    name: str
    which: str  # "begin" | "end"


SkeletonEntry = Union[ComputeGap, CommRecord, RegionMark]


class SkeletonRecorder:
    """Per-rank recorder: ops go into the open gap; comm closes it.

    An instrumented program calls :meth:`block_begin`/:meth:`block_end`
    once per block execution, so those look the open gap's census up
    in ``_by_block`` directly.  A census is created on first use, so
    every gap's ``by_block`` lists its blocks in first-use order.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.entries: List[SkeletonEntry] = []
        self._gap = ComputeGap()
        self._by_block = self._gap.by_block  # the open gap's censuses
        self._block_stack: List[int] = []
        self.block_exec_counts: Dict[int, int] = {}
        # hot path: the census dict ops are charged into right now
        # (invariant: active is census_for(current_block))
        self.active: Census = self.census_for(UNATTRIBUTED)

    # -- block attribution --------------------------------------------------
    @property
    def current_block(self) -> int:
        return self._block_stack[-1] if self._block_stack else UNATTRIBUTED

    def block_begin(self, block_id: int) -> None:
        self._block_stack.append(block_id)
        counts = self.block_exec_counts
        counts[block_id] = counts.get(block_id, 0) + 1
        census = self._by_block.get(block_id)
        if census is None:
            census = self._by_block[block_id] = Census()
        self.active = census

    def block_end(self, block_id: int) -> None:
        stack = self._block_stack
        if not stack or stack[-1] != block_id:
            raise RuntimeError(
                f"papi_block_end({block_id}) without matching begin "
                f"(stack {stack})"
            )
        stack.pop()
        top = stack[-1] if stack else UNATTRIBUTED
        census = self._by_block.get(top)
        if census is None:
            census = self._by_block[top] = Census()
        self.active = census

    def attr_push(self, block_id: int) -> None:
        """Temporarily attribute ops to ``block_id`` (loop control);
        does not count as a block execution."""
        self._block_stack.append(block_id)
        self.active = self.census_for(block_id)

    def attr_pop(self) -> None:
        stack = self._block_stack
        stack.pop()
        self.active = self.census_for(stack[-1] if stack else UNATTRIBUTED)

    def census_for(self, block_id: int) -> Census:
        """The open gap's census of ``block_id`` (created if new), the
        one ``attr_push(block_id)`` would make active."""
        census = self._by_block.get(block_id)
        if census is None:
            census = self._by_block[block_id] = Census()
        return census

    # -- op charging ----------------------------------------------------------
    def charge(self, category: str, n: float = 1.0) -> None:
        active = self.active
        active[category] = active.get(category, 0.0) + n

    # -- events ---------------------------------------------------------------
    def _flush_gap(self) -> None:
        if any(self._by_block.values()):  # some census is non-empty
            self.entries.append(self._gap)
        self._gap = ComputeGap()
        self._by_block = self._gap.by_block
        self.active = self.census_for(self.current_block)

    def comm(self, record: CommRecord) -> None:
        self._flush_gap()
        self.entries.append(record)

    def region(self, name: str, which: str) -> None:
        self._flush_gap()
        self.entries.append(RegionMark(name, which))

    def finish(self) -> List[SkeletonEntry]:
        self._flush_gap()
        if self._block_stack:
            raise RuntimeError(f"unclosed papi blocks: {self._block_stack}")
        return self.entries

    # -- aggregate view ---------------------------------------------------------
    def total_census(self) -> Census:
        total = Census()
        for entry in self.entries:
            if isinstance(entry, ComputeGap):
                for census in entry.by_block.values():
                    total.merge(census)
        for census in self._gap.by_block.values():
            total.merge(census)
        return total
