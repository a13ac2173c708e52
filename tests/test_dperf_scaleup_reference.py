"""Scale-up and pricing against a naive reference, on random skeletons.

:func:`~repro.dperf.scale_skeleton` scales the prologue, the template
cycle and the epilogue once each and tiles the scaled template by
reference; :func:`~repro.dperf.materialize` prices each distinct entry
once.  The reference here does every step per tiled copy: tile, scale
every entry into a new object, price every gap, build a new event for
every comm record.  Both must give equal skeletons (census dict order
included: a census is summed in insertion order) and equal events.

The skeletons are synthetic: entries are drawn from a small pool, so
one object recurs inside and across iterations; gaps may follow gaps
across iteration boundaries with no comm in between; comm records may
carry a count expression (resolvable or not); censuses may be empty;
and ``UNATTRIBUTED`` work appears beside instrumented blocks.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dperf import (GccModel, REFERENCE_MACHINE, ScalePlan, materialize,
                         scale_skeleton, split_by_region)
from repro.dperf.blockbench import block_scale_factor, eval_affine
from repro.dperf.instrument import BlockTable
from repro.dperf.minic import cast as A
from repro.dperf.minic import parse, parse_expr
from repro.dperf.papi import (CATEGORIES, UNATTRIBUTED, Census, CommRecord,
                              ComputeGap, RegionMark)
from repro.simx import AllReduce, Barrier, Compute, Recv, Send

LOOPS = [n for n in A.walk(parse("""
void f(int n, int m) {
    for (int i = 0; i < n; i++) { }
    for (int j = 1; j < n - 1; j++) { }
    for (int k = 0; k < m; k += 2) { }
    for (int q = 0; q < 8; q++) { }
}
""")) if isinstance(n, A.For)]


def _table() -> BlockTable:
    table = BlockTable()
    for loops, vec in (([], False), (LOOPS[:1], True), (LOOPS[:2], False),
                       (LOOPS[1:], True), (LOOPS[2:], False)):
        table.register(dict(func="f", line=1, loop_depth=len(loops),
                            vectorizable=vec, label="b",
                            enclosing_loops=list(loops)))
    return table


TABLE = _table()
BLOCKS = sorted(TABLE.blocks)  # UNATTRIBUTED included
COUNT_EXPRS = [None, parse_expr("n + 2"), parse_expr("2 * n"),
               parse_expr("m"), parse_expr("n / 4")]
LEVELS = ("O0", "O1", "O2", "O3", "Os")

censuses = st.dictionaries(
    st.sampled_from(CATEGORIES + ("builtin:sqrt", "builtin:printf")),
    # small counts make distinct bursts that round alike (or not)
    st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]),
              st.floats(0.0, 10.0), st.floats(0.0, 1e4)),
    max_size=4,
).map(Census)

gaps = st.dictionaries(st.sampled_from(BLOCKS), censuses,
                       min_size=1, max_size=4).map(ComputeGap)

comms = st.builds(
    CommRecord,
    api=st.just("p2psap_x"),
    kind=st.sampled_from(["send", "isend", "recv", "barrier", "allreduce"]),
    peer=st.integers(0, 3),
    count=st.integers(0, 64),
    count_expr=st.sampled_from(COUNT_EXPRS),
    tag=st.sampled_from(["m", "halo"]),
)

entries = st.one_of(gaps, gaps, comms, st.builds(
    RegionMark, st.just("phase"), st.sampled_from(["begin", "end"])))


@st.composite
def cases(draw):
    """A calibration skeleton and a plan that can scale it."""
    pool = draw(st.lists(entries, min_size=1, max_size=6))
    pick = st.lists(st.sampled_from(pool), max_size=4)
    cycle_len = draw(st.integers(1, 3))
    warmup = draw(st.integers(0, 2))
    n_iters = (warmup + 1) * cycle_len + draw(st.integers(0, 2))
    skeleton = list(draw(pick))
    for _ in range(n_iters):
        skeleton.append(RegionMark("iter", "begin"))
        skeleton.extend(draw(pick))
        skeleton.append(RegionMark("iter", "end"))
    skeleton.extend(draw(pick))
    plan = ScalePlan(
        env_cal={"n": 16.0, "m": 6.0},
        env_target={"n": draw(st.sampled_from([16.0, 40.0, 256.0]))},
        nit_target=draw(st.integers(0, 12)),
        cycle_len=cycle_len, warmup_cycles=warmup,
    )
    return skeleton, plan, draw(st.sampled_from(LEVELS))


# -- the naive reference ------------------------------------------------------

def _naive_scale(entries, plan):
    split = split_by_region(entries, plan.region)
    start = plan.warmup_cycles * plan.cycle_len
    template = split.iterations[start:start + plan.cycle_len]
    tiled = list(split.prologue)
    for it in range(plan.nit_target):
        tiled.extend(template[it % plan.cycle_len])
    tiled.extend(split.epilogue)
    out = []
    for entry in tiled:
        if isinstance(entry, ComputeGap):
            gap = ComputeGap()
            for bid, census in entry.by_block.items():
                f = 1.0 if bid == UNATTRIBUTED else block_scale_factor(
                    TABLE.info(bid), plan.env_cal, plan.env_target)
                gap.by_block[bid] = census.scaled(f)
            out.append(gap)
        elif isinstance(entry, CommRecord):
            count = entry.count
            new = eval_affine(entry.count_expr, plan.env_target)
            if new is not None:
                count = int(round(new))
            out.append(CommRecord(entry.api, entry.kind, entry.peer, count,
                                  entry.count_expr, entry.elem_bytes,
                                  entry.tag))
        else:
            out.append(entry)
    return out


def _naive_price(entries, gcc):
    events, pending = [], 0.0
    for entry in entries:
        if isinstance(entry, ComputeGap):
            total = 0.0
            for bid, census in entry.by_block.items():
                total += REFERENCE_MACHINE.census_ns(
                    census, gcc.factors(TABLE.info(bid).vectorizable))
            pending += total
        elif isinstance(entry, CommRecord):
            if pending > 0.0:
                events.append(Compute(pending))
                pending = 0.0
            events.append({
                "send": lambda e: Send(e.peer, e.size_bytes, e.tag),
                "isend": lambda e: Send(e.peer, e.size_bytes, e.tag,
                                        blocking=False),
                "recv": lambda e: Recv(e.peer, e.tag),
                "barrier": lambda e: Barrier(),
                "allreduce": lambda e: AllReduce(e.size_bytes),
            }[entry.kind](entry))
    if pending > 0.0:
        events.append(Compute(pending))
    return events


def _ordered(entries):
    """Entries with every gap's census order spelled out."""
    return [[(bid, list(c.items())) for bid, c in e.by_block.items()]
            if isinstance(e, ComputeGap) else e for e in entries]


@given(cases())
@settings(max_examples=300, deadline=None)
def test_scale_then_tile_and_priced_once_match_reference(case):
    skeleton, plan, level = case
    gcc = GccModel(level)
    scaled = scale_skeleton(skeleton, TABLE, plan)
    want = _naive_scale(skeleton, plan)
    assert _ordered(scaled) == _ordered(want)
    assert materialize(scaled, TABLE, REFERENCE_MACHINE, gcc) == \
        _naive_price(want, gcc)


#: two bursts that truncate alike but round apart (3 ns and 2 ns)
_NEAR = [ComputeGap({0: Census(int_op=4.0)}),   # 8 cycles: 2.67 ns
         CommRecord("p2psap_x", "barrier"),
         ComputeGap({0: Census(int_op=3.5)})]   # 7 cycles: 2.33 ns


@given(cases())
@example((_NEAR + _NEAR[1:2], ScalePlan({}, {}, 0), "O0"))
@settings(max_examples=100, deadline=None)
def test_pricing_repeated_objects_matches_reference(case):
    # the unscaled skeleton repeats pool objects directly
    skeleton, _plan, level = case
    gcc = GccModel(level)
    assert materialize(skeleton, TABLE, REFERENCE_MACHINE, gcc) == \
        _naive_price(skeleton, gcc)
