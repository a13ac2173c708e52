"""The reference-path fast core: reschedule, lazy compaction, pins.

The desim agenda rework (tuple entries, ``reschedule()`` handle reuse,
lazy-deletion compaction, ``call_later`` one-shots) must be invisible
to the simulation itself: events fire in the same order, the same
callbacks execute, and a churn-heavy scenario produces byte-identical
``sim_events``.  These tests pin that contract and the new mechanics.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.desim import Simulator
from repro.desim import simulator as simulator_mod
from repro.desim.simulator import _COMPACT_MIN


# ---------------------------------------------------------------------------
# reschedule()
# ---------------------------------------------------------------------------

def test_reschedule_fired_handle_reuses_object():
    sim = Simulator()
    fired = []
    call = sim.schedule(1.0, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    again = sim.reschedule(call, 2.0, "b")
    assert again is call  # the handle is reused, not replaced
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == 3.0


def test_reschedule_pending_handle_supersedes_old_entry():
    sim = Simulator()
    fired = []
    call = sim.schedule(1.0, fired.append, "early")
    sim.reschedule(call, 5.0, "late")
    sim.schedule(2.0, fired.append, "mid")
    sim.run()
    assert fired == ["mid", "late"]  # the 1.0s entry went stale in place
    assert sim.now == 5.0


def test_reschedule_cancelled_handle_revives_it():
    sim = Simulator()
    fired = []
    call = sim.schedule(1.0, fired.append, "x")
    call.cancel()
    sim.reschedule(call, 3.0, "y")
    sim.run()
    assert fired == ["y"]


def test_reschedule_consumes_one_seq_like_cancel_plus_schedule():
    """Interleaving with independent events must order exactly as the
    cancel+push idiom it replaces (one sequence number per re-arm)."""
    def run(re_arm):
        sim = Simulator()
        fired = []
        call = sim.schedule(1.0, fired.append, "chain")
        re_arm(sim, call, fired)
        sim.schedule(2.0, fired.append, "other")  # same instant as re-arm
        sim.run()
        return fired

    def with_reschedule(sim, call, fired):
        sim.reschedule(call, 2.0, "rearmed")

    def with_cancel_push(sim, call, fired):
        call.cancel()
        sim.schedule(2.0, fired.append, "rearmed")

    assert run(with_reschedule) == run(with_cancel_push)


def test_reschedule_rejects_bad_delay():
    sim = Simulator()
    call = sim.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.reschedule(call, -1.0)
    with pytest.raises(ValueError):
        sim.reschedule(call, float("nan"))


def test_call_later_orders_with_schedule():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "handled")
    sim.call_later(1.0, fired.append, "oneshot")
    sim.schedule(1.0, fired.append, "handled2")
    sim.run()
    assert fired == ["handled", "oneshot", "handled2"]
    assert sim.event_count == 3


def test_call_later_rejects_bad_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_later(-0.5, lambda: None)


# ---------------------------------------------------------------------------
# lazy-deletion compaction
# ---------------------------------------------------------------------------

def test_agenda_stays_bounded_under_cancel_heavy_workload():
    """The microbench contract: a ping chain that arms and cancels a
    far-future timeout per round (the classic watchdog pattern) must
    not grow the heap without bound — lazy deletion plus the
    compaction threshold keeps it within a small multiple of the live
    set."""
    sim = Simulator()
    peak = 0
    for round_ in range(5000):
        watchdog = sim.schedule(1e6 + round_, lambda: None)  # never fires
        sim.schedule(0.001, lambda: None)
        sim.run(until=sim.now + 0.01)
        watchdog.cancel()  # the chain re-arms next round
        peak = max(peak, len(sim._agenda))
    assert peak <= 4 * _COMPACT_MIN, (
        f"agenda peaked at {peak} entries for ~1 live timer; "
        f"compaction is not bounding cancelled entries"
    )
    assert sim._dead <= len(sim._agenda)


def test_compaction_preserves_live_ordering():
    sim = Simulator()
    fired = []
    # far-future live events, interleaved with a mass of cancellations
    for i in range(50):
        sim.schedule(100.0 + i, fired.append, i)
    doomed = [sim.schedule(500.0 + i, fired.append, "dead") for i in range(300)]
    for call in doomed:
        call.cancel()  # crosses the compaction threshold
    assert len(sim._agenda) < 350  # compaction ran
    sim.run()
    assert fired == list(range(50))


def test_reschedule_heavy_chain_keeps_heap_small():
    """One handle re-armed thousands of times leaves at most one live
    entry (plus bounded staleness) in the agenda."""
    sim = Simulator()
    ticks = []
    call = sim.schedule(1.0, ticks.append, 0)

    sim.run()
    for i in range(1, 2000):
        sim.reschedule(call, 1.0, i)
        sim.run()
    assert ticks == list(range(2000))
    assert len(sim._agenda) == 0


# ---------------------------------------------------------------------------
# differential: one agenda program, three ways of driving the loop
# ---------------------------------------------------------------------------

#: few distinct delays, so same-instant ties (seq order) are common
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5])

_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("call_later"), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("reschedule"), st.integers(0, 63), _DELAYS),
)


class _ModelCall:
    def __init__(self, model, fn):
        self.model, self.fn = model, fn

    def cancel(self):
        self.model.live.pop(self, None)


class _Model:
    """The agenda's meaning without its mechanics: one entry per live
    handle (re-arming replaces it, cancelling removes it), and the
    smallest ``(time, seq)`` fires next.  No heap, no dead entries."""

    def __init__(self):
        self.now, self.event_count, self.seq, self.live = 0.0, 0, 0, {}

    def _arm(self, key, delay, fn, args):
        self.seq += 1
        self.live[key] = (self.now + delay, self.seq, fn, args)

    def schedule(self, delay, fn, *args):
        call = _ModelCall(self, fn)
        self._arm(call, delay, fn, args)
        return call

    def call_later(self, delay, fn, *args):
        self._arm(object(), delay, fn, args)

    def reschedule(self, call, delay, *args):
        self._arm(call, delay, call.fn, args)

    def timeout(self, delay, value=None):
        self.call_later(delay, lambda _value: None, value)

    def run(self):
        while self.live:
            key = min(self.live, key=lambda k: self.live[k][:2])
            time, _seq, fn, args = self.live.pop(key)
            self.now = max(self.now, time)
            self.event_count += 1
            fn(*args)


def _play(program, n_setup, late, drive, make=Simulator):
    """Build the agenda from ``program`` and hand it to ``drive``.

    The first ``n_setup`` ops run at t=0; every later op runs from the
    callback of the next event to fire, so the program keeps mutating
    the agenda (cancelling and re-arming pending handles, which leaves
    superseded entries on top of the heap) while the loop drains it.
    A ``late`` timeout is armed first, identically in every mode.
    """
    sim = make()
    timeout = sim.timeout(late, "late")
    log = []
    handles = []
    cursor = iter(program[n_setup:])
    tags = iter(range(10**6))

    def apply(op):
        kind = op[0]
        if kind == "schedule":
            handles.append(sim.schedule(op[1], fire, next(tags)))
        elif kind == "call_later":
            sim.call_later(op[1], fire, next(tags))
        elif handles and kind == "cancel":
            handles[op[1] % len(handles)].cancel()
        elif handles:
            sim.reschedule(handles[op[1] % len(handles)], op[2], next(tags))

    def fire(tag):
        log.append((tag, sim.now))
        op = next(cursor, None)
        if op is not None:
            apply(op)

    for op in program[:n_setup]:
        apply(op)
    drive(sim, timeout, log)
    return log, sim.event_count, sim.now


@settings(max_examples=200, deadline=None)
@given(
    program=st.lists(_OPS, min_size=1, max_size=120),
    n_setup=st.integers(1, 40),
    late=st.sampled_from([0.0, 1.0, 3.0, 50.0]),
    cuts=st.lists(st.sampled_from([0.0, 0.25, 0.3, 1.0, 1.7, 2.0, 4.0, 9.0]),
                  max_size=5),
    compact_min=st.sampled_from([2, 4, _COMPACT_MIN]),
)
def test_run_until_cuts_and_run_until_triggered_match_one_run(
        program, n_setup, late, cuts, compact_min):
    """``run()`` fires what a heap-free model of the agenda fires, and
    ``run()``, ``run(until=...)`` cut into pieces, and
    ``run_until_triggered`` fire the same events in the same order,
    count the same events and stop at the same time (a cut past the
    last event keeps the clock at the cut).  A dead entry on
    top of the heap never counts as the next event: a cut stops with
    the clock exactly at the cut and exactly the events at or before
    it fired."""
    saved = simulator_mod._COMPACT_MIN
    simulator_mod._COMPACT_MIN = compact_min  # compact inside the loops
    try:
        whole = _play(program, n_setup, late, lambda sim, t, log: sim.run())
        assert _play(program, n_setup, late, lambda sim, t, log: sim.run(),
                     make=_Model) == whole

        def cut_run(sim, _timeout, log):
            for cut in sorted(cuts):
                sim.run(until=cut)
                assert sim.now == cut
                assert log == [e for e in whole[0] if e[1] <= cut]
            sim.run()

        def triggered_run(sim, timeout, log):
            assert sim.run_until_triggered(timeout) == "late"
            assert sim.now == late
            # the timeout holds the first seq: it beats its own instant
            assert log == [e for e in whole[0] if e[1] < late]
            sim.run()

        # a cut past the last event leaves the clock at the cut
        log, count, now = _play(program, n_setup, late, cut_run)
        assert (log, count) == whole[:2]
        assert now == max([whole[2], *cuts])
        assert _play(program, n_setup, late, triggered_run) == whole
    finally:
        simulator_mod._COMPACT_MIN = saved


def test_dead_top_entry_is_not_the_next_event_for_until():
    sim = Simulator()
    fired = []
    early = sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "live")
    sim.reschedule(early, 10.0, "moved")  # superseded entry stays on top
    sim.run(until=2.0)
    assert fired == [] and sim.now == 2.0 and sim.event_count == 0
    sim.run()
    assert fired == ["live", "moved"] and sim.now == 10.0


def test_dead_top_entry_is_not_the_next_event_for_limit():
    sim = Simulator()
    sim.schedule(1.0, lambda: None).cancel()  # dead entry within limit
    sim.schedule(5.0, lambda: None)  # first live event beyond it
    with pytest.raises(RuntimeError, match="time limit"):
        sim.run_until_triggered(sim.event("never"), limit=2.0)
    assert sim.event_count == 0 and sim.now == 0.0


def test_agenda_of_only_dead_entries_is_a_deadlock():
    sim = Simulator()
    call = sim.schedule(1.0, lambda: None)
    sim.reschedule(call, 2.0)
    call.cancel()  # two dead entries, nothing live
    with pytest.raises(RuntimeError, match="deadlock"):
        # the dead entries lie past the limit: still no live event
        sim.run_until_triggered(sim.event("never"), limit=0.5)
    assert sim.event_count == 0 and sim.now == 0.0
    assert sim.run() == 0.0


# ---------------------------------------------------------------------------
# the sim_events pins (byte-identical pre/post fast core)
# ---------------------------------------------------------------------------

#: Recorded at commit fe5b13e (PR 4, pre fast core): the fast core must
#: reproduce these exactly — same events, same order, same count.
SIM_EVENTS_PINS = {
    # churn-heavy recovery point: Poisson crashes + rejoins + re-dispatch
    ("recovery-grid", "churn_profile.rejoin_rate", 2.0): 14257.0,
    # election-heavy coordinator point: crashes + stand-in elections
    ("coordinator-grid", "churn_profile.coordinator_churn_rate", 1.5): 15976.0,
}


@pytest.mark.parametrize("grid,axis,value", sorted(SIM_EVENTS_PINS))
def test_churn_heavy_sim_events_pinned(grid, axis, value):
    from repro.scenarios import SCENARIOS
    from repro.scenarios.runner import run_scenario

    spec = SCENARIOS[grid].base.with_override(axis, value)
    result = run_scenario(spec)
    assert result.metrics["sim_events"] == SIM_EVENTS_PINS[(grid, axis, value)]
