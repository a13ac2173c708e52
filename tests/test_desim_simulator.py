"""Unit tests for the desim event loop and signals."""

import gc

import pytest

from repro.desim import AllOf, AnyOf, Signal, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_fires_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(float("nan"), lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0  # clock advanced exactly to the limit
    sim.run()
    assert fired == ["a", "b"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.schedule(2.0, fired.append, "y")
    sim.run()
    assert fired == ["y"]


def test_schedule_at_absolute_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    times = []
    sim.schedule_at(5.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [5.0]


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(1.0, inner)

    def inner():
        fired.append(("inner", sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == [("outer", 1.0), ("inner", 2.0)]


def test_run_not_reentrant():
    sim = Simulator()

    def evil():
        sim.run()

    sim.schedule(1.0, evil)
    with pytest.raises(RuntimeError, match="reentrant"):
        sim.run()


def test_run_until_triggered_deadlock_detected():
    sim = Simulator()
    sig = sim.event("never")
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run_until_triggered(sig)


def test_run_until_triggered_returns_value():
    sim = Simulator()
    sig = sim.timeout(2.5, value="done")
    assert sim.run_until_triggered(sig) == "done"
    assert sim.now == 2.5


def test_run_until_triggered_time_limit():
    sim = Simulator()
    sig = sim.timeout(100.0)
    with pytest.raises(RuntimeError, match="limit"):
        sim.run_until_triggered(sig, limit=1.0)


class TestSignal:
    def test_succeed_value(self):
        s = Signal("s")
        assert not s.triggered
        s.succeed(42)
        assert s.triggered and s.ok
        assert s.value == 42

    def test_fail_raises_on_value(self):
        s = Signal("s")
        s.fail(ValueError("boom"))
        assert s.triggered and not s.ok
        with pytest.raises(ValueError, match="boom"):
            _ = s.value

    def test_double_trigger_forbidden(self):
        s = Signal("s")
        s.succeed(1)
        with pytest.raises(RuntimeError, match="already triggered"):
            s.succeed(2)

    def test_fail_requires_exception(self):
        s = Signal("s")
        with pytest.raises(TypeError):
            s.fail("not an exception")  # type: ignore[arg-type]

    def test_value_before_trigger_raises(self):
        s = Signal("s")
        with pytest.raises(RuntimeError, match="not triggered"):
            _ = s.value

    def test_subscribe_after_trigger_fires_immediately(self):
        s = Signal("s")
        s.succeed("v")
        got = []
        s._subscribe(lambda sig: got.append(sig.value))
        assert got == ["v"]


class TestCombinators:
    def test_anyof_first_wins(self):
        sim = Simulator()
        a = sim.timeout(2.0, "a")
        b = sim.timeout(1.0, "b")
        any_ = AnyOf([a, b])
        sim.run()
        assert any_.triggered
        assert any_.value == (1, "b")
        assert any_.winner == 1

    def test_anyof_failure_propagates(self):
        sim = Simulator()
        a = sim.event("a")
        b = sim.timeout(5.0)
        any_ = AnyOf([a, b])
        a.fail(RuntimeError("dead"))
        with pytest.raises(RuntimeError, match="dead"):
            _ = any_.value

    def test_anyof_empty_rejected(self):
        with pytest.raises(ValueError):
            AnyOf([])

    def test_settled_anyof_leaves_no_cycle(self):
        # the loser still holds the AnyOf's subscription: the AnyOf
        # must not hold the loser, or the pair waits for the collector
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            win, lose = Signal("win"), Signal("lose")
            any_ = AnyOf([win, lose])
            win.succeed("w")
            assert any_.value == (0, "w")
            del any_, win, lose
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_allof_collects_all_values(self):
        sim = Simulator()
        sigs = [sim.timeout(float(i), i) for i in range(3)]
        all_ = AllOf(sigs)
        sim.run()
        assert all_.value == [0, 1, 2]

    def test_allof_empty_triggers_immediately(self):
        all_ = AllOf([])
        assert all_.triggered
        assert all_.value == []

    def test_allof_failure(self):
        sim = Simulator()
        a = sim.event("a")
        b = sim.timeout(1.0)
        all_ = AllOf([a, b])
        a.fail(KeyError("k"))
        with pytest.raises(KeyError):
            _ = all_.value


def test_event_count_increments():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.event_count == 5
