"""Unit tests for generator processes, interrupts, and mailboxes."""

import pytest

from repro.desim import AllOf, AnyOf, Interrupt, Mailbox, Signal, Simulator


def test_process_runs_and_returns():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "result"

    p = sim.process(body())
    sim.run()
    assert p.triggered and p.ok
    assert p.value == "result"
    assert sim.now == 3.0


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError, match="generator"):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_timeout_value_passed_into_process():
    sim = Simulator()
    seen = []

    def body():
        v = yield sim.timeout(1.0, value="hello")
        seen.append(v)

    sim.process(body())
    sim.run()
    assert seen == ["hello"]


def test_process_waits_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 7

    def parent():
        c = sim.process(child())
        v = yield c
        return v * 2

    p = sim.process(parent())
    sim.run()
    assert p.value == 14


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as e:
            return f"caught {e}"

    p = sim.process(parent())
    sim.run()
    assert p.value == "caught child died"


def test_process_failure_recorded_and_check_raises():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("oops")

    p = sim.process(bad())
    sim.run()
    assert p.triggered and not p.ok
    with pytest.raises(RuntimeError, match="oops"):
        p.check()


def test_yield_non_waitable_fails_process():
    sim = Simulator()

    def bad():
        yield 42  # type: ignore[misc]

    p = sim.process(bad())
    sim.run()
    assert not p.ok
    with pytest.raises(TypeError, match="non-waitable"):
        p.check()


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("slept full")
        except Interrupt as i:
            log.append(("interrupted", i.cause, sim.now))

    p = sim.process(sleeper())
    sim.schedule(5.0, p.interrupt, "failure-X")
    sim.run()
    assert log == [("interrupted", "failure-X", 5.0)]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return "ok"

    p = sim.process(quick())
    sim.schedule(10.0, p.interrupt, "late")
    sim.run()
    assert p.value == "ok"


def test_uncaught_interrupt_kills_process():
    sim = Simulator()

    def stubborn():
        yield sim.timeout(100.0)

    p = sim.process(stubborn())
    sim.schedule(1.0, p.interrupt, None)
    sim.run()
    assert p.triggered and not p.ok
    assert isinstance(p.exception, Interrupt)


def test_stale_wakeup_after_interrupt_ignored():
    """A process interrupted while waiting must not be resumed again
    when the original signal later fires."""
    sim = Simulator()
    resumed = []

    def body():
        try:
            yield sim.timeout(10.0)
            resumed.append("timeout")
        except Interrupt:
            yield sim.timeout(50.0)  # outlive the original timeout
            resumed.append("post-interrupt")

    p = sim.process(body())
    sim.schedule(1.0, p.interrupt)
    sim.run()
    assert resumed == ["post-interrupt"]
    assert p.ok


def test_alive_flag():
    sim = Simulator()

    def body():
        yield sim.timeout(5.0)

    p = sim.process(body())
    assert p.alive
    sim.run()
    assert not p.alive


def test_process_zero_duration():
    sim = Simulator()

    def instant():
        return "now"
        yield  # pragma: no cover

    p = sim.process(instant())
    sim.run()
    assert p.value == "now"
    assert sim.now == 0.0


class TestComposition:
    """Processes and combinators nest: values, ``winner`` and
    exceptions travel through every layer."""

    def test_allof_over_processes(self):
        sim = Simulator()

        def worker(delay, result):
            yield sim.timeout(delay)
            return result

        procs = [sim.process(worker(d, r))
                 for d, r in ((3.0, "a"), (1.0, "b"), (2.0, "c"))]
        all_ = AllOf(procs)
        assert sim.run_until_triggered(all_) == ["a", "b", "c"]
        assert sim.now == 3.0
        assert all_.triggered and all_.exception is None

    def test_anyof_over_failing_process(self):
        sim = Simulator()

        def doomed():
            yield sim.timeout(1.0)
            raise ValueError("worker died")

        def waiter():
            any_ = AnyOf([sim.timeout(5.0, "slow"), sim.process(doomed())])
            try:
                yield any_
            except ValueError as exc:
                return any_.winner, str(exc), sim.now

        w = sim.process(waiter())
        sim.run()
        assert w.value == (1, "worker died", 1.0)

    def test_failing_child_fails_the_anyof_itself(self):
        sim = Simulator()

        def doomed():
            yield sim.timeout(1.0)
            raise KeyError("k")

        any_ = AnyOf([sim.process(doomed()), sim.timeout(2.0)])
        sim.run()
        assert any_.triggered and any_.winner == 0
        assert isinstance(any_.exception, KeyError)
        with pytest.raises(KeyError):
            _ = any_.value

    def test_process_waits_on_allof_of_anyofs(self):
        sim = Simulator()
        box = Mailbox()

        def producer():
            yield sim.timeout(2.0)
            box.put("msg")

        def consumer():
            firsts = [AnyOf([sim.timeout(4.0, "t4"), sim.timeout(1.0, "t1")]),
                      AnyOf([box.get(), sim.timeout(9.0, "t9")])]
            values = yield AllOf(firsts)
            return values, [a.winner for a in firsts], sim.now

        sim.process(producer())
        c = sim.process(consumer())
        sim.run()
        assert c.value == ([(1, "t1"), (0, "msg")], [1, 0], 2.0)
        # one waitable: composites and processes are signals themselves
        assert all(isinstance(w, Signal) for w in
                   (c, AnyOf([sim.event()]), AllOf([]), box.get()))

    def test_allof_of_anyofs_fails_with_the_first_failure(self):
        sim = Simulator()
        bad = sim.event("bad")

        def consumer():
            yield AllOf([AnyOf([sim.timeout(1.0)]), AnyOf([bad])])

        c = sim.process(consumer())
        sim.schedule(0.5, bad.fail, RuntimeError("nested"))
        sim.run()
        assert isinstance(c.exception, RuntimeError)
        with pytest.raises(RuntimeError, match="nested"):
            c.check()


class TestMailbox:
    def test_put_then_get(self):
        sim = Simulator()
        box = Mailbox("m")
        box.put("x")
        got = []

        def getter():
            v = yield box.get()
            got.append(v)

        sim.process(getter())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        box = Mailbox("m")
        got = []

        def getter():
            v = yield box.get()
            got.append((v, sim.now))

        sim.process(getter())
        sim.schedule(3.0, box.put, "late")
        sim.run()
        assert got == [("late", 3.0)]

    def test_fifo_order_items(self):
        sim = Simulator()
        box = Mailbox()
        for i in range(5):
            box.put(i)
        got = []

        def getter():
            for _ in range(5):
                got.append((yield box.get()))

        sim.process(getter())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_fifo_order_getters(self):
        sim = Simulator()
        box = Mailbox()
        got = []

        def getter(tag):
            v = yield box.get()
            got.append((tag, v))

        sim.process(getter("first"))
        sim.process(getter("second"))
        sim.schedule(1.0, box.put, "a")
        sim.schedule(2.0, box.put, "b")
        sim.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_try_get(self):
        box = Mailbox()
        assert box.try_get() is None
        box.put(9)
        assert box.try_get() == 9
        assert box.try_get() is None

    def test_clear(self):
        box = Mailbox()
        box.put(1)
        box.put(2)
        assert box.clear() == 2
        assert len(box) == 0

    def test_abandoned_getter_skipped(self):
        """A getter whose signal was resolved elsewhere (e.g. timeout
        via AnyOf) must not swallow an item."""
        sim = Simulator()
        box = Mailbox()
        got = []

        def impatient():
            g = box.get()
            res = yield AnyOf([g, sim.timeout(1.0, "timed-out")])
            got.append(("impatient", res))
            if not g.triggered:
                g.succeed(None)  # abandon: mark resolved so put() skips us

        def patient():
            v = yield box.get()
            got.append(("patient", v))

        sim.process(impatient())
        sim.process(patient())
        sim.schedule(5.0, box.put, "item")
        sim.run()
        assert ("impatient", (1, "timed-out")) in got
        assert ("patient", "item") in got


def test_rng_streams_deterministic():
    from repro.desim import RngRegistry

    r1 = RngRegistry(42)
    r2 = RngRegistry(42)
    assert r1.stream("a").random() == r2.stream("a").random()
    # distinct names give distinct streams
    assert r1.stream("a").random() != r1.stream("b").random()
    # same stream returned on re-request
    assert r1.stream("a") is r1.stream("a")


def test_rng_streams_differ_across_seeds():
    from repro.desim import RngRegistry

    assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()
