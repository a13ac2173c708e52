"""The desim event loop: a monotonic clock plus a binary-heap agenda.

Time is a ``float`` in **seconds**.  Determinism: events scheduled for
the same instant fire in scheduling order (a monotone sequence number
breaks ties), so a seeded simulation replays identically.

Reference hot path (see DESIGN.md): the agenda stores plain
``(time, seq, call)`` tuples, so heap sift comparisons are C-level
tuple compares instead of ``__lt__`` calls that build tuples on every
comparison.  Cancellation is *lazy* — a cancelled or superseded entry
stays in the heap until it surfaces — with a dead-entry counter that
triggers a compacting rebuild when dead entries dominate, so
cancel-heavy workloads (fluid-flow rate changes, ping/timeout chains)
keep the heap bounded.  :meth:`Simulator.reschedule` re-arms a fired
or cancelled handle in place: the hot periodic chains reuse one
:class:`ScheduledCall` per chain instead of allocating one per fire.
:meth:`Simulator.run` and :meth:`Simulator.run_until_triggered` share
one loop, and only that loop and the compaction read the entry format.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Optional

from .events import Signal

#: Compaction kicks in once at least this many dead entries have
#: accumulated *and* they outnumber the live ones (amortized O(1)).
_COMPACT_MIN = 64


class ScheduledCall:
    """Handle for a scheduled callback; supports cancel + reschedule.

    ``seq`` is the handle's *live* sequence number: a heap entry whose
    recorded seq no longer matches was superseded by a reschedule and
    is skipped when it surfaces.  ``pending`` is True while exactly one
    live entry for this handle sits in the agenda.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "pending", "_sim")

    def __init__(self, sim: "Simulator", time: float, seq: int,
                 fn: Callable, args: tuple) -> None:
        self._sim = sim
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.pending = True

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self.pending:
                self._sim._note_dead()


class Simulator:
    """Discrete-event simulator.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> p = sim.process(hello())
    >>> sim.run()
    3.0
    >>> p.value
    3.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: (time, seq, call) tuples — seq is unique, so heap compares
        #: never reach the call object.
        self._agenda: list = []
        self._seq: int = 0
        self._dead: int = 0  # cancelled/superseded entries still heaped
        self._running = False
        self.event_count: int = 0  # executed callbacks, for microbenches
        #: unfinished processes, in creation order, so :meth:`close`
        #: can detach the ones still suspended when a run ends
        self._processes: dict = {}

    # -- scheduling -------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0.0:  # one branch rejects negatives AND NaN
            raise ValueError(f"negative or NaN delay {delay!r}")
        self._seq += 1
        call = ScheduledCall(self, self.now + delay, self._seq, fn, args)
        heapq.heappush(self._agenda, (call.time, self._seq, call))
        return call

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute simulated ``time`` (>= now)."""
        return self.schedule(time - self.now, fn, *args)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, so no
        cancellation — and no ``ScheduledCall`` allocation.

        The hot one-shot chains (timeouts, protocol-overhead hops,
        process resumes, batched reshares) never cancel, so they skip
        the handle entirely; the agenda entry's third slot is a plain
        ``(fn, args)`` tuple.  One sequence number is consumed, exactly
        like ``schedule``, so interleaving with handled events keeps
        the same deterministic order.
        """
        if not delay >= 0.0:
            raise ValueError(f"negative or NaN delay {delay!r}")
        self._seq += 1
        heapq.heappush(self._agenda, (self.now + delay, self._seq, (fn, args)))

    def reschedule(self, call: ScheduledCall, delay: float,
                   *args: Any) -> ScheduledCall:
        """Re-arm ``call`` to run ``call.fn(*args)`` after ``delay``.

        Equivalent to ``call.cancel()`` + a fresh :meth:`schedule` of
        the same function — one sequence number is consumed either way,
        so event ordering is byte-identical — but the handle object is
        reused: the hot ping/expiry chains allocate nothing per fire.
        Works on fired, cancelled, *and* still-pending handles (a
        pending handle's old entry goes stale in place).
        """
        if not delay >= 0.0:
            raise ValueError(f"negative or NaN delay {delay!r}")
        if call.pending and not call.cancelled:
            self._note_dead()  # the old live entry is now stale
        call.cancelled = False
        call.pending = True
        call.time = self.now + delay
        self._seq += 1
        call.seq = self._seq
        call.args = args
        heapq.heappush(self._agenda, (call.time, self._seq, call))
        return call

    # -- dead-entry accounting ---------------------------------------------
    def _note_dead(self) -> None:
        self._dead += 1
        if (self._dead >= _COMPACT_MIN
                and self._dead * 2 >= len(self._agenda)):
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries and re-heapify (bounds the agenda under
        cancel-heavy workloads; ordering of live entries is unchanged
        because it lives entirely in the (time, seq) keys)."""
        # in place: run loops hold a local alias to the agenda list
        # (tuple entries are call_later one-shots — always live)
        self._agenda[:] = [
            entry for entry in self._agenda
            if entry[2].__class__ is tuple
            or (entry[1] == entry[2].seq and not entry[2].cancelled)
        ]
        heapq.heapify(self._agenda)
        self._dead = 0

    # -- waitable factories ------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Signal:
        """A signal that succeeds ``delay`` seconds from now."""
        sig = Signal("timeout")
        self.call_later(delay, sig.succeed, value)
        return sig

    def event(self, name: str = "") -> Signal:
        """An untriggered signal for manual triggering."""
        return Signal(name)

    def process(self, gen: Generator, name: str = "") -> "Process":
        """Start a new process from a generator (begins at current time)."""
        from .process import Process  # local import to avoid cycle

        return Process(self, gen, name=name)

    # -- teardown ------------------------------------------------------------
    def close(self) -> None:
        """Tear the world down once its run has been read.

        Empties the agenda and detaches every still-suspended process
        from the signal it waits on, closing its generator.  Those are
        the links that make a finished world cyclic garbage (agenda ->
        handle -> simulator, waited signal -> process -> waited
        signal), so afterwards reference counting frees the world as
        soon as its owner drops it.  ``now`` and ``event_count`` stay
        readable; scheduling anything after a close is a programming
        error.
        """
        for _time, _seq, call in self._agenda:
            if call.__class__ is not tuple:
                call.pending = False
                call._sim = call.fn = None
                call.args = ()
        self._agenda.clear()
        self._dead = 0
        processes, self._processes = self._processes, {}
        for proc in processes:  # each stays untriggered
            proc._detach()
            proc._gen.close()

    # -- main loop ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the agenda empties or the clock passes ``until``.

        Returns the final simulated time.  When ``until`` is given the
        clock is advanced exactly to it even if no event fires there.
        """
        if self._running:
            raise RuntimeError("run() is not reentrant")
        self._running = True
        try:
            self._loop(math.inf if until is None else until, [])
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now

    def run_until_triggered(self, waitable: Signal, limit: float = math.inf) -> Any:
        """Run until ``waitable`` triggers; returns its value.

        Raises ``RuntimeError`` if the agenda drains (deadlock) or the
        ``limit`` is passed first.
        """
        if waitable.triggered:
            return waitable.value
        fired: list = []
        waitable._subscribe(fired.append)
        self._loop(limit, fired)
        if fired:
            return waitable.value
        if self._agenda:  # the loop stopped at a live entry past limit
            raise RuntimeError(f"time limit {limit:g}s exceeded")
        raise RuntimeError(
            f"deadlock: agenda empty at t={self.now:g} while waiting"
        )

    def _loop(self, until: float, fired: list) -> None:
        """The event loop: fire events in ``(time, seq)`` order until
        the agenda drains, the next live event lies past ``until``, or
        ``fired`` is no longer empty.

        One heap pop per event; dead (cancelled or superseded) entries
        are dropped as they surface, so they never count as the next
        event.  On return the agenda is empty, its top entry is live,
        or ``fired`` holds something.
        """
        pop = heapq.heappop
        agenda = self._agenda
        while agenda and not fired:
            time, seq, call = agenda[0]
            if call.__class__ is not tuple and (
                    seq != call.seq or call.cancelled):
                pop(agenda)
                self._dead -= 1
                if seq == call.seq:
                    call.pending = False  # its own (cancelled) entry left
                continue
            if time > until:
                return
            pop(agenda)
            if call.__class__ is tuple:  # call_later one-shot
                fn, args = call
            else:
                call.pending = False
                fn, args = call.fn, call.args
            if time > self.now:
                self.now = time
            self.event_count += 1
            fn(*args)
