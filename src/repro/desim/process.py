"""Generator-based simulation processes with interrupt support."""

from __future__ import annotations

from typing import Any, Generator, Optional

from .events import Signal


class Interrupt(Exception):
    """Thrown inside a process when another actor interrupts it.

    ``cause`` carries an arbitrary payload (e.g. a failure record).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Signal):
    """Drives a generator, resuming it whenever its awaited signal fires.

    A ``Process`` is itself a signal: it triggers when the generator
    returns (value = return value) or raises (failure).  Uncaught
    process exceptions propagate to whoever waits on the process; if
    nobody does, :meth:`check` re-raises on demand.
    """

    __slots__ = ("sim", "_gen", "_waiting_on")

    def __init__(self, sim, gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        Signal.__init__(self, name or getattr(gen, "__name__", "process"))
        self.sim = sim
        self._gen = gen
        self._waiting_on: Optional[Signal] = None
        sim._processes[self] = None
        # First resume happens as a scheduled event at the current time
        # so process creation order, not call-stack depth, decides order.
        sim.call_later(0.0, self._resume, None, None)

    @property
    def alive(self) -> bool:
        return self._state == Signal._PENDING

    # -- driving ----------------------------------------------------------
    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._state != Signal._PENDING:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            del self.sim._processes[self]
            self.succeed(stop.value)
            return
        except Exception as err:  # Interrupt included
            del self.sim._processes[self]
            # keep the generator's frames but not this one: it holds
            # the process and, through f_back, the whole caller stack,
            # so a stored failure would make every world cyclic
            self.fail(err.with_traceback(err.__traceback__.tb_next))
            return
        if not isinstance(target, Signal):
            del self.sim._processes[self]
            self.fail(
                TypeError(f"process {self.name!r} yielded non-waitable {target!r}")
            )
            return
        self._waiting_on = target
        target._subscribe(self._wake)

    def _detach(self) -> None:
        """Stop waiting: unsubscribe from the waited signal, so it no
        longer holds this process alive (or wakes it)."""
        waited, self._waiting_on = self._waiting_on, None
        if waited is not None and waited._callbacks:
            waited._callbacks.remove(self._wake)

    def _wake(self, waitable: Signal) -> None:
        if self._waiting_on is not waitable:
            return  # stale wake-up after an interrupt re-targeted us
        exc = waitable._exc
        if exc is not None:
            self._resume(None, exc)
        else:
            self._resume(waitable._value, None)

    # -- interruption -------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting an already-finished process is a no-op (the usual
        race when a failure arrives as a computation completes).
        """
        if self._state != Signal._PENDING:
            return
        self._detach()
        self.sim.call_later(0.0, self._resume, None, Interrupt(cause))

    def check(self) -> None:
        """Re-raise the process's exception, if it failed."""
        if self._exc is not None:
            raise self._exc
