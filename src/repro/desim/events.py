"""One-shot events (signals) and combinators for the desim kernel.

The kernel follows the classic process-interaction style: a *process*
is a Python generator that yields :class:`Signal` objects.  A signal
is the kernel's one waitable — a one-shot event that is either
untriggered, succeeded with a value, or failed with an exception.
:class:`AnyOf` / :class:`AllOf` compose signals and are signals
themselves, as is :class:`~repro.desim.process.Process`: each settles
its own outcome slots through :meth:`Signal.succeed` /
:meth:`Signal.fail`, so a waiter reads every kind the same way.

Nothing in this module touches the simulation clock; scheduling lives
in :mod:`repro.desim.simulator`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional


class Signal:
    """A one-shot event.

    A signal starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` triggers it, wakes every subscriber, and freezes the
    outcome; triggering twice is a programming error and raises
    ``RuntimeError``.
    """

    __slots__ = ("name", "_callbacks", "_value", "_exc", "_state")

    _PENDING, _OK, _FAILED = 0, 1, 2

    def __init__(self, name: str = "") -> None:
        self.name = name
        # Lazy: most signals in a reference run get 0 or 1 subscribers,
        # so the list is only allocated on the first subscription.
        self._callbacks: Optional[List[Callable[[Signal], None]]] = None
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._state = Signal._PENDING

    # -- outcome ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != Signal._PENDING

    @property
    def ok(self) -> bool:
        return self._state == Signal._OK

    @property
    def value(self) -> Any:
        if self._state == Signal._PENDING:
            raise RuntimeError(f"signal {self.name!r} not triggered yet")
        if self._state == Signal._FAILED:
            raise self._exc  # type: ignore[misc]
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Signal":
        # settles inline, not through a helper shared with fail():
        # succeed fires once per delivered message, timeout and transfer
        if self._state != Signal._PENDING:
            raise RuntimeError(f"signal {self.name!r} already triggered")
        self._state = Signal._OK
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)
        return self

    def fail(self, exc: BaseException) -> "Signal":
        if not isinstance(exc, BaseException):
            raise TypeError("fail() expects an exception instance")
        if self._state != Signal._PENDING:
            raise RuntimeError(f"signal {self.name!r} already triggered")
        self._state = Signal._FAILED
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)
        return self

    def _subscribe(self, callback: Callable[["Signal"], None]) -> None:
        if self._state != Signal._PENDING:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = {0: "pending", 1: "ok", 2: "failed"}[self._state]
        return f"<{type(self).__name__} {self.name!r} {state}>"


class AnyOf(Signal):
    """Triggers when the *first* of its children triggers.

    ``value`` is ``(index, child_value)`` of the winning child, and
    ``winner`` its index.  A failing child propagates its exception.
    Children that trigger later are ignored (their values are still
    retrievable from the child signals themselves).

    A blocked halo receive builds one of these per wait, so it keeps
    construction light, and it keeps no reference to its children: a
    losing child still holds the subscription, and a child -> AnyOf ->
    child cycle would outlive the wait until the cyclic garbage
    collector ran.
    """

    __slots__ = ("winner",)

    def __init__(self, children: Iterable[Signal]) -> None:
        children = list(children)
        if not children:
            raise ValueError("AnyOf requires at least one child")
        Signal.__init__(self, "anyof")
        self.winner: Optional[int] = None
        for i, child in enumerate(children):
            child._subscribe(lambda c, i=i: self._on_child(i, c))
            if self._state != Signal._PENDING:
                break  # an already-triggered child settled us inline

    def _on_child(self, index: int, child: Signal) -> None:
        if self._state != Signal._PENDING:
            return
        self.winner = index
        if child._exc is not None:
            self.fail(child._exc)
        else:
            self.succeed((index, child._value))


class AllOf(Signal):
    """Triggers when *every* child has triggered.

    ``value`` is the list of child values in order.  The first failure
    fails the composite immediately.  Like :class:`AnyOf` it keeps no
    reference to its children, only their values, so a child that never
    triggers does not hold the two in a cycle.
    """

    __slots__ = ("_values", "_remaining")

    def __init__(self, children: Iterable[Signal]) -> None:
        children = list(children)
        Signal.__init__(self, "allof")
        self._values: List[Any] = [None] * len(children)
        self._remaining = len(children)
        if self._remaining == 0:
            self.succeed([])
        for i, child in enumerate(children):
            child._subscribe(lambda c, i=i: self._on_child(i, c))

    def _on_child(self, index: int, child: Signal) -> None:
        if self._state != Signal._PENDING:
            return
        if child._exc is not None:
            self.fail(child._exc)
            return
        self._values[index] = child._value
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._values)
