"""One-shot events (signals) and combinators for the desim kernel.

The kernel follows the classic process-interaction style: a *process*
is a Python generator that yields :class:`Waitable` objects.  A
:class:`Signal` is the fundamental waitable — a one-shot event that is
either untriggered, succeeded with a value, or failed with an
exception.  :class:`AnyOf` / :class:`AllOf` compose signals.

Nothing in this module touches the simulation clock; scheduling lives
in :mod:`repro.desim.simulator`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional


class Waitable:
    """Base class for things a process may ``yield``.

    Subclasses implement ``_subscribe(callback)`` where ``callback`` is
    invoked exactly once with the waitable itself when it completes,
    and expose ``triggered``, ``ok``, ``value``.
    """

    def _subscribe(self, callback: Callable[["Waitable"], None]) -> None:
        raise NotImplementedError

    @property
    def triggered(self) -> bool:
        raise NotImplementedError


class Signal(Waitable):
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
        # so the list is only allocated on the second subscription.
        # None means "no subscribers yet" while pending (``_state``
        # owns the triggered/pending distinction).
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
        # _settle inlined: succeed fires once per delivered message,
        # timeout and transfer — the hottest call in a reference run
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
        self._settle(Signal._FAILED, None, exc)
        return self

    def _settle(self, state: int, value: Any, exc: Optional[BaseException]) -> None:
        if self._state != Signal._PENDING:
            raise RuntimeError(f"signal {self.name!r} already triggered")
        self._state = state
        self._value = value
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def _subscribe(self, callback: Callable[["Signal"], None]) -> None:
        if self._state != Signal._PENDING:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = {0: "pending", 1: "ok", 2: "failed"}[self._state]
        return f"<Signal {self.name!r} {state}>"


class AnyOf(Waitable):
    """Triggers when the *first* of its children triggers.

    ``value`` is ``(index, child_value)`` of the winning child.  A
    failing child propagates its exception.  Children that trigger
    later are ignored (their values are still retrievable from the
    child signals themselves).

    Holds its outcome directly (no inner signal, no per-child lambda
    for the subscription fan-in): a blocked halo receive builds one of
    these per wait, so construction weight is hot-path cost.  It keeps
    no reference to its children: a losing child still holds the
    subscription, and a child -> AnyOf -> child cycle would outlive
    the wait until the cyclic garbage collector ran.
    """

    __slots__ = ("_winner", "_value_", "_exc", "_state", "_callbacks")

    def __init__(self, children: Iterable[Waitable]) -> None:
        children = list(children)
        if not children:
            raise ValueError("AnyOf requires at least one child")
        self._winner: Optional[int] = None
        self._value_: Any = None
        self._exc: Optional[BaseException] = None
        self._state = Signal._PENDING
        self._callbacks: Optional[List[Callable[[Waitable], None]]] = None
        for i, child in enumerate(children):
            child._subscribe(lambda c, i=i: self._on_child(i, c))
            if self._state != Signal._PENDING:
                break  # an already-triggered child settled us inline

    def _on_child(self, index: int, child: Waitable) -> None:
        if self._state != Signal._PENDING:
            return
        self._winner = index
        exc = getattr(child, "exception", None)
        if exc is not None:
            self._state = Signal._FAILED
            self._exc = exc
        else:
            self._state = Signal._OK
            self._value_ = (index, getattr(child, "_value", None))
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    @property
    def winner(self) -> Optional[int]:
        return self._winner

    @property
    def _value(self) -> Any:
        # Uniform resume protocol: processes read `_value` off whatever
        # waitable woke them.
        return self._value_

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    @property
    def triggered(self) -> bool:
        return self._state != Signal._PENDING

    @property
    def value(self) -> Any:
        if self._state == Signal._PENDING:
            raise RuntimeError("AnyOf not triggered yet")
        if self._state == Signal._FAILED:
            raise self._exc  # type: ignore[misc]
        return self._value_

    def _subscribe(self, callback: Callable[[Waitable], None]) -> None:
        if self._state != Signal._PENDING:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AnyOf winner={self._winner}>"


class AllOf(Waitable):
    """Triggers when *every* child has triggered.

    ``value`` is the list of child values in order.  The first failure
    fails the composite immediately.
    """

    __slots__ = ("_children", "_done", "_remaining")

    def __init__(self, children: Iterable[Waitable]) -> None:
        self._children = list(children)
        self._done = Signal("allof")
        self._remaining = len(self._children)
        if self._remaining == 0:
            self._done.succeed([])
        for child in self._children:
            child._subscribe(self._on_child)

    def _on_child(self, child: Waitable) -> None:
        if self._done.triggered:
            return
        exc = getattr(child, "exception", None)
        if exc is not None:
            self._done.fail(exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._done.succeed([getattr(c, "_value", None) for c in self._children])

    @property
    def triggered(self) -> bool:
        return self._done.triggered

    @property
    def value(self) -> Any:
        return self._done.value

    @property
    def _value(self) -> Any:
        return self._done._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._done.exception

    def _subscribe(self, callback: Callable[[Waitable], None]) -> None:
        self._done._subscribe(lambda _s: callback(self))
