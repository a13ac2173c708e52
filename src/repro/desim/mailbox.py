"""FIFO mailboxes: the message-passing primitive for P2PDC actors."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .events import Signal


class Mailbox:
    """Unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks (peers never drop control messages in the
    model; link contention is simulated in the network layer, not
    here).  ``get`` returns a :class:`Signal` that succeeds with the
    oldest item as soon as one is available.

    Items are delivered in strict FIFO order even when multiple
    getters are queued (getters are served FIFO too).
    """

    __slots__ = ("name", "_items", "_getters", "_get_name")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()
        # one shared name for every get-signal: a get happens per
        # delivered message, so a per-get f-string is hot-path cost
        self._get_name = f"mailbox-get:{name}"

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        # Hand the item straight to the oldest live getter, else queue it.
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:  # may have been abandoned/timed out
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Signal:
        sig = Signal(self._get_name)
        if self._items:
            sig.succeed(self._items.popleft())
        else:
            self._getters.append(sig)
        return sig

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; ``None`` when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def clear(self) -> int:
        """Drop all queued items (e.g. when a node crashes); returns count."""
        n = len(self._items)
        self._items.clear()
        return n
