"""Base actor for P2PDC overlay nodes.

Every node owns a mailbox and a main-loop process that dispatches
messages to ``handle_<MessageType>`` methods.  Control-plane sends
travel over the fluid network (so the control plane has real latency
and bandwidth cost); delivery to a crashed node is silently dropped —
exactly the failure surface the paper's timeout protocols deal with.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..desim import Interrupt, Mailbox, Signal
from ..net import Host
from .ip import IPv4
from .messages import Message, MsgAck, NodeRef, Reliable, TimerFire


class NodeActor:
    """An overlay node: mailbox, timers, request/reply bookkeeping."""
    role = "node"

    def __init__(self, overlay, name: str, ip: IPv4, host: Host) -> None:
        self.overlay = overlay
        self.sim = overlay.sim
        self.net = overlay.net
        self.name = name
        self.ip = ip
        self.host = host
        self.mailbox = Mailbox(name)
        self.alive = True
        self.process = None
        self._req_counter = 0
        self._pending: Dict[int, Signal] = {}
        #: Incarnation counter: timers armed before a crash must not
        #: fire into a revived incarnation (bumped by crash()).
        self._timer_epoch = 0
        #: identity is immutable, so the ref every message carries is
        #: built once instead of per send
        self._ref = NodeRef(name, ip, host.name, self.role)
        #: per-message-type bound handler cache (None = unhandled)
        self._handlers: Dict[type, Any] = {}
        #: reusable ScheduledCall per timer tag — a chain that re-arms
        #: from its own firing reuses one handle for its whole life
        self._timer_calls: Dict[str, Any] = {}
        #: reliable-delivery state (only touched when the overlay's
        #: reliability hardening is on): per-node monotone envelope
        #: ids, unacked sends awaiting retry, and the receiver-side
        #: dedup set of (sender name, msg_id) pairs already dispatched
        self._rel_counter = 0
        self._rel_pending: Dict[int, Any] = {}
        self._rel_seen: set = set()
        overlay.register(self)

    # -- identity ------------------------------------------------------------
    @property
    def ref(self) -> NodeRef:
        return self._ref

    def __repr__(self) -> str:
        status = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.name}@{self.ip} {status}>"

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        if self.process is None:
            self.process = self.sim.process(self._main_loop(), name=self.name)
            self.on_start()

    def on_start(self) -> None:
        """Hook for subclasses (timers, bootstrap)."""

    def crash(self) -> None:
        """Fail-stop: the node stops handling and receiving messages."""
        if not self.alive:
            return
        self.alive = False
        self._timer_epoch += 1
        self.mailbox.clear()
        # unacked reliable sends die with the incarnation (the epoch
        # guard already silences their retry timers); the dedup set
        # survives, so a revived node still drops late duplicates
        self._rel_pending.clear()
        if self.process is not None:
            self.process.interrupt("crash")
        self.overlay.stats.count("crashes")
        history = self.overlay.failure_history
        history[self.name] = history.get(self.name, 0) + 1

    def revive(self) -> None:
        """Restart after an outage (used for the server come-back)."""
        if self.alive:
            return
        self.alive = True
        self.process = self.sim.process(self._main_loop(), name=self.name)
        self.on_revive()

    def on_revive(self) -> None:
        """Hook for subclasses."""

    def close(self) -> None:
        """Drop the per-node state that points back at this node: the
        bound-handler cache and the timer handles, whose callbacks are
        bound methods (part of :meth:`Overlay.close`)."""
        self._handlers = {}
        self._timer_calls = {}

    # -- main loop ------------------------------------------------------------
    def _main_loop(self):
        try:
            while True:
                msg = yield self.mailbox.get()
                if not self.alive:
                    return
                self._dispatch(msg)
        except Interrupt:
            return

    def _dispatch(self, msg: Message) -> None:
        cls = type(msg)
        if cls is TimerFire:
            handler = getattr(self, f"timer_{msg.tag}", None)
            if handler is None:
                raise RuntimeError(f"{self.name}: no timer handler {msg.tag!r}")
            handler(msg.payload)
            return
        if cls is Reliable:
            # every copy is re-acked (the ack itself may have been
            # lost), the inner message dispatched exactly once
            self.send(msg.sender, MsgAck(self._ref, ack_of=msg.msg_id))
            key = (msg.sender.name, msg.msg_id)
            if key in self._rel_seen:
                self.overlay.stats.count("duplicate_deliveries")
                return
            self._rel_seen.add(key)
            self._dispatch(msg.inner)
            return
        if cls is MsgAck:
            self._rel_pending.pop(msg.ack_of, None)
            return
        try:
            handler = self._handlers[cls]
        except KeyError:
            handler = getattr(self, f"handle_{cls.__name__}", None)
            self._handlers[cls] = handler
        if handler is None:
            self.overlay.stats.count("unhandled_messages")
            return
        handler(msg)

    # -- messaging ------------------------------------------------------------
    def send(self, dst: NodeRef, msg: Message) -> None:
        """Asynchronous control-plane send over the network."""
        self.overlay.transport(self, dst, msg)

    def send_critical(self, dst: NodeRef, msg: Message) -> None:
        """A send the protocol cannot afford to lose.

        With the overlay's ``reliability`` hardening off (the
        default) this is exactly :meth:`send` — no envelope, no
        timers, bit-identical dynamics.  With it on, the message
        travels in a :class:`Reliable` envelope with a per-node
        monotone id: the receiver acks every copy and dispatches
        exactly once, while this side retries under bounded
        exponential backoff until acked or out of budget.  One
        envelope per hop — a relay re-wraps for its own leg.
        """
        if not self.overlay.config.reliability:
            self.send(dst, msg)
            return
        self._rel_counter += 1
        msg_id = self._rel_counter
        envelope = Reliable(self._ref, inner=msg, msg_id=msg_id)
        self._rel_pending[msg_id] = (dst, envelope)
        self.send(dst, envelope)
        self._arm_rel_retry(msg_id, 0)

    def _arm_rel_retry(self, msg_id: int, attempt: int) -> None:
        # direct call_later with the incarnation guard: set_timer's
        # per-tag handle reuse would collide for concurrent retries
        cfg = self.overlay.config
        delay = min(cfg.ack_timeout * 2.0 ** attempt, cfg.retry_backoff_cap)
        self.sim.call_later(delay, self._rel_retry, self._timer_epoch,
                            msg_id, attempt)

    def _rel_retry(self, epoch: int, msg_id: int, attempt: int) -> None:
        if not self.alive or self._timer_epoch != epoch:
            return
        entry = self._rel_pending.get(msg_id)
        if entry is None:
            return  # acked
        if attempt >= self.overlay.config.max_send_retries:
            del self._rel_pending[msg_id]
            self.overlay.stats.count("reliable_abandoned")
            return
        dst, envelope = entry
        self.overlay.stats.count("reliable_retries")
        self.send(dst, envelope)
        self._arm_rel_retry(msg_id, attempt + 1)

    def _timer_fire(self, epoch: int, tag: str, payload: Any) -> None:
        if self.alive and self._timer_epoch == epoch:
            self.mailbox.put(TimerFire(self._ref, tag, payload))

    def set_timer(self, delay: float, tag: str, payload: Any = None) -> None:
        # Reuse the tag's handle when its previous firing is done
        # (sequential re-arm chains — the overwhelmingly common shape);
        # concurrent same-tag timers fall back to a fresh handle.
        call = self._timer_calls.get(tag)
        if call is not None and not call.pending:
            self.sim.reschedule(call, delay, self._timer_epoch, tag, payload)
        else:
            self._timer_calls[tag] = self.sim.schedule(
                delay, self._timer_fire, self._timer_epoch, tag, payload
            )

    def _every_fire(self, epoch: int, tag: str, interval: float) -> None:
        if not self.alive or self._timer_epoch != epoch:
            return
        self.mailbox.put(TimerFire(self._ref, tag, None))
        # re-arm *after* delivery, exactly like the closure chain this
        # replaces: handlers that run inline off the put consume their
        # sequence numbers first
        call = self._timer_calls.get(("every", tag))
        if call is not None and not call.pending:
            self.sim.reschedule(call, interval, epoch, tag, interval)
        else:  # pragma: no cover - chain re-entry cannot overlap itself
            self._timer_calls[("every", tag)] = self.sim.schedule(
                interval, self._every_fire, epoch, tag, interval
            )

    def every(self, interval: float, tag: str) -> None:
        """Start a periodic timer (stops when the node dies).

        The chain is bound to the current incarnation: after a crash
        (even one followed by a revive) it goes quiet, and the revived
        node re-arms whichever timers it needs.
        """
        self._timer_calls[("every", tag)] = self.sim.schedule(
            interval, self._every_fire, self._timer_epoch, tag, interval
        )

    # -- request/reply correlation ------------------------------------------------
    def new_request(self) -> tuple[int, Signal]:
        self._req_counter += 1
        req_id = self._req_counter
        sig = Signal(f"{self.name}:req{req_id}")
        self._pending[req_id] = sig
        return req_id, sig

    def resolve_request(self, req_id: int, value: Any) -> None:
        sig = self._pending.pop(req_id, None)
        if sig is not None and not sig.triggered:
            sig.succeed(value)

    def drop_request(self, req_id: int) -> None:
        self._pending.pop(req_id, None)
