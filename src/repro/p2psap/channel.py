"""P2PSAP channels: connected peer↔peer data-plane endpoints.

A :class:`Channel` joins two hosts over the fluid network under a
protocol mode chosen by the adaptation rules.  Sends cost protocol
overhead at each end plus the network transfer of payload+header; in
acked modes a blocking send additionally waits for the ack leg.  In
``drop_stale`` mode the receive queue keeps only the freshest message
(asynchronous iterations never consume outdated iterates).

Reconfiguration (``adapt``) swaps the mode at a session-renegotiation
cost — the protocol-switch capability that distinguishes P2PSAP from
"switch between networks" approaches like MPICH-Madeleine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..desim import Mailbox, Signal, Simulator
from ..net import FluidNetwork, Host
from .adaptation import select_mode
from .context import ChannelContext
from .modes import ProtocolMode

#: Session renegotiation cost for a protocol switch (seconds, per the
#: handshake of the reconfigurable stack).
RECONFIGURE_RTTS = 2.0

_ids = itertools.count()


@dataclass
class ChannelStats:
    messages_sent: int = 0
    bytes_sent: float = 0.0
    messages_dropped_stale: int = 0
    reconfigurations: int = 0


class ChannelEndpoint:
    """One side's view of a channel."""

    def __init__(self, channel: "Channel", host: Host, peer_host: Host) -> None:
        self.channel = channel
        self.host = host
        self.peer_host = peer_host
        self.inbox = Mailbox(f"chan{channel.cid}:{host.name}")

    # -- data plane -----------------------------------------------------------
    def send(self, payload_bytes: float, data: object = None) -> Signal:
        """Transmit; returned signal fires when the sender may proceed
        (transfer done, plus ack leg in acked modes)."""
        channel = self.channel
        if channel is None:
            raise RuntimeError(f"{self.inbox.name}: channel is closed")
        return channel._transmit(self, payload_bytes, data)

    def recv(self) -> Signal:
        """Signal yielding ``(payload_bytes, data)`` — freshest first in
        drop-stale mode, FIFO otherwise."""
        return self.inbox.get()

    def try_recv(self):
        return self.inbox.try_get()

    @property
    def pending(self) -> int:
        return len(self.inbox)


class Channel:
    """A P2PSAP session between two hosts."""

    def __init__(
        self,
        sim: Simulator,
        net: FluidNetwork,
        host_a: Host,
        host_b: Host,
        context: ChannelContext = ChannelContext(),
        mode: Optional[ProtocolMode] = None,
        faults: object = None,
    ) -> None:
        self.cid = next(_ids)
        self.sim = sim
        self.net = net
        self.context = context
        self.mode = mode if mode is not None else select_mode(context)
        #: Network-fault injector (:class:`repro.net.FaultInjector`)
        #: shared with the overlay; None keeps every transfer on the
        #: exact pre-fault code path.
        self.faults = faults
        self.stats = ChannelStats()
        self.a = ChannelEndpoint(self, host_a, host_b)
        self.b = ChannelEndpoint(self, host_b, host_a)
        # per-send f-strings are hot-path cost: the cid is fixed, so
        # the signal name and wire tags are built once per channel
        self._send_name = f"chan{self.cid}:send"
        self._tag = f"chan{self.cid}"
        self._ack_tag = f"chan{self.cid}:ack"

    def endpoints(self):
        return self.a, self.b

    def endpoint_for(self, host: Host) -> ChannelEndpoint:
        if host is self.a.host:
            return self.a
        if host is self.b.host:
            return self.b
        raise KeyError(f"host {host.name} not on channel {self.cid}")

    # -- adaptation ---------------------------------------------------------
    def adapt(self, context: ChannelContext) -> Signal:
        """Renegotiate the stack for a new context.

        Returns a signal that fires when the channel is usable again;
        no-op (immediate) when the selected mode is unchanged.
        """
        self.context = context
        new_mode = select_mode(context)
        done = Signal(f"chan{self.cid}:adapt")
        if new_mode is self.mode:
            done.succeed(self.mode)
            return done
        self.mode = new_mode
        self.stats.reconfigurations += 1
        rtt = 2.0 * self.net.topology.route_latency(self.a.host, self.b.host)
        self.sim.schedule(RECONFIGURE_RTTS * rtt, done.succeed, new_mode)
        return done

    # -- internals ------------------------------------------------------------
    def _transmit(
        self, src: ChannelEndpoint, payload_bytes: float, data: object
    ) -> Signal:
        mode = self.mode
        dst = self.b if src is self.a else self.a
        self.stats.messages_sent += 1
        self.stats.bytes_sent += payload_bytes
        done = Signal(self._send_name)
        wire = mode.wire_size(payload_bytes)
        # sender-side protocol processing before the wire (bound
        # methods with explicit args, not per-send closures: the halo
        # exchange transmits per iteration per neighbour)
        self.sim.call_later(mode.per_message_overhead, self._start_transfer,
                            src, dst, mode, wire, payload_bytes, data, done)
        if not mode.acked:
            # sender is released after local processing + first byte out
            self.sim.call_later(mode.per_message_overhead, done.succeed,
                                payload_bytes)
        return done

    def _start_transfer(self, src, dst, mode, wire, payload_bytes,
                        data, done) -> None:
        delay = 0.0
        duplicate = False
        faults = self.faults
        if faults is not None:
            verdict = self._apply_faults(faults, src, dst, mode)
            if verdict is None:
                # genuinely dropped (non-acked mode only: the sender
                # was already released after local processing)
                return
            delay, duplicate = verdict
        if delay > 0.0:
            self.sim.call_later(delay, self._wire_send, src, dst, mode,
                                wire, payload_bytes, data, done, duplicate)
        else:
            self._wire_send(src, dst, mode, wire, payload_bytes, data,
                            done, duplicate)

    def _apply_faults(self, faults, src, dst, mode):
        """Per-transfer fault verdict: None = dropped, else
        ``(extra delay, deliver a duplicate)``.

        Mode-aware: acked (TCP-like) modes never lose or duplicate at
        the application boundary — retransmission and sequence numbers
        live below the abstraction — so a loss draw (or a partition
        window) costs *delay* instead of the message, while the
        non-acked drop-stale modes genuinely drop and duplicate.
        """
        delay = 0.0
        if faults.blocked(src.host, dst.host):
            if not mode.acked:
                return None
            # TCP retransmits until the partition heals
            delay += max(0.0, faults.partition_end - self.sim.now)
        if faults.drop():
            if not mode.acked:
                return None
            # lost on the wire, recovered by retransmission: the
            # jitter-delay scale stands in for the RTO cost
            delay += faults.jitter_delay
        delay += faults.delay()
        duplicate = False if mode.acked else faults.duplicate()
        return delay, duplicate

    def _wire_send(self, src, dst, mode, wire, payload_bytes, data,
                   done, duplicate=False) -> None:
        # receiver-side protocol processing after arrival, then enqueue
        def arrived() -> None:
            self.sim.call_later(mode.per_message_overhead, self._enqueue,
                                src, dst, mode, payload_bytes, data, done)

        self.net.send(src.host, dst.host, wire, tag=self._tag,
                      callback=arrived)
        if duplicate:
            # the second copy takes its own trip over the network
            self.net.send(src.host, dst.host, wire, tag=self._tag,
                          callback=arrived)

    def _enqueue(self, src, dst, mode, payload_bytes, data, done) -> None:
        if mode.drop_stale and len(dst.inbox) > 0:
            dst.inbox.clear()
            self.stats.messages_dropped_stale += 1
        dst.inbox.put((payload_bytes, data))
        if mode.acked:
            self.net.send(dst.host, src.host, mode.header_bytes,
                          tag=self._ack_tag,
                          callback=lambda: done.succeed(payload_bytes))

    def close(self) -> None:
        """End the session: both endpoints drop their link back to the
        channel, so a later send raises and channel and endpoints no
        longer hold each other alive."""
        self.a.channel = self.b.channel = None
