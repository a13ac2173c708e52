"""Trace-based simulation: replay dPerf traces on a platform.

This is the SimGrid/MSG stage of the paper's pipeline (Fig. 6,
"Trace-based Network Simulation"): one simulated process per trace
replays its computation bursts (scaled by the target host's speed) and
its communication calls over the fluid network; the result is the
total predicted time ``t_predicted``.

Collective operations are expanded into real point-to-point messages
(centralized barrier / reduce+broadcast), so their cost reflects the
simulated platform rather than an analytic formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..desim import Mailbox, Signal, Simulator
from ..net import FluidNetwork, Host, TcpModel
from ..platforms import PlatformSpec
from .traces import AllReduce, Barrier, Compute, Recv, Send, Trace, validate_trace_set

_CTRL_BYTES = 64  # size of barrier/collective control messages


@dataclass
class ReplayResult:
    """Outcome of a trace replay."""

    makespan: float
    finish_times: List[float]
    compute_time: List[float]
    blocked_time: List[float]
    bytes_sent: float
    events_replayed: int

    @property
    def t_predicted(self) -> float:
        """The paper's ``t_predicted`` — end-to-end simulated time."""
        return self.makespan

    def summary(self) -> str:
        n = len(self.finish_times)
        return (
            f"t_predicted={self.makespan:.4f}s over {n} ranks "
            f"(max compute {max(self.compute_time):.4f}s, "
            f"max blocked {max(self.blocked_time):.4f}s)"
        )


class TraceReplayer:
    """Replays a consistent trace set on a platform."""

    def __init__(
        self,
        traces: Sequence[Trace],
        platform: PlatformSpec,
        hosts: Optional[Sequence[Host]] = None,
        tcp: TcpModel = TcpModel(),
        reference_speed: Optional[float] = None,
        validate: bool = True,
    ) -> None:
        if validate:
            validate_trace_set(traces)
        self.traces = sorted(traces, key=lambda t: t.rank)
        self.platform = platform
        self.hosts = list(hosts) if hosts is not None else platform.take_hosts(
            len(self.traces)
        )
        if len(self.hosts) != len(self.traces):
            raise ValueError(
                f"{len(self.traces)} traces but {len(self.hosts)} hosts"
            )
        self.sim = Simulator()
        self.net = FluidNetwork(self.sim, platform.topology, tcp=tcp)
        # Trace compute-ns were measured on the reference machine; when
        # replaying on faster/slower hosts they scale by speed ratio.
        self.reference_speed = (
            reference_speed if reference_speed is not None else self.hosts[0].speed
        )
        self._boxes: Dict[Tuple[int, int, str], Mailbox] = {}
        self._finish = [0.0] * len(self.traces)
        self._compute = [0.0] * len(self.traces)
        self._blocked = [0.0] * len(self.traces)
        self._barrier_seq = [0] * len(self.traces)
        self._ar_seq = [0] * len(self.traces)

    # -- mailbox plumbing ---------------------------------------------------
    def _box(self, dst: int, src: int, tag: str) -> Mailbox:
        key = (dst, src, tag)
        box = self._boxes.get(key)
        if box is None:
            box = Mailbox(f"r{src}->r{dst}:{tag}")
            self._boxes[key] = box
        return box

    def _transmit(self, src: int, dst: int, size: float, tag: str,
                  blocking: bool = False) -> Optional[Signal]:
        """Start a network flow; deliver into dst's mailbox on arrival.

        The flow completes on the network's callback path.  Only a
        blocking send gets a signal: it fires right after the delivery,
        so the receiver's mailbox has the message before the sender
        resumes.  Nobody reads a delivered item, so it is ``None``.
        """
        box = self._box(dst, src, tag)
        if not blocking:
            self.net.send(self.hosts[src], self.hosts[dst], size, tag=tag,
                          callback=lambda: box.put(None))
            return None
        done = Signal("xfer")

        def arrived() -> None:
            box.put(None)
            done.succeed()

        self.net.send(self.hosts[src], self.hosts[dst], size, tag=tag,
                      callback=arrived)
        return done

    # -- per-rank replay process ---------------------------------------------
    def _rank_process(self, trace: Trace):
        rank = trace.rank
        n = len(self.traces)
        host = self.hosts[rank]
        speed_scale = self.reference_speed / host.speed
        sim = self.sim
        for event in trace.events:
            if isinstance(event, Compute):
                dt = event.ns * 1e-9 * speed_scale
                self._compute[rank] += dt
                yield sim.timeout(dt)
            elif isinstance(event, Send):
                if event.blocking:
                    t0 = sim.now
                    yield self._transmit(rank, event.dst, event.size,
                                         event.tag, blocking=True)
                    self._blocked[rank] += sim.now - t0
                else:
                    self._transmit(rank, event.dst, event.size, event.tag)
            elif isinstance(event, Recv):
                t0 = sim.now
                yield self._box(rank, event.src, event.tag).get()
                self._blocked[rank] += sim.now - t0
            elif isinstance(event, Barrier):
                t0 = sim.now
                yield from self._do_barrier(rank, n)
                self._blocked[rank] += sim.now - t0
            elif isinstance(event, AllReduce):
                t0 = sim.now
                yield from self._do_allreduce(rank, n, event.size)
                self._blocked[rank] += sim.now - t0
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown trace event {event!r}")
        self._finish[rank] = sim.now

    def _do_barrier(self, rank: int, n: int):
        if n == 1:
            return
        seq = self._barrier_seq[rank]
        self._barrier_seq[rank] += 1
        tag = f"__bar{seq}"
        if rank == 0:
            for src in range(1, n):
                yield self._box(0, src, tag).get()
            for dst in range(1, n):
                self._transmit(0, dst, _CTRL_BYTES, tag + "r")
        else:
            self._transmit(rank, 0, _CTRL_BYTES, tag)
            yield self._box(rank, 0, tag + "r").get()

    def _do_allreduce(self, rank: int, n: int, size: int):
        if n == 1:
            return
        seq = self._ar_seq[rank]
        self._ar_seq[rank] += 1
        tag = f"__ar{seq}"
        if rank == 0:
            for src in range(1, n):
                yield self._box(0, src, tag).get()
            for dst in range(1, n):
                self._transmit(0, dst, size, tag + "r")
        else:
            self._transmit(rank, 0, size, tag)
            yield self._box(rank, 0, tag + "r").get()

    # -- entry point --------------------------------------------------------
    def run(self, time_limit: float = 1e7) -> ReplayResult:
        procs = [self.sim.process(self._rank_process(t), name=f"rank{t.rank}")
                 for t in self.traces]
        self.sim.run(until=time_limit)
        for p in procs:
            if not p.triggered:
                raise RuntimeError(
                    f"replay deadlock or time-limit: {p.name} unfinished "
                    f"at t={self.sim.now:g}"
                )
            p.check()
        return ReplayResult(
            makespan=max(self._finish),
            finish_times=self._finish,
            compute_time=self._compute,
            blocked_time=self._blocked,
            bytes_sent=self.net.bytes_delivered,
            events_replayed=sum(len(t) for t in self.traces),
        )


def replay_traces(
    traces: Sequence[Trace],
    platform: PlatformSpec,
    hosts: Optional[Sequence[Host]] = None,
    tcp: TcpModel = TcpModel(),
    reference_speed: Optional[float] = None,
) -> ReplayResult:
    """One-shot convenience wrapper around :class:`TraceReplayer`."""
    return TraceReplayer(
        traces, platform, hosts=hosts, tcp=tcp, reference_speed=reference_speed
    ).run()
