"""The fluid network engine: flows over a topology on the desim clock.

A transfer is modelled in two phases, as in SimGrid's LV08 model:

1. a *latency phase* — the sum of link latencies along the route;
2. a *data phase* — the flow joins the active set and receives a
   max-min fair share of every link it crosses; shares are recomputed
   whenever any flow starts or finishes.

The engine exposes one call, :meth:`FluidNetwork.send`, returning a
signal that fires when the last byte arrives.

Three hot-path optimizations keep large replays cheap (see DESIGN.md,
"Replay hot path"):

* **Route-set interning** — the (route, latency, window/RTT cap)
  triple of each (src, dst) pair is computed once and shared by every
  flow on that pair, so the solver can group identical flows into one
  class with a multiplicity.
* **Event-batched reshare** — flow arrivals/departures within one
  simulated instant trigger a single max-min recomputation at the end
  of the instant (collective operations start and finish many flows
  at the same time), instead of one per change.  No simulated time
  passes inside an instant, so the batched rates equal the rates the
  last of the per-change reshares would have produced.
* **Dirty-component reshare** — a reshare re-solves only the
  connected part of the binding graph reachable from the links that
  contended arrivals/departures touched; flows elsewhere keep their
  (provably unchanged) rates without being visited.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..desim import Signal, Simulator
from ..desim.simulator import ScheduledCall
from .links import Link, TcpModel
from .nodes import Host, NetNode
from .sharing import BINDING_EPS, progressive_fill
from .topology import Topology


@dataclass(frozen=True)
class TransferInfo:
    """Completion record handed to the sender's done-signal."""

    src: str
    dst: str
    size: float
    start: float
    end: float
    tag: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _RouteInfo:
    """Interned per-(src, dst) route data shared by every flow on the
    pair: the link list, its latency sum, the TCP window/RTT rate cap,
    and the flow's *ceiling* (cap folded with the narrowest link — the
    most a single flow on this pair can ever receive).  Identity
    doubles as the solver's class key — flows holding the same
    ``_RouteInfo`` are exchangeable."""

    __slots__ = ("route", "latency", "cap", "ceiling", "thresholds")

    def __init__(self, route, latency: float, cap: float,
                 ceiling: float, thresholds: tuple) -> None:
        self.route = route
        self.latency = latency
        self.cap = cap
        self.ceiling = ceiling
        #: per crossed link: the ceiling-load level past which it can
        #: saturate (bandwidth · factor · (1+eps)), precomputed so the
        #: per-flow track/untrack bookkeeping does no arithmetic
        self.thresholds = thresholds


class _Flow:
    __slots__ = (
        "fid",
        "src",
        "dst",
        "size",
        "remaining",
        "info",
        "done",
        "rate",
        "start",
        "tag",
        "completion",
        "seq",
    )

    def __init__(self, fid, src, dst, size, info, done, start, tag):
        self.fid = fid
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.remaining = float(size)
        self.info = info
        self.done = done
        self.rate = 0.0
        self.start = start
        self.tag = tag
        self.completion: Optional[ScheduledCall] = None
        #: activation sequence number (``_active``'s insertion order),
        #: set when the data phase starts
        self.seq = 0

    @property
    def route(self):
        return self.info.route


_activation_order = operator.attrgetter("seq")


class FluidNetwork:
    """Flow-level network simulation bound to a :class:`Simulator`."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        tcp: TcpModel = TcpModel(),
        route_intern: Optional[Dict[Tuple[str, str], _RouteInfo]] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.tcp = tcp
        self._active: Dict[int, _Flow] = {}
        self._ids = itertools.count()
        self._last_update = 0.0
        # ``route_intern`` lets deployments over the same (topology,
        # tcp) share one per-pair store across engine instances, so a
        # sweep derives each route once per process instead of once
        # per grid point.  Callers must key the shared dict on the tcp
        # parameters too — caps fold the tcp model in.
        self._routes: Dict[Tuple[str, str], _RouteInfo] = (
            route_intern if route_intern is not None else {}
        )
        self._routes_version = topology.version
        self._reshare_pending = False
        # Incremental constraint bookkeeping: per-link sum of active
        # flows' ceilings, per-link active flows, and the set of links
        # that could saturate at those ceilings.  Maintained per
        # transfer so a reshare only solves the binding residual.
        self._ceiling_load: Dict[Link, float] = {}
        self._link_flows: Dict[Link, Dict[int, _Flow]] = {}
        self._binding: set = set()
        #: Links whose flow set or binding state a contended arrival or
        #: departure changed since the last reshare: the pending
        #: reshare re-solves only what is reachable from them.
        self._dirty: set = set()
        self._activations = itertools.count()
        #: Memoized solver outcomes, keyed on the solved component's
        #: (class, count) vector and its binding links.  How often a
        #: reshare hits is workload-dependent (perfbench reports it as
        #: ``net.solve_cache_hit_ratio``): halo phases repeat a
        #: component's problem every iteration, staggered completions
        #: produce fresh count vectors.
        self._solve_cache: Dict[Any, Dict[_RouteInfo, float]] = {}
        # cumulative statistics
        self.bytes_delivered = 0.0
        self.transfers_completed = 0
        self.reshare_count = 0

    # -- public API ----------------------------------------------------------
    def send(
        self,
        src: NetNode,
        dst: NetNode,
        nbytes: float,
        tag: Optional[str] = None,
        callback=None,
    ) -> Optional[Signal]:
        """Start a transfer; returns a signal succeeding with TransferInfo.

        With ``callback`` the completion is delivered as a direct
        ``callback()`` with no argument instead — same invocation
        instant, no per-flow signal and no :class:`TransferInfo` (the
        control plane and the channel layer send one flow per message
        and never read the record, so the ceremony is hot) — and
        ``None`` is returned.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        fid = next(self._ids)
        done = callback if callback is not None else Signal("xfer")
        info = self._route_info(src, dst)
        flow = _Flow(fid, src, dst, nbytes, info, done, self.sim.now, tag)
        # Phase 1: latency, then the flow starts consuming bandwidth.
        # The same handle is re-armed for the data phase (_set_rate
        # swaps the callback to _complete): one ScheduledCall serves a
        # flow for its whole life.
        flow.completion = self.sim.schedule(info.latency, self._activate, flow)
        return done if callback is None else None

    def _route_info(self, src: NetNode, dst: NetNode) -> _RouteInfo:
        """The interned (route, latency, rate-cap) triple of a pair.

        Keyed on the topology's link version: adding a link after the
        first send invalidates the intern cache, so later transfers see
        the new routes (in-flight flows keep the route they started
        on, exactly as the per-send lookup behaved)."""
        if self._routes_version != self.topology.version:
            self._routes.clear()
            self._solve_cache.clear()  # keys hold the old interned routes
            self._routes_version = self.topology.version
        key = (src.name, dst.name)
        info = self._routes.get(key)
        if info is None:
            route = tuple(self.topology.route(src, dst))
            latency = sum(l.latency for l in route)
            cap = self.tcp.rate_cap(latency)
            ceiling = cap
            if route:
                ceiling = min(
                    cap,
                    min(l.bandwidth for l in route)
                    * self.tcp.bandwidth_factor,
                )
            factor = self.tcp.bandwidth_factor
            thresholds = tuple(
                l.bandwidth * factor * (1 + BINDING_EPS) for l in route
            )
            info = _RouteInfo(route, latency, cap, ceiling, thresholds)
            self._routes[key] = info
        return info

    def transfer_time_estimate(
        self, src: NetNode, dst: NetNode, nbytes: float
    ) -> float:
        """Uncontended analytic estimate: latency + size / ceiling.

        Used by P2PDC actors for quick decisions (never for results);
        rides the interned per-pair route info.
        """
        info = self._route_info(src, dst)
        if not info.route:
            return 0.0
        return info.latency + nbytes / info.ceiling

    @property
    def active_flow_count(self) -> int:
        return len(self._active)

    # -- engine internals ------------------------------------------------------
    def _activate(self, flow: _Flow) -> None:
        if not flow.route or flow.remaining <= 0.0:
            # Same-host or zero-byte message: latency-only.
            self._finish(flow)
            return
        if self.sim.now != self._last_update:
            self._advance_progress()
        flow.seq = next(self._activations)
        self._active[flow.fid] = flow
        self._track(flow)
        # Uncontended arrival: if no crossed link can saturate, the
        # flow runs at its ceiling and no other flow's constraints
        # moved — skip the solver entirely (the dominant case on
        # fat-link platforms, and the first flow of every pair on
        # access-bottlenecked ones).
        binding = self._binding
        route = flow.info.route
        if binding and not binding.isdisjoint(route):
            # unrated until the solver runs: its links stay dirty, so
            # the pending reshare visits it even if they leave the
            # binding set meanwhile
            self._dirty.update(route)
            self._request_reshare()
        else:
            self._set_rate(flow, flow.info.ceiling)

    def _set_rate(self, flow: _Flow, rate: float) -> None:
        completion = flow.completion
        if completion is not None and not completion.cancelled:
            if rate == flow.rate:
                return
        flow.rate = rate
        if rate <= 0.0:
            # starved; will reshare on next change
            if completion is not None:
                completion.cancel()
            return
        eta = flow.remaining / rate if math.isfinite(rate) else 0.0
        if completion is None:  # pragma: no cover - send() always arms it
            flow.completion = self.sim.schedule(eta, self._complete, flow)
        else:
            # one handle per flow for its whole life: reschedule marks
            # the heaped entry stale in place of a cancel + fresh push
            # (and retargets the latency-phase handle on first use)
            completion.fn = self._complete
            self.sim.reschedule(completion, eta, flow)

    def _track(self, flow: _Flow) -> None:
        info = flow.info
        ceiling = info.ceiling
        ceiling_load = self._ceiling_load
        link_flows = self._link_flows
        for link, threshold in zip(info.route, info.thresholds):
            load = ceiling_load.get(link, 0.0) + ceiling
            ceiling_load[link] = load
            flows = link_flows.get(link)
            if flows is None:
                flows = link_flows[link] = {}
            flows[flow.fid] = flow
            if load > threshold:
                self._binding.add(link)

    def _untrack(self, flow: _Flow) -> None:
        info = flow.info
        ceiling = info.ceiling
        ceiling_load = self._ceiling_load
        for link, threshold in zip(info.route, info.thresholds):
            flows = self._link_flows[link]
            del flows[flow.fid]
            if not flows:
                # reset exactly: idle links shed accumulated float drift
                del self._link_flows[link]
                del ceiling_load[link]
                self._binding.discard(link)
                continue
            load = ceiling_load[link] - ceiling
            ceiling_load[link] = load
            if load <= threshold:
                self._binding.discard(link)

    def _advance_progress(self) -> None:
        """Account bytes moved since the last rate change."""
        dt = self.sim.now - self._last_update
        if dt > 0.0:
            for flow in self._active.values():
                if math.isfinite(flow.rate):
                    flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
                else:
                    flow.remaining = 0.0
        self._last_update = self.sim.now

    def _request_reshare(self) -> None:
        """Batch rate recomputation to the end of the current instant.

        Collectives start/finish many flows at the same simulated time;
        one zero-delay event coalesces all of them into a single solver
        call.  Rates only matter once time advances, so deferring within
        the instant is exact.
        """
        if not self._reshare_pending:
            self._reshare_pending = True
            self.sim.call_later(0.0, self._run_reshare)

    def _run_reshare(self) -> None:
        self._reshare_pending = False
        dirty = self._dirty
        self._dirty = set()
        if not self._active:
            return
        if self.sim.now != self._last_update:
            self._advance_progress()  # no-op unless a caller skipped it
        self.reshare_count += 1
        # Re-solve only the part of the binding graph a change can have
        # moved: the flows on the dirty links, then outward over binding
        # links only (flow → its binding links → their flows → ...).
        # Exact, not approximate:
        # * progressive filling on a disconnected problem freezes each
        #   component exactly as solving it alone would, so a component
        #   no change reached keeps the rates a full solve would give;
        # * _set_rate on an unchanged rate is a no-op, so skipping those
        #   flows consumes no heap sequence numbers a full pass would;
        # * after every reshare each off-ceiling flow sits on a binding
        #   link, and a link only leaves the binding set on a contended
        #   departure, which marks it dirty — so every flow that must
        #   climb back to its ceiling is visited.
        # Flows crossing no binding link run at their interned ceiling.
        binding = self._binding
        link_flows = self._link_flows
        members: Dict[int, _Flow] = {}
        crosses: Dict[_RouteInfo, bool] = {}  # class → on a binding link
        todo = [link for link in dirty if link in link_flows]
        seen = set(todo)
        while todo:
            flows = link_flows[todo.pop()]
            members.update(flows)
            for flow in flows.values():
                info = flow.info
                if info in crosses:
                    continue  # same route as a flow already expanded
                crossing = False
                for link in info.route:
                    if link in binding:
                        crossing = True
                        if link not in seen:
                            seen.add(link)
                            todo.append(link)
                crosses[info] = crossing
        # Visit in activation (_active) order — the order a full scan
        # would use — so solver input order, freeze order and
        # completion sequencing do not depend on set iteration order.
        candidates = sorted(members.values(), key=_activation_order)
        rates: Dict[_RouteInfo, float] = {}
        # Group identical (route, cap) flows into one class with a
        # multiplicity and build the solve-cache key first; solver
        # inputs are only materialized on a miss.
        counts: Dict[_RouteInfo, int] = {}
        for flow in candidates:
            info = flow.info
            if crosses[info]:
                counts[info] = counts.get(info, 0) + 1
        if counts:
            key = (tuple(counts.items()),
                   frozenset(link for link in seen if link in binding))
            rates = self._solve_cache.get(key)
            if rates is None:
                rates = progressive_fill(
                    {info: [l for l in info.route if l in binding]
                     for info in counts},
                    {info: info.ceiling for info in counts},
                    counts,
                    bandwidth_factor=self.tcp.bandwidth_factor,
                )
                self._solve_cache[key] = rates
        for flow in candidates:
            rate = rates.get(flow.info)
            self._set_rate(flow,
                           rate if rate is not None else flow.info.ceiling)

    def _complete(self, flow: _Flow) -> None:
        if self.sim.now != self._last_update:
            self._advance_progress()
        flow.remaining = 0.0
        del self._active[flow.fid]
        # Departure from all-slack links frees capacity nobody was
        # contending for: remaining rates are unaffected, skip the
        # solver (mirror of the uncontended-arrival case).
        binding = self._binding
        route = flow.info.route
        contended = bool(binding) and not binding.isdisjoint(route)
        self._untrack(flow)
        self._finish(flow)
        if contended and self._active:
            self._dirty.update(route)
            self._request_reshare()

    def _finish(self, flow: _Flow) -> None:
        # the fired handle's args hold the flow: drop the cycle so a
        # finished flow is freed at once, not by the cyclic collector
        flow.completion = None
        self.bytes_delivered += flow.size
        self.transfers_completed += 1
        done = flow.done
        if done.__class__ is Signal:
            done.succeed(TransferInfo(
                src=flow.src.name,
                dst=flow.dst.name,
                size=flow.size,
                start=flow.start,
                end=self.sim.now,
                tag=flow.tag,
            ))
        else:  # plain callback (same invocation instant as a succeed)
            done()
