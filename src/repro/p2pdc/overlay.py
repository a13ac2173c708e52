"""Overlay bootstrap and message transport for P2PDC actors.

The :class:`Overlay` owns the simulator, the fluid network, the actor
registry, and the protocol configuration (timer intervals, timeouts,
neighbour-set size).  Initial deployment follows the paper §III-A3:
the administrator starts a server plus a set of core trackers spread
over the IP range; their line topology is configured directly (they
are "cores of the system and are on-line permanently"), while every
later tracker/peer joins through the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..desim import RngRegistry, Simulator
from ..net import FluidNetwork, Host, TcpModel
from ..platforms import PlatformSpec
from .ip import IPv4
from .messages import Message, NodeRef
from .node import NodeActor
from .prediction import PredictionError
from .stats import OverlayStats


#: Peer-selection policies (failure_aware follows Dubey & Tokekar 2012:
#: rank candidates by their observed failure history; predicted ranks
#: candidate groups by dPerf-priced makespan, oracle by the true
#: simulated makespan — see repro.p2pdc.prediction).  Must match
#: repro.scenarios.spec.SELECTION_POLICIES — the spec layer stays
#: import-light, so the tuple is mirrored there (drift is pinned by
#: tests/test_churn_recovery.py).
SELECTION_POLICIES = ("proximity", "random", "failure_aware",
                      "predicted", "oracle")


@dataclass(frozen=True)
class OverlayConfig:
    """Protocol constants (paper values where given)."""

    neighbor_set_size: int = 6        # |N|, half per side
    cmax: int = 32                    # max peers per group (paper: 32)
    grouping: str = "proximity"       # "proximity" (paper) | "random"
    selection_policy: str = "proximity"  # peer choice: see SELECTION_POLICIES
    state_update_interval: float = 30.0
    peer_expiry: float = 75.0         # tracker drops silent peers after T
    update_ack_timeout: float = 10.0  # peer declares tracker dead after T
    adjacency_ping_interval: float = 10.0
    adjacency_ping_timeout: float = 25.0
    reserve_timeout: float = 15.0
    stats_report_interval: float = 60.0
    bootstrap_tracker_count: int = 4  # trackers handed out by the server
    #: Mid-computation recovery (subtask re-dispatch).  Off by default:
    #: with recovery disabled the protocol behaves exactly as before
    #: (no coordinator liveness probes, no re-dispatch traffic).
    recovery: bool = False
    compute_ping_interval: float = 2.0  # coordinator → member liveness probe
    compute_ping_timeout: float = 5.0   # silent member declared lost after T
    #: Coordinator recovery (stand-in election).  Off by default, and
    #: only valid on top of ``recovery``: with election disabled the
    #: protocol behaves exactly as before (no CoordPing probes, no
    #: duty checkpoints, no elections).
    election: bool = False
    coord_ping_interval: float = 2.0   # member → coordinator liveness probe
    coord_ping_timeout: float = 5.0    # silent coordinator declared lost after T
    #: The k-th election candidate claims the duty after k·backoff of
    #: silence, so a dead front-runner never blocks the hand-off.
    election_backoff: float = 2.0
    #: Prediction-error ablation: seeded corruption of the scores the
    #: ``predicted`` policy ranks candidate groups by.  Inactive by
    #: default (level 0 — the uncorrupted predictor), and only valid
    #: with ``selection_policy="predicted"``: no other policy reads a
    #: makespan prediction, so a configured corruption would silently
    #: do nothing.
    prediction_error: PredictionError = PredictionError()
    #: Control-plane hardening for lossy networks: critical messages
    #: (dispatch, results, checkpoints, handoffs, registrations) are
    #: wrapped in reliable envelopes with monotone ids, receiver-side
    #: dedup, and ack/retry under bounded exponential backoff.  Off by
    #: default: with reliability disabled the protocol behaves exactly
    #: as before (no envelopes, no acks, no retry timers).
    reliability: bool = False
    ack_timeout: float = 1.0       # first reliable retry after this silence
    max_send_retries: int = 6      # retries before a send is abandoned
    retry_backoff_cap: float = 8.0  # ceiling on the doubling backoff

    def __post_init__(self) -> None:
        if self.grouping not in ("proximity", "random"):
            raise ValueError(
                f"grouping must be 'proximity' or 'random', "
                f"got {self.grouping!r}"
            )
        if self.selection_policy not in SELECTION_POLICIES:
            raise ValueError(
                f"selection_policy must be one of {SELECTION_POLICIES}, "
                f"got {self.selection_policy!r}"
            )
        if self.compute_ping_interval <= 0:
            raise ValueError("compute_ping_interval must be > 0")
        if self.compute_ping_timeout <= self.compute_ping_interval:
            raise ValueError(
                "compute_ping_timeout must exceed compute_ping_interval "
                "(a live member must be able to pong in time)"
            )
        if (self.prediction_error.active
                and self.selection_policy != "predicted"):
            raise ValueError(
                "prediction_error requires selection_policy='predicted': "
                "no other policy consumes makespan predictions, so the "
                "configured corruption would silently do nothing (set "
                "the policy, or drop the error level to 0)"
            )
        if self.election and not self.recovery:
            raise ValueError(
                "election requires the recovery subsystem: a stand-in "
                "coordinator re-dispatches lost subtasks through it "
                "(enable recovery, or disable election)"
            )
        if self.coord_ping_interval <= 0:
            raise ValueError("coord_ping_interval must be > 0")
        if self.coord_ping_timeout <= self.coord_ping_interval:
            raise ValueError(
                "coord_ping_timeout must exceed coord_ping_interval "
                "(a live coordinator must be able to pong in time)"
            )
        if self.election_backoff <= 0:
            raise ValueError("election_backoff must be > 0")
        if not isinstance(self.reliability, bool):
            raise ValueError(
                f"reliability must be a bool, got {self.reliability!r}"
            )
        if self.ack_timeout <= 0:
            raise ValueError("ack_timeout must be > 0")
        if self.max_send_retries < 1:
            raise ValueError("max_send_retries must be >= 1")
        if self.retry_backoff_cap < self.ack_timeout:
            raise ValueError(
                "retry_backoff_cap must be >= ack_timeout "
                "(the cap bounds the doubling backoff from above)"
            )

    def retry_horizon(self) -> float:
        """Worst-case seconds a reliable send keeps retrying before it
        is abandoned: the sum of the capped doubling backoff delays.
        Liveness monitors add this to their silence timeouts when
        reliability is on, so a partition shorter than the retry
        budget heals instead of being declared a crash."""
        return sum(
            min(self.ack_timeout * 2.0 ** k, self.retry_backoff_cap)
            for k in range(self.max_send_retries)
        )


class Overlay:
    """The shared fabric all P2PDC actors live in."""

    def __init__(
        self,
        platform: PlatformSpec,
        config: OverlayConfig = OverlayConfig(),
        seed: int = 0,
        tcp: TcpModel = TcpModel(),
        route_intern: Optional[dict] = None,
    ) -> None:
        self.platform = platform
        self.sim = Simulator()
        self.net = FluidNetwork(self.sim, platform.topology, tcp=tcp,
                                route_intern=route_intern)
        self.config = config
        self.rng = RngRegistry(seed)
        self.stats = OverlayStats()
        #: Observed crash counts per node name — the reputation signal
        #: the failure-aware selection policy scores candidates by.
        #: Never reset between tasks: it is the overlay session's
        #: long-memory reputation store, so the failure-aware policy
        #: separates from proximity on the first selection of a later
        #: task (Dubey & Tokekar 2012).
        self.failure_history: Dict[str, int] = {}
        #: Every churn event armed on this overlay — scripted plans and
        #: the dispatch-time coordinator-targeted draws alike — so
        #: failure metrics see injections armed after deployment.
        self.armed_churn: List = []
        #: Coordinator-targeted churn parameters (set by the scenario
        #: runner); the submitter draws and arms the schedule at
        #: dispatch time, once the coordinators exist.
        self.coordinator_churn = None
        #: Network-fault injector (:class:`repro.net.FaultInjector`),
        #: attached by the deployment when a fault plan is active.
        #: None keeps every send on the exact pre-fault code path.
        self.faults = None
        self.registry: Dict[str, NodeActor] = {}
        self.server = None
        self.trackers: List = []
        self.peers: List = []
        self._data_channels: Dict[tuple, object] = {}

    # -- registry -------------------------------------------------------------
    def register(self, actor: NodeActor) -> None:
        if actor.name in self.registry:
            raise ValueError(f"duplicate node name {actor.name!r}")
        self.registry[actor.name] = actor

    def actor(self, ref: NodeRef) -> Optional[NodeActor]:
        return self.registry.get(ref.name)

    # -- transport -------------------------------------------------------------
    def transport(self, src: NodeActor, dst: NodeRef, msg: Message) -> None:
        """Send a control message over the network; drop if dst is dead."""
        target = self.registry.get(dst.name)
        if target is None:
            raise KeyError(f"unknown destination {dst.name!r}")
        size = msg.size_bytes
        type_name = type(msg).__name__
        self.stats.message(type_name, size)

        def deliver() -> None:
            if target.alive:
                target.mailbox.put(msg)
            else:
                self.stats.count("dropped_to_dead")

        send_cb = deliver
        faults = self.faults
        if faults is not None:
            # fixed draw order (partition → loss → jitter → dup), so
            # the same spec always injects the same fault schedule
            if faults.blocked(src.host, target.host) or faults.drop():
                return
            extra = faults.delay()
            if extra > 0.0:
                def send_cb(_extra=extra):
                    self.sim.call_later(_extra, deliver)
            if faults.duplicate():
                # the second copy takes its own trip over the network
                self.net.send(src.host, target.host, size, tag=type_name,
                              callback=send_cb)
        self.net.send(src.host, target.host, size, tag=type_name,
                      callback=send_cb)

    # -- factories ---------------------------------------------------------------
    def create_server(self, host: Host, ip: str | IPv4, name: str = "server"):
        from .server import Server

        self.server = Server(self, name, _ip(ip), host)
        return self.server

    def create_tracker(self, host: Host, ip: str | IPv4, name: Optional[str] = None):
        from .tracker import Tracker

        name = name or f"tracker-{len(self.trackers)}"
        tracker = Tracker(self, name, _ip(ip), host)
        self.trackers.append(tracker)
        return tracker

    def create_peer(self, host: Host, ip: str | IPv4, name: Optional[str] = None,
                    resources: Optional[dict] = None):
        from .peer import Peer

        name = name or f"peer-{len(self.peers)}"
        peer = Peer(self, name, _ip(ip), host, resources=resources or {})
        self.peers.append(peer)
        return peer

    # -- bootstrap ------------------------------------------------------------------
    def bootstrap_core(self) -> None:
        """Wire the administrator-deployed core: server knows all core
        trackers; each core tracker gets its line neighbours and starts."""
        if self.server is None:
            raise RuntimeError("create the server before bootstrap_core()")
        core = sorted(self.trackers, key=lambda t: int(t.ip))
        self.server.seed_trackers([t.ref for t in core])
        half = self.config.neighbor_set_size // 2
        for i, tracker in enumerate(core):
            below = [t.ref for t in core[max(0, i - half):i]]
            above = [t.ref for t in core[i + 1:i + 1 + half]]
            tracker.seed_neighbors(below + above)
        self.server.start()
        for tracker in core:
            tracker.start()

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def run_until(self, waitable, limit: float = 1e6):
        return self.sim.run_until_triggered(waitable, limit=limit)

    @property
    def now(self) -> float:
        return self.sim.now

    def live_trackers(self) -> List:
        return [t for t in self.trackers if t.alive]

    # -- data plane ---------------------------------------------------------------
    def data_channel(self, peer: NodeActor, neighbor: NodeRef, scheme):
        """P2PSAP channel between two peers (cached per pair+scheme)."""
        from ..p2psap import Channel
        from .computation import channel_context_for

        key = (frozenset((peer.name, neighbor.name)), scheme)
        channel = self._data_channels.get(key)
        if channel is None:
            other = self.registry[neighbor.name]
            context = channel_context_for(peer, other, scheme)
            channel = Channel(self.sim, self.net, peer.host, other.host,
                              context, faults=self.faults)
            self._data_channels[key] = channel
        return channel


def _ip(value: str | IPv4) -> IPv4:
    return value if isinstance(value, IPv4) else IPv4.parse(value)
