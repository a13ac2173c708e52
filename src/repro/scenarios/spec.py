"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, hashable description of one
evaluation point: *what platform*, *what workload*, *which protocol
knobs*, *what churn*, *how many peers*, *which seed*.  Everything the
runner needs is in the spec, nothing is hidden in ambient state — so a
spec can be pickled to a worker process, hashed into a cache key, and
re-run years later with identical results.

The stable hash (:meth:`ScenarioSpec.spec_hash`) is a SHA-256 over the
canonical JSON form of every field **except** the display name, so two
scenarios that differ only in how they are labelled share one cache
entry.

Usage::

    from repro.scenarios import ScenarioSpec
    from repro.scenarios.spec import ChurnProfile, PlatformPlan

    spec = ScenarioSpec(
        name="churny", kind="reference",
        platform=PlatformPlan(kind="lan", n_hosts=64),
        n_peers=8, deploy_peers=16, spares=4,
        churn_profile=ChurnProfile(rate=0.2, horizon=8.0),
    )
    spec.spec_hash()                          # stable cache key
    spec.with_override("churn_profile.rate", 0.5)   # grid expansion

Every field is plain data: ``spec.to_dict()`` round-trips through JSON
and :meth:`ScenarioSpec.from_dict`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Mapping, Tuple

from .. import __version__ as _ENGINE_VERSION

#: Bump when the meaning of a field (or the result payload) changes
#: within one release; it salts the spec hash together with the
#: package version, so both schema edits and releases that change
#: simulation behaviour invalidate stale on-disk cache entries.
#: 2: tcp / timers / churn_profile / time_limit spec fields; replay
#: hot-path rework (ulp-level rate changes possible).
#: 3: churn recovery subsystem — churn_profile.{rejoin_rate,
#: rejoin_delay, tracker_churn_rate}, selection_policy, and the
#: recovery metrics (redispatched_subtasks, rejoined_peers) in every
#: reference result payload.
#: 4: coordinator recovery — churn_profile.coordinator_churn_rate
#: (dispatch-time Poisson crashes over the appointed coordinators),
#: the recovery.election toggle (stand-in election), and the
#: election metrics (coordinator_crashes, elections, handoff_latency)
#: in every reference result payload.
#: 5: prediction-guided scheduling — selection_policy gains
#: "predicted"/"oracle", the prediction_error plan (seeded
#: noise/flip/stale corruption of predicted-policy scores),
#: failure_history seeding of the reputation store, and reference
#: compute bursts now scale with heterogeneous node clocks
#: (reference_speed pricing; homogeneous dynamics are bit-identical).
#: 6: network-fault injection — the fault_plan axis (seeded
#: per-message loss/duplication/jitter draws plus scheduled
#: zone-level partitions), the reliability hardening it enables
#: (acked control messages with dedup + bounded retry), and the
#: fault counters (messages_lost, messages_duplicated,
#: messages_delayed, partition_blocked, reliable_retries,
#: duplicate_deliveries) in reference result payloads.  An inactive
#: fault_plan keeps dynamics bit-identical to v5.
SCHEMA_VERSION = 6

PLATFORM_KINDS = ("cluster", "lan", "xdsl", "multisite")
SCENARIO_KINDS = ("reference", "predict", "deploy")
HOST_POLICIES = ("pack", "spread", "fastest", "slowest")
APPS = ("obstacle", "heat")
SCHEMES = ("sync", "async")
ALLOCATIONS = ("hierarchical", "flat")
GROUPINGS = ("proximity", "random")
# mirror of repro.p2pdc.overlay.SELECTION_POLICIES (this module stays
# import-light for pool workers; equality is pinned by the tests)
SELECTION_POLICIES = ("proximity", "random", "failure_aware",
                      "predicted", "oracle")
# mirror of repro.p2pdc.prediction.PREDICTION_ERROR_KINDS (same
# discipline; equality pinned by tests/test_predicted_policy.py)
PREDICTION_ERROR_KINDS = ("noise", "flip", "stale")


def _check(value: str, allowed: Tuple[str, ...], what: str) -> None:
    if value not in allowed:
        raise ValueError(f"{what} must be one of {allowed}, got {value!r}")


def _check_ints(plan: Any) -> None:
    """Reject a non-``int`` (a float, a bool) in every ``int``-annotated
    field of ``plan``: ``2.0`` or ``True`` would run like ``2`` or ``1``
    but hash apart, giving one simulation two cache entries."""
    for f in fields(plan):
        value = getattr(plan, f.name)
        if f.type in ("int", int) and type(value) is not int:
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class PlatformPlan:
    """Which simulated platform to build.

    ``cluster``/``lan`` honour ``n_hosts``; ``multisite`` honours
    ``n_sites`` × ``peers_per_site``; ``xdsl`` is the paper's fixed
    1024-node Daisy topology.  A positive ``speed_min``/``speed_max``
    range makes node clocks heterogeneous (drawn from the seeded
    ``hetero-speeds`` stream, relative to the 3 GHz reference).
    """

    kind: str = "cluster"
    n_hosts: int = 33
    n_sites: int = 4
    peers_per_site: int = 8
    speed_min: float = 0.0
    speed_max: float = 0.0
    hetero_seed: int = 2011

    def __post_init__(self) -> None:
        _check_ints(self)
        _check(self.kind, PLATFORM_KINDS, "platform kind")
        if (self.speed_min > 0) != (self.speed_max > 0):
            raise ValueError("set both speed_min and speed_max, or neither")
        if self.speed_min > self.speed_max:
            raise ValueError("speed_min must be <= speed_max")

    @property
    def heterogeneous(self) -> bool:
        """Whether node speeds are drawn from a range."""
        return self.speed_min > 0.0


@dataclass(frozen=True)
class WorkloadPlan:
    """Which application instance the peers execute.

    ``app`` selects the mini-C source (obstacle problem via P2PSAP, or
    the MPI-flavoured heat stepper); ``n``/``nit`` the target instance;
    ``level`` the GCC optimization level priced into the traces.
    """

    app: str = "obstacle"
    n: int = 1024
    nit: int = 400
    check_every: int = 10
    level: str = "O0"
    noise_frac: float = 0.003
    tol: float = 0.0

    def __post_init__(self) -> None:
        _check_ints(self)
        _check(self.app, APPS, "workload app")
        if self.n < 1 or self.nit < 1:
            raise ValueError("workload needs n >= 1 and nit >= 1")


@dataclass(frozen=True)
class ProtocolPlan:
    """P2PDC / P2PSAP protocol knobs for the reference execution."""

    scheme: str = "sync"
    allocation: str = "hierarchical"
    grouping: str = "proximity"
    cmax: int = 32

    def __post_init__(self) -> None:
        _check_ints(self)
        _check(self.scheme, SCHEMES, "scheme")
        _check(self.allocation, ALLOCATIONS, "allocation")
        _check(self.grouping, GROUPINGS, "grouping")
        if self.cmax < 1:
            raise ValueError("cmax must be >= 1")


@dataclass(frozen=True)
class TcpPlan:
    """Fluid-TCP model parameters priced into every simulated transfer.

    ``bandwidth_factor`` scales link capacity for protocol overhead
    (SimGrid uses 0.92 for TCP); ``window`` caps a flow's rate at
    ``window / (2 · route latency)``.  Making them spec fields turns
    protocol-sensitivity studies (window vs xDSL latency, efficiency
    sweeps) into ordinary grids.
    """

    bandwidth_factor: float = 0.92
    window: float = 4194304.0

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if self.window <= 0:
            raise ValueError("tcp window must be > 0")


@dataclass(frozen=True)
class TimerPlan:
    """Overlay protocol timer constants (defaults are the paper's).

    These drive the failure-detection latency the churn scenarios
    measure: a tracker drops a silent peer after ``peer_expiry``, a
    peer declares its tracker dead after ``update_ack_timeout``, and
    reservations give up after ``reserve_timeout``.
    """

    state_update_interval: float = 30.0
    peer_expiry: float = 75.0
    update_ack_timeout: float = 10.0
    reserve_timeout: float = 15.0

    def __post_init__(self) -> None:
        for name in ("state_update_interval", "peer_expiry",
                     "update_ack_timeout", "reserve_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.peer_expiry <= self.state_update_interval:
            raise ValueError(
                "peer_expiry must exceed state_update_interval "
                "(a live peer must be able to refresh in time)"
            )


@dataclass(frozen=True)
class ChurnProfile:
    """Poisson peer-failure injection (§III-D robustness grids).

    ``rate`` is the expected number of peer crashes per simulated
    second across the deployed population; failure instants are drawn
    from the seeded exponential stream in ``[start, start + horizon)``
    and victims uniformly from the not-yet-crashed peers, so the same
    spec always injects the same schedule.  ``rate == 0`` disables
    injection (the default — baseline grids stay churn-free).

    The recovery side: ``rejoin_rate > 0`` enables the churn recovery
    subsystem — every crashed peer rejoins after a downtime of
    ``rejoin_delay`` plus an exponential draw at ``rejoin_rate`` (its
    own seed stream, so sweeping it never changes who crashes when),
    coordinators monitor their computing members, and a dead member's
    subtask is re-dispatched to a spare or rejoined peer.  At
    ``rejoin_rate == 0`` the subsystem is off and the protocol behaves
    exactly as before.  ``tracker_churn_rate`` adds a Poisson crash
    schedule over the trackers (line repair + peer failover exercise).

    ``coordinator_churn_rate`` targets the *coordinators*: the
    schedule is drawn at dispatch time over the appointed coordinator
    names (they only exist once allocation picks them), with the same
    ``start``/``horizon``/``max_failures`` window relative to the
    dispatch instant.  Without ``recovery.election`` a coordinator
    crash mid-computation kills its whole group; with election the
    surviving members hand the duty to a stand-in.
    """

    rate: float = 0.0
    start: float = 0.0
    horizon: float = 8.0
    max_failures: int = 0  # 0 → bounded only by the population
    rejoin_rate: float = 0.0    # 0 → crashed peers stay down, no recovery
    rejoin_delay: float = 0.0   # minimum downtime before a rejoin
    tracker_churn_rate: float = 0.0  # Poisson tracker crashes
    coordinator_churn_rate: float = 0.0  # Poisson coordinator crashes

    def __post_init__(self) -> None:
        _check_ints(self)
        for name in ("rate", "start", "max_failures", "rejoin_rate",
                     "rejoin_delay", "tracker_churn_rate",
                     "coordinator_churn_rate"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"churn {name} must be >= 0, got {getattr(self, name)!r}"
                )
        if self.horizon <= 0:
            raise ValueError(
                f"churn horizon must be > 0, got {self.horizon!r}"
            )


@dataclass(frozen=True)
class RecoveryPlan:
    """Recovery-subsystem toggles beyond the rejoin axis.

    ``election`` enables coordinator recovery: members monitor their
    coordinator (CoordPing/Pong), elect a deterministic stand-in from
    the survivors when it goes silent, and the stand-in rebuilds the
    duty from replicated checkpoints and re-registers with submitter
    and tracker.  It rides on the recovery subsystem (compute
    monitoring + re-dispatch), so a spec with election on and
    ``churn_profile.rejoin_rate == 0`` is rejected at parse time (and
    again at deploy time by ``OverlayConfig``)."""

    election: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.election, bool):
            raise ValueError(
                f"recovery.election must be a bool, got {self.election!r}"
            )


@dataclass(frozen=True)
class PredictionErrorPlan:
    """Seeded corruption of the ``predicted`` policy's scores.

    The ablation axis of the prediction-grid: ``level == 0`` is the
    uncorrupted predictor (the default — makespans priced off the warm
    dPerf trace caches, exact at the reference clock); ``level > 0``
    selects a degradation of strength ``level`` under one of three
    models:

    - ``noise``: multiplicative log-normal noise — each candidate
      group's score is scaled by ``exp(N(0, level))``;
    - ``flip``: adversarial sign flips — each candidate's score is
      negated with probability ``min(1, level)``, so at 1.0 the
      ranking is exactly inverted (the worst case the
      graceful-degradation bound is measured at);
    - ``stale``: stale-trace decay — every declared speed is pulled
      toward the reference clock by weight ``min(1, level)``, so at
      1.0 all nodes look identical and the predictor degenerates to
      tie-break order.

    Draws are seeded per candidate (``derive_seed`` over the member
    names), so scores are independent of evaluation order and the same
    spec always corrupts the same way.  Only valid with
    ``selection_policy="predicted"`` — rejected here at parse time and
    again at deploy time by ``OverlayConfig`` (the same two-layer
    guard as election-without-rejoin).
    """

    kind: str = "noise"
    level: float = 0.0
    seed: int = 2011

    def __post_init__(self) -> None:
        _check_ints(self)
        _check(self.kind, PREDICTION_ERROR_KINDS, "prediction_error kind")
        if self.level < 0:
            raise ValueError(
                f"prediction_error level must be >= 0 (0 disables "
                f"corruption), got {self.level!r}"
            )

    @property
    def active(self) -> bool:
        """Whether any corruption is configured."""
        return self.level > 0


@dataclass(frozen=True)
class NetworkFaultPlan:
    """Seeded network-fault injection (the lossy-network axis).

    Per-message faults are Bernoulli draws from derived seed streams
    (``fault-loss``, ``fault-dup``, ``fault-jitter`` off ``seed`` —
    its own field, not ``ScenarioSpec.seed``, so sweeping fault rates
    never perturbs churn/rejoin/selection draws):

    - ``loss``: probability a control/data message is silently
      dropped in flight;
    - ``duplication``: probability a message is delivered twice
      (the second copy takes its own trip over the network);
    - ``jitter``: probability a message is delayed by an extra
      ``jitter_delay``-mean exponential draw on delivery.

    ``partition_start``/``partition_duration`` schedule one
    deterministic zone-level partition window: while it is open,
    messages between hosts of different zone *groups* are blocked
    (and counted), intra-group traffic flows normally.
    ``partition_zones`` lists the groups as tuples of zone indices —
    empty (the default) isolates every zone from every other.
    ``partition_duration == 0`` disables the partition.

    ``retries`` is the hardening toggle: with it on (the default)
    critical control messages get monotone ids, receiver-side dedup
    and ack/retry with bounded exponential backoff, so loss degrades
    makespan instead of deadlocking; with it off the grid measures
    the *unhardened* protocol under the same fault schedule (the
    ablation the partition-grid's P(complete) contrast is built on).
    """

    loss: float = 0.0
    duplication: float = 0.0
    jitter: float = 0.0
    jitter_delay: float = 0.05
    partition_start: float = 0.0
    partition_duration: float = 0.0
    partition_zones: Tuple[Tuple[int, ...], ...] = ()
    retries: bool = True
    seed: int = 2011

    def __post_init__(self) -> None:
        _check_ints(self)
        for name in ("loss", "duplication", "jitter"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"fault_plan.{name} must be a probability in [0, 1], "
                    f"got {p!r}"
                )
        if self.jitter_delay <= 0:
            raise ValueError(
                f"fault_plan.jitter_delay must be > 0, "
                f"got {self.jitter_delay!r}"
            )
        if self.partition_start < 0:
            raise ValueError(
                f"fault_plan.partition_start must be >= 0, "
                f"got {self.partition_start!r}"
            )
        if self.partition_duration < 0:
            raise ValueError(
                f"fault_plan.partition_duration must be >= 0 "
                f"(0 disables the partition), "
                f"got {self.partition_duration!r}"
            )
        if not isinstance(self.retries, bool):
            raise ValueError(
                f"fault_plan.retries must be a bool, got {self.retries!r}"
            )
        if self.partition_zones and self.partition_duration <= 0:
            raise ValueError(
                "fault_plan.partition_zones without a partition window: "
                "set partition_duration > 0, or drop the zone groups"
            )
        # canonical tuple-of-tuples form, so JSON round-trips (lists
        # of lists) hash and compare identically to native construction
        groups = tuple(
            tuple(int(z) for z in group) for group in self.partition_zones
        )
        if any(z < 0 for group in groups for z in group):
            raise ValueError("fault_plan.partition_zones must be >= 0")
        object.__setattr__(self, "partition_zones", groups)

    @property
    def active(self) -> bool:
        """Whether any fault injection is configured."""
        return (self.loss > 0 or self.duplication > 0 or self.jitter > 0
                or self.partition_duration > 0)


@dataclass(frozen=True)
class ChurnEventSpec:
    """One failure-injection event at an absolute simulated time."""

    time: float
    kind: str  # "peer" | "tracker" | "server-down" | "server-up"
    target: str = ""


#: Every sub-plan field of a :class:`ScenarioSpec` and its plan class:
#: the one table a spec payload is parsed by.
SUB_PLANS: Dict[str, type] = {
    "platform": PlatformPlan, "workload": WorkloadPlan,
    "protocol": ProtocolPlan, "tcp": TcpPlan, "timers": TimerPlan,
    "churn_profile": ChurnProfile, "recovery": RecoveryPlan,
    "fault_plan": NetworkFaultPlan, "prediction_error": PredictionErrorPlan,
}


def parse_plan(name: str, payload: Any) -> Any:
    """Build sub-plan ``name`` from its plain-data payload; a
    non-object payload or an unknown plan field raises ``ValueError``
    (not ``TypeError``), so wire parsers report it as a bad request."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"field {name!r} must be an object")
    try:
        return SUB_PLANS[name](**payload)
    except TypeError as exc:
        raise ValueError(f"bad {name!r} payload: {exc}") from None


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified evaluation point.

    ``kind`` selects the runner path: ``reference`` executes the full
    P2PDC protocol simulation, ``predict`` replays dPerf traces on the
    platform, ``deploy`` only builds and settles the overlay (for
    overlay-scale scenarios).  ``deploy_peers`` lets a scenario deploy
    fewer (or more) peers than the task requests; 0 means "same as
    n_peers".  ``n_zones`` 0 means the stage-1 auto rule.

    ``churn`` holds scripted failure events at fixed instants;
    ``churn_profile`` injects seeded Poisson peer failures on top (the
    churn-rate grid axis) and, with ``rejoin_rate > 0``, enables the
    churn recovery subsystem (peer rejoin + subtask re-dispatch).
    ``selection_policy`` picks how the submitter orders peer
    candidates — initial choice and re-dispatch replacements alike;
    the prediction-guided pair (``predicted``/``oracle``) ranks whole
    candidate groups by predicted (resp. true) makespan, with
    ``prediction_error`` as the corruption ablation axis and
    ``failure_history`` seeding the reputation store across runs.
    ``time_limit`` caps the simulated seconds a reference computation
    may take before it counts as not completed (0 → engine default);
    churn grids set it so a wave of failures produces a bounded "did
    not complete" data point instead of an unbounded simulation.
    """

    name: str
    kind: str = "predict"
    platform: PlatformPlan = PlatformPlan()
    workload: WorkloadPlan = WorkloadPlan()
    protocol: ProtocolPlan = ProtocolPlan()
    tcp: TcpPlan = TcpPlan()
    timers: TimerPlan = TimerPlan()
    churn: Tuple[ChurnEventSpec, ...] = ()
    churn_profile: ChurnProfile = ChurnProfile()
    recovery: RecoveryPlan = RecoveryPlan()
    #: Seeded network-fault injection (loss/duplication/jitter draws
    #: plus a scheduled zone partition); inactive by default, and an
    #: inactive plan keeps dynamics bit-identical to SCHEMA_VERSION 5.
    fault_plan: NetworkFaultPlan = NetworkFaultPlan()
    n_peers: int = 4
    deploy_peers: int = 0
    n_zones: int = 0
    spares: int = 0
    host_policy: str = "pack"
    selection_policy: str = "proximity"
    #: Corruption of the predicted policy's scores (the ablation
    #: axis); only valid with ``selection_policy="predicted"``.
    prediction_error: PredictionErrorPlan = PredictionErrorPlan()
    #: Failure-history seeding: (peer name, observed crash count)
    #: pairs loaded into the overlay's reputation store before the
    #: first selection, so the store rides the spec across runs and a
    #: single-task scenario exercises informed initial selection.
    #: Names that match no deployed peer are kept but never bid.
    failure_history: Tuple[Tuple[str, int], ...] = ()
    seed: int = 2011
    time_limit: float = 0.0

    def __post_init__(self) -> None:
        _check_ints(self)
        _check(self.kind, SCENARIO_KINDS, "scenario kind")
        _check(self.host_policy, HOST_POLICIES, "host policy")
        _check(self.selection_policy, SELECTION_POLICIES, "selection policy")
        if self.n_peers < 1:
            raise ValueError("n_peers must be >= 1")
        if self.time_limit < 0:
            raise ValueError("time_limit must be >= 0 (0 = default)")
        if self.recovery.election and self.churn_profile.rejoin_rate <= 0:
            raise ValueError(
                "recovery.election requires the recovery subsystem: "
                "set churn_profile.rejoin_rate > 0 (a stand-in "
                "coordinator re-dispatches lost subtasks through it)"
            )
        if (self.prediction_error.active
                and self.selection_policy != "predicted"):
            raise ValueError(
                "prediction_error requires selection_policy='predicted': "
                "no other policy consumes makespan predictions, so the "
                "configured corruption would silently do nothing (set "
                "the policy, or drop the error level to 0)"
            )
        history = tuple(
            (str(name), int(count)) for name, count in self.failure_history
        )
        if any(count < 0 for _name, count in history):
            raise ValueError("failure_history counts must be >= 0")
        # canonical tuple forms, so JSON round-trips (lists, lists of
        # lists) hash and compare identically to native construction
        object.__setattr__(self, "churn", tuple(self.churn))
        object.__setattr__(self, "failure_history", history)

    @property
    def has_churn(self) -> bool:
        """Whether any failure injection is configured."""
        return (bool(self.churn) or self.churn_profile.rate > 0
                or self.churn_profile.tracker_churn_rate > 0
                or self.churn_profile.coordinator_churn_rate > 0)

    @property
    def has_faults(self) -> bool:
        """Whether any network-fault injection is configured."""
        return self.fault_plan.active

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-safe, round-trips via from_dict)."""
        d = asdict(self)
        d["churn"] = [asdict(e) for e in self.churn]
        d["failure_history"] = [
            [name, count] for name, count in self.failure_history
        ]
        # lists, not tuples: the dict must equal its own JSON round-trip
        # (cache payload comparison is plain dict equality)
        d["fault_plan"]["partition_zones"] = [
            list(group) for group in self.fault_plan.partition_zones
        ]
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from its to_dict() form: the one strict
        parser of spec payloads (fleet tasks, pool runs, serve queries).

        Absent sub-plans default, so payloads older than a sub-plan
        (pre-v5 ``prediction_error``, pre-v6 ``fault_plan``) parse;
        unknown fields and malformed sub-plans raise ``ValueError``.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"scenario must be an object, got {type(data).__name__}"
            )
        d = dict(data)
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(
                f"unknown scenario field(s): {', '.join(unknown)}"
            )
        for name in SUB_PLANS:
            if name in d:
                d[name] = parse_plan(name, d[name])
        if "churn" in d:
            if not isinstance(d["churn"], (list, tuple)):
                raise ValueError("field 'churn' must be an array")
            try:
                d["churn"] = tuple(ChurnEventSpec(**e) for e in d["churn"])
            except TypeError as exc:
                raise ValueError(f"bad 'churn' payload: {exc}") from None
        try:
            return cls(**d)
        except TypeError as exc:
            raise ValueError(f"bad scenario payload: {exc}") from None

    # -- hashing -----------------------------------------------------------
    def hash_payload(self) -> Dict[str, Any]:
        """Everything that defines the result (name excluded); a fresh
        dict on every call."""
        d = self.to_dict()
        del d["name"]
        d["schema"] = SCHEMA_VERSION
        d["engine"] = _ENGINE_VERSION
        return d

    def _shared_payload(self) -> Dict[str, Any]:
        """:meth:`hash_payload`, built once per instance and shared by
        :meth:`spec_hash` and the result cache's entry check and write.
        Those only read it; every other caller takes a fresh copy from
        :meth:`hash_payload`."""
        cached = self.__dict__.get("_payload")
        if cached is None:
            cached = self.hash_payload()
            object.__setattr__(self, "_payload", cached)
        return cached

    def spec_hash(self) -> str:
        """Stable 16-hex-digit content hash of this spec.

        Memoized per instance (the spec is frozen, so the hash cannot
        change): sweep bookkeeping — cache lookups, shard partitioning,
        incremental manifests — asks for it repeatedly, and the
        ``asdict`` walk underneath is not free.
        """
        cached = self.__dict__.get("_spec_hash")
        if cached is None:
            blob = json.dumps(self._shared_payload(), sort_keys=True,
                              separators=(",", ":"))
            cached = hashlib.sha256(blob.encode()).hexdigest()[:16]
            object.__setattr__(self, "_spec_hash", cached)
        return cached

    # -- grid expansion ----------------------------------------------------
    def with_override(self, path: str, value: Any) -> "ScenarioSpec":
        """A copy with one (possibly dotted) field replaced.

        ``spec.with_override("workload.level", "O3")`` rebuilds the
        nested frozen dataclass; ``spec.with_override("n_peers", 8)``
        replaces a top-level field.
        """
        head, _, rest = path.partition(".")
        names = {f.name for f in fields(self)}
        if head not in names:
            raise KeyError(f"unknown scenario field {head!r}")
        if not rest:
            return replace(self, **{head: value})
        sub = getattr(self, head)
        sub_names = {f.name for f in fields(sub)}
        if rest not in sub_names:
            raise KeyError(f"unknown field {rest!r} in {head}")
        return replace(self, **{head: replace(sub, **{rest: value})})
