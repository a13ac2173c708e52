"""Scenario execution: one pure runner, a two-level cache, a sweep.

``run_scenario`` maps a :class:`ScenarioSpec` to a
:class:`ScenarioResult` with no ambient inputs — the same spec always
produces byte-identical results, which is what makes the two cache
levels sound:

* an in-process memo (a bounded LRU keyed by spec hash) held by a
  :class:`RunContext` — every caller that names no context shares the
  process default, so the experiment runners and the test suite ride
  on it;
* an optional on-disk JSON cache (one file per spec hash) that
  survives processes, so a repeated sweep is served without
  recomputing anything.

:func:`resolve` is the one path to a result (memo → result cache →
simulation) for sweeps, fleets and serve; its simulation step,
:func:`simulate`, keeps the dPerf trace cache at ``<cache root>/traces``.

``SweepRunner`` expands parameter grids and executes cache misses
through a ``ProcessPoolExecutor``; because the runner is pure, the
parallel results equal the serial ones.

Usage::

    from repro.scenarios import SweepRunner, get_scenario

    runner = SweepRunner(cache_dir=".scenario-cache", max_workers=4)
    results = runner.run(get_scenario("churn-grid").points())
    [r.metrics["completed"] for r in results]   # completion per point
    runner.cache_ratio                          # how much came cached

    # or a custom grid over any spec fields (dotted paths):
    from repro.scenarios import ScenarioSpec, expand_grid
    specs = expand_grid(ScenarioSpec(name="probe"),
                        {"n_peers": (2, 4), "tcp.window": (65536, 4194304)})
    runner.run(specs)

Reference-kind results carry ``metrics["completed"]`` plus the churn
and recovery counters (``churn_failures``, ``rejoined_peers``,
``redispatched_subtasks``); under failure injection a non-completion
is ``ok`` — the datum, not an error.
"""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path
from threading import Lock
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .spec import ScenarioSpec

_LOG = logging.getLogger("repro.scenarios.cache")


class LruMemo:
    """A lock-guarded LRU map, the one bounded in-memory memo type:
    ``get`` refreshes an entry, ``put`` drops the least recently used
    entries past ``capacity`` and returns how many it dropped."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = Lock()

    def get(self, key: Any) -> Any:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> int:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            evicted = max(0, len(self._data) - self.capacity)
            for _ in range(evicted):
                self._data.popitem(last=False)
            return evicted

    def get_or_put(self, key: Any, make: Any) -> Any:
        """``get(key)``, or ``make()`` stored under ``key`` on a miss."""
        value = self.get(key)
        if value is None:
            value = make()
            self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


class RunContext:
    """Every in-process cache of scenario execution, in one object.

    The scenario memo (spec hash → result and the cache roots known to
    hold it), the deployment templates, and the dPerf memos behind
    :mod:`~repro.scenarios.workloads` (predictor per app, calibration
    run per (app, nprocs), scaled traces per recipe, residual curve
    per app) — each a bounded :class:`LruMemo`, because a daemon or
    fleet worker lives long.
    Each trace directory a caller names gets one trace
    :class:`JsonCache`, opened on first use.

    Two contexts share no entry.  :func:`lookup`, :func:`resolve`,
    :func:`run_scenario`, the :mod:`~repro.scenarios.workloads` stages
    and the serve ``QueryEngine`` take one and default to
    :data:`DEFAULT_CONTEXT`, the one process default, so callers that
    name none (sweeps, fleet workers, the experiment runners) share
    their warm state, and fork-started pool workers inherit it.
    """

    def __init__(self) -> None:
        self.memo = LruMemo(4096)
        self.templates = LruMemo(32)
        self.predictors = LruMemo(4)
        self.calibrations = LruMemo(32)
        self.traces = LruMemo(256)
        self.residuals = LruMemo(8)
        self.trace_caches = LruMemo(16)

    def trace_cache(self, root: Optional[Path]) -> Optional[JsonCache]:
        """The trace cache at ``root`` (None: no disk trace cache)."""
        if root is None:
            return None
        return self.trace_caches.get_or_put(Path(root),
                                            lambda: JsonCache(root))


#: The process default context (see :class:`RunContext`).
DEFAULT_CONTEXT = RunContext()


@dataclass
class ScenarioResult:
    """Outcome of one scenario execution.

    ``t`` is the headline seconds for the scenario kind (compute
    window for ``reference``, ``t_predicted`` for ``predict``, settle
    time for ``deploy``); ``metrics`` carries secondary numbers.
    """

    name: str
    spec_hash: str
    kind: str
    t: float
    ok: bool = True
    reason: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a result from its to_dict() form."""
        return cls(**dict(data))

    def canonical_json(self) -> str:
        """Deterministic serialization (the byte-identity contract)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


# ---------------------------------------------------------------------------
# the pure runner
# ---------------------------------------------------------------------------

def _auto_zones(n_peers: int) -> int:
    return max(1, min(4, n_peers // 8))


def run_scenario(spec: ScenarioSpec, ctx: RunContext = DEFAULT_CONTEXT,
                 trace_dir: Optional[Path] = None) -> ScenarioResult:
    """Execute one scenario (no result caching — see :func:`run_cached`)
    with ``ctx``'s in-process caches and dPerf traces cached under
    ``trace_dir`` (None: in memory only)."""
    if spec.kind == "predict":
        return _run_predict(spec, ctx, trace_dir)
    if spec.kind == "reference":
        return _run_reference(spec, ctx, trace_dir)
    if spec.kind == "deploy":
        return _run_deploy(spec, ctx)
    raise ValueError(f"unknown scenario kind {spec.kind!r}")


def _tcp_model(spec: ScenarioSpec):
    from ..net import TcpModel

    return TcpModel(bandwidth_factor=spec.tcp.bandwidth_factor,
                    window=spec.tcp.window)


# ---------------------------------------------------------------------------
# the deployment template cache
# ---------------------------------------------------------------------------

@dataclass
class _DeployTemplate:
    """Everything about a deployment that is pure in the spec's
    platform/topology sub-space: the built platform, the shared TCP
    model, the resolved peer/zone counts, the zone layout, and a
    per-(platform, tcp) route-intern store.  Grid points that differ
    only in churn/policy/seed axes hit one template and skip
    re-deriving platforms, routes and zone groupings."""

    platform: Any
    tcp: Any
    deploy_n: int
    n_zones: int
    plan: Any
    route_intern: Dict[Any, Any] = field(default_factory=dict)


def _deploy_template(spec: ScenarioSpec,
                     ctx: RunContext = DEFAULT_CONTEXT) -> _DeployTemplate:
    """``ctx``'s template for ``spec``'s deployment shape, keyed on the
    frozen sub-plans that define it."""
    from ..p2pdc import plan_zones
    from . import platforms

    # the single owner of the shape derivation: _deploy reads these
    # back off the template, so key and deployment cannot diverge
    deploy_n = spec.deploy_peers or spec.n_peers
    n_zones = spec.n_zones or _auto_zones(deploy_n)

    def build() -> _DeployTemplate:
        platform = platforms.build_platform(spec.platform)
        return _DeployTemplate(
            platform=platform,
            tcp=_tcp_model(spec),
            deploy_n=deploy_n,
            n_zones=n_zones,
            plan=plan_zones(platform, deploy_n, n_zones),
        )

    return ctx.templates.get_or_put(
        (spec.platform, deploy_n, n_zones, spec.tcp), build)


def _run_predict(spec: ScenarioSpec, ctx: RunContext,
                 trace_dir: Optional[Path]) -> ScenarioResult:
    from . import platforms, workloads

    platform = platforms.build_platform(spec.platform)
    hosts = platforms.pick_hosts(platform, spec.n_peers, spec.host_policy)
    w = spec.workload
    traces = workloads.traces(w.app, spec.n_peers, w.level, w.n, w.nit,
                              ctx, trace_dir)
    prediction = workloads.predictor(w.app, ctx).predict(
        traces, platform, hosts=hosts, tcp=_tcp_model(spec)
    )
    replay = prediction.replay
    return ScenarioResult(
        name=spec.name, spec_hash=spec.spec_hash(), kind=spec.kind,
        t=prediction.t_predicted,
        metrics={
            "compute_max": max(replay.compute_time),
            "blocked_max": max(replay.blocked_time),
        },
    )


def _deploy(spec: ScenarioSpec, ctx: RunContext = DEFAULT_CONTEXT):
    from ..desim.rng import derive_seed
    from ..p2pdc import (
        ChurnEvent,
        ChurnPlan,
        CoordinatorChurn,
        OverlayConfig,
        PredictionError,
        deploy_overlay,
        poisson_peer_failures,
        rejoin_events,
    )
    template = _deploy_template(spec, ctx)
    deploy_n = template.deploy_n
    n_zones = template.n_zones
    t = spec.timers
    profile = spec.churn_profile
    config = OverlayConfig(
        cmax=spec.protocol.cmax,
        grouping=spec.protocol.grouping,
        selection_policy=spec.selection_policy,
        state_update_interval=t.state_update_interval,
        peer_expiry=t.peer_expiry,
        update_ack_timeout=t.update_ack_timeout,
        reserve_timeout=t.reserve_timeout,
        # rejoin_rate is the recovery axis: > 0 turns on coordinator
        # liveness monitoring and subtask re-dispatch; at 0 the
        # protocol runs exactly as before (SCHEMA_VERSION 2 dynamics)
        recovery=profile.rejoin_rate > 0,
        # election rides on recovery: with it off, v3 dynamics
        # reproduce bit for bit (no CoordPing, checkpoints, elections)
        election=spec.recovery.election,
        # the prediction-error ablation axis; its own seed field (not
        # derived from spec.seed) so sweeping corruption draws never
        # perturbs churn/selection streams
        prediction_error=PredictionError(
            kind=spec.prediction_error.kind,
            level=spec.prediction_error.level,
            seed=spec.prediction_error.seed,
        ),
        # the lossy-network hardening rides the fault axis: with no
        # active fault plan (or retries ablated off) every send stays
        # on the plain path — v5 dynamics bit for bit
        reliability=spec.fault_plan.active and spec.fault_plan.retries,
    )
    dep = deploy_overlay(
        template.platform, n_peers=deploy_n, n_zones=n_zones, config=config,
        seed=spec.seed, tcp=template.tcp, plan=template.plan,
        route_intern=template.route_intern,
    )
    plan = spec.fault_plan
    if plan.active:
        from ..net import FaultInjector

        # host name → zone index, from the same layout the deployment
        # realized (trackers are co-located on their zone's first peer
        # host; server and submitter share zone 0's first host)
        zone_of = {
            host.name: z
            for z, (_tname, _tip, zone_peers) in enumerate(template.plan.zones)
            for _pname, _pip, host in zone_peers
        }
        # the injector draws from plan.seed's derived streams, never
        # spec.seed: sweeping fault probabilities cannot perturb the
        # churn/rejoin/selection draws (and vice versa)
        dep.overlay.faults = FaultInjector(
            dep.sim,
            loss=plan.loss, duplication=plan.duplication,
            jitter=plan.jitter, jitter_delay=plan.jitter_delay,
            partition_start=plan.partition_start,
            partition_duration=plan.partition_duration,
            partition_zones=plan.partition_zones,
            zone_of=zone_of, seed=plan.seed,
        )
    if spec.failure_history:
        # failure-history seeding: the reputation store rides the spec
        # across runs, so a single-task scenario starts with informed
        # counts instead of a cold store; seeded before any selection
        # happens (the overlay has only settled at this point)
        dep.overlay.failure_history.update(
            {name: count for name, count in spec.failure_history}
        )
    if profile.coordinator_churn_rate > 0:
        # coordinators only exist once allocation appoints them: the
        # submitter draws and arms this schedule at dispatch time
        dep.overlay.coordinator_churn = CoordinatorChurn(
            rate=profile.coordinator_churn_rate,
            seed=derive_seed(spec.seed, "coordinator-churn"),
            start=profile.start,
            horizon=profile.horizon,
            max_failures=profile.max_failures,
        )
    events = [ChurnEvent(e.time, e.kind, e.target) for e in spec.churn]
    if profile.rate > 0:
        events.extend(poisson_peer_failures(
            profile.rate,
            [p.name for p in dep.peers],
            derive_seed(spec.seed, "churn"),
            start=profile.start,
            horizon=profile.horizon,
            max_failures=profile.max_failures,
        ))
    if profile.tracker_churn_rate > 0:
        events.extend(poisson_peer_failures(
            profile.tracker_churn_rate,
            [t.name for t in dep.trackers],
            derive_seed(spec.seed, "tracker-churn"),
            start=profile.start,
            horizon=profile.horizon,
            kind="tracker",
        ))
    if profile.rejoin_rate > 0 and events:
        # a separate seed stream: sweeping the rejoin rate never
        # perturbs the crash schedule it recovers from
        events.extend(rejoin_events(
            [e for e in events if e.kind == "peer"],
            profile.rejoin_rate,
            derive_seed(spec.seed, "rejoin"),
            delay=profile.rejoin_delay,
        ))
    if events:
        dep.arm_churn(ChurnPlan(events=sorted(events, key=lambda e: e.time)))
    return dep


def _submit_reference(spec: ScenarioSpec, ctx: RunContext,
                      trace_dir: Optional[Path]):
    """Deploy the overlay and submit the workload; ``(dep, signal)``."""
    from ..p2pdc import TaskSpec
    from ..p2psap import Scheme
    from . import workloads

    dep = _deploy(spec, ctx)
    scheme = Scheme.ASYNC if spec.protocol.scheme == "async" else Scheme.SYNC
    workload = workloads.make_workload(spec.workload, spec.n_peers, scheme,
                                       ctx, trace_dir)
    task = TaskSpec(workload=workload, n_peers=spec.n_peers,
                    spares=spec.spares)
    if spec.time_limit > 0:
        task.task_timeout = spec.time_limit
    if spec.protocol.allocation == "flat":
        sig = dep.submitter.submit_flat(task)
    else:
        sig = dep.submitter.submit(task)
    return dep, sig


def execute_reference(spec: ScenarioSpec):
    """Run a reference scenario and return ``(deployment, outcome)``.

    The property-test harness uses this to assert protocol-level
    invariants (subtask conservation, rank uniqueness) that the
    aggregated :class:`ScenarioResult` cannot express; an engine-level
    ``RuntimeError`` propagates to the caller.
    """
    dep, sig = _submit_reference(spec, DEFAULT_CONTEXT, None)
    dep.overlay.run_until(sig, limit=1e7)
    return dep, sig.value


def _recovery_metrics(dep) -> Dict[str, float]:
    stats = dep.overlay.stats
    counters = stats.counters
    metrics = {
        "churn_failures": float(len(dep.crash_events)),
        "rejoined_peers": float(counters.get("peer_rejoins", 0)),
        "redispatched_subtasks": float(
            counters.get("redispatched_subtasks", 0)
        ),
        "coordinator_crashes": float(
            len([e for e in dep.crash_events if e.kind == "coordinator"])
        ),
        "elections": float(counters.get("coordinator_elections", 0)),
    }
    if counters.get("coordinator_elections"):
        # mean blackout a group saw between last coordinator contact
        # and its stand-in's claim.  Absent (not 0.0) when no election
        # ran, so `compare` aggregates over real hand-offs only — a
        # zero-fill would dilute the pool's headline latency.
        metrics["handoff_latency"] = stats.mean("handoff_latency")
    if counters.get("prediction_candidates"):
        # candidate groups scored by the prediction-guided policies;
        # absent (not 0.0) under the classic policies — the same
        # absent-when-idle contract as handoff_latency
        metrics["prediction_candidates"] = float(
            counters["prediction_candidates"]
        )
    if dep.overlay.faults is not None:
        # fault-injection telemetry: what the injector actually did,
        # plus the hardening's response.  Present exactly when a fault
        # plan is active (absent-when-idle, like handoff_latency).
        metrics.update(dep.overlay.faults.stats.as_metrics())
        metrics["reliable_retries"] = float(
            counters.get("reliable_retries", 0))
        metrics["reliable_abandoned"] = float(
            counters.get("reliable_abandoned", 0))
        metrics["duplicate_deliveries"] = float(
            counters.get("duplicate_deliveries", 0))
    return metrics


def _run_reference(spec: ScenarioSpec, ctx: RunContext,
                   trace_dir: Optional[Path]) -> ScenarioResult:
    dep, sig = _submit_reference(spec, ctx, trace_dir)

    def failed(reason: str, ok: bool, **extra: float) -> ScenarioResult:
        return ScenarioResult(
            name=spec.name, spec_hash=spec.spec_hash(), kind=spec.kind,
            t=0.0, ok=ok, reason=reason,
            metrics={"completed": 0.0, **_recovery_metrics(dep), **extra},
        )

    try:
        dep.overlay.run_until(sig, limit=1e7)
    except RuntimeError as exc:
        # engine-level failure (deadlock, event-limit blowup): a hard
        # error even under churn — never a completion-probability datum
        return failed(str(exc), ok=False)
    else:
        outcome = sig.value
        timings = outcome.timings
        if not outcome.ok:
            # Under failure injection (churn or network faults) a
            # protocol-level non-completion is the measured outcome
            # (completion probability), not an error.
            return failed(outcome.reason, ok=spec.has_churn or spec.has_faults,
                          sim_events=float(dep.sim.event_count))
        metrics = {
            "completed": 1.0,
            **_recovery_metrics(dep),
            "makespan": timings.total_time,
            "collection_time": timings.collection_time,
            "allocation_time": timings.allocation_time,
            "n_groups": float(len(outcome.groups)) if outcome.groups else 1.0,
            "sim_events": float(dep.sim.event_count),
        }
        return ScenarioResult(
            name=spec.name, spec_hash=spec.spec_hash(), kind=spec.kind,
            t=timings.completed_at - timings.compute_started_at,
            metrics=metrics,
        )
    finally:
        # every metric is read by now: free the world by refcount
        dep.overlay.close()


def _run_deploy(spec: ScenarioSpec, ctx: RunContext) -> ScenarioResult:
    dep = _deploy(spec, ctx)
    overlay = dep.overlay
    try:
        return ScenarioResult(
            name=spec.name, spec_hash=spec.spec_hash(), kind=spec.kind,
            t=overlay.now,
            metrics={
                "n_peers": float(len(dep.peers)),
                "n_trackers": float(len(dep.trackers)),
                "control_messages": float(overlay.stats.control_messages),
                "control_bytes": overlay.stats.control_bytes,
                "sim_events": float(overlay.sim.event_count),
            },
        )
    finally:
        overlay.close()


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def atomic_write_bytes(path: os.PathLike | str, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via tempfile + ``os.replace``.

    The one atomic-write primitive for every on-disk store in the
    sweep stack (results, manifests, traces): readers racing the
    write — concurrent shards sharing a cache directory, a
    ``compare`` during a sweep — see either the old file or the
    complete new one, never a truncated file.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: os.PathLike | str, text: str) -> None:
    """:func:`atomic_write_bytes` for str content."""
    atomic_write_bytes(path, text.encode())


def union_dir(src: os.PathLike | str, dst: os.PathLike | str,
              pattern: str) -> int:
    """Copy every ``pattern`` file of ``src`` that ``dst`` lacks.

    The one cache-union primitive: entries of every content-addressed
    store are keyed by a content hash, so identical names mean
    identical content — existing files are kept, new ones are copied
    atomically (a reader loading an entry mid-copy never sees a torn
    file).  A missing ``src`` is a no-op.  Returns the files copied.
    """
    src, dst = Path(src), Path(dst)
    if not src.is_dir():
        return 0
    dst.mkdir(parents=True, exist_ok=True)
    copied = 0
    for path in sorted(src.glob(pattern)):
        target = dst / path.name
        if not target.exists():
            atomic_write_bytes(target, path.read_bytes())
            copied += 1
    return copied


class JsonCache:
    """Content-addressed on-disk JSON store: one ``<hash>.json`` per
    entry.

    The shared substrate of every durable cache tier in the stack —
    scenario results here, dPerf traces in
    :mod:`~repro.scenarios.workloads`, SLO answers in ``repro.serve``
    — factored so each tier inherits the same contract: atomic writes
    (tempfile + ``os.replace``, so concurrent readers never see a
    truncated entry), torn-entry-reads-as-miss, and union-by-file-copy
    merging.
    The directory is opened (and created) exactly once, at
    construction; ``disk_reads``/``disk_writes`` count every
    filesystem touch afterwards, which is what lets the serve tier
    *pin* its hot path as syscall-free instead of asserting it.

    Read-error semantics: a missing file and a *torn entry*
    (interrupted ``os.replace``, half-written JSON) are legitimate
    misses.  An *environmental* read error (permissions, I/O failure,
    a directory where a file should be) is not: silently recomputing
    would mask a broken cache forever.  Those bump
    ``cache_read_errors``, log the path once, and the **second
    consecutive** failure of the same entry re-raises — one transient
    blip recovers, a persistent fault surfaces.
    """

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.disk_reads = 0
        self.disk_writes = 0
        #: Environmental read errors seen so far (see the class doc).
        self.cache_read_errors = 0
        self._failures: Dict[str, int] = {}
        self._logged: set = set()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload under ``key``, or None (torn entry,
        non-dict payload, and missing file all read as a miss; a
        persistent environmental error re-raises — see the class doc).
        """
        self.disk_reads += 1
        path = self._path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self.cache_read_errors += 1
            failures = self._failures[key] = self._failures.get(key, 0) + 1
            if key not in self._logged:
                self._logged.add(key)
                _LOG.warning(
                    "cache read failed for %s (%s); treating as a miss",
                    path, exc,
                )
            if failures >= 2:
                raise
            return None
        self._failures.pop(key, None)
        try:
            payload = json.loads(text)
        except ValueError:
            # torn entry (interrupted write): a legitimate miss
            return None
        return payload if isinstance(payload, dict) else None

    def __contains__(self, key: str) -> bool:
        self.disk_reads += 1
        return self._path(key).exists()

    def store(self, key: str, payload: Mapping[str, Any]) -> None:
        """Atomically write ``payload`` under ``key``."""
        self.disk_writes += 1
        atomic_write_text(
            self._path(key),
            json.dumps(payload, sort_keys=True, indent=1),
        )

    def absorb(self, other_root: os.PathLike | str) -> int:
        """Union another cache directory into this one (file copy, see
        :func:`union_dir`).  Returns the number of entries copied."""
        return union_dir(other_root, self.root, "*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


class ResultCache(JsonCache):
    """On-disk JSON cache: one ``<spec-hash>.json`` file per result.

    Each entry stores the full spec alongside the result; a hash
    collision or a stale schema is treated as a miss.  Because entries
    are content-addressed, merging two caches is a plain file copy
    (``sweep --from-cache``).  Atomicity, miss semantics and the I/O
    counters come from :class:`JsonCache`.
    """

    def get(self, spec: ScenarioSpec) -> Optional[ScenarioResult]:
        """The cached result for ``spec``, or None."""
        payload = self.load(spec.spec_hash())
        if payload is None or payload.get("spec") != spec._shared_payload():
            return None
        return ScenarioResult.from_dict(payload["result"])

    def put(self, spec: ScenarioSpec, result: ScenarioResult) -> None:
        """Store ``result`` under ``spec``'s hash (atomic write)."""
        self.store(spec.spec_hash(),
                   {"spec": spec._shared_payload(),
                    "result": result.to_dict()})


def trace_dir(cache: Optional[ResultCache]) -> Optional[Path]:
    """``<cache root>/traces``, or None (no trace cache) without one."""
    return cache.root / "traces" if cache is not None else None


def _memoize(ctx: RunContext, key: str, result: ScenarioResult,
             cache: Optional[ResultCache]) -> None:
    """Put ``result`` in ``ctx``'s memo with the roots known to hold
    it: ``cache``'s, when the caller just read or wrote it there."""
    ctx.memo.put(key, (result, {cache.root} if cache is not None else set()))


def lookup(spec: ScenarioSpec, cache: Optional[ResultCache] = None,
           ctx: RunContext = DEFAULT_CONTEXT
           ) -> Tuple[Optional[ScenarioResult], Any]:
    """The cache-first probe: ``ctx``'s memo → result cache.

    ``(result, tier)`` with tier ``"memo"`` or ``"result_disk"``, or
    ``(None, None)``.  A disk hit is memoized.  A memo hit is written
    to ``cache`` when the directory lacks it, so every cache root a
    caller names holds the points it resolved; the memo entry keeps
    the roots known to hold it, so each root is checked once.
    """
    key = spec.spec_hash()
    hit = ctx.memo.get(key)
    if hit is not None:
        result, on_disk = hit
        if cache is not None and cache.root not in on_disk:
            if key not in cache:
                cache.put(spec, result)
            on_disk.add(cache.root)
        return result, "memo"
    if cache is not None:
        result = cache.get(spec)
        if result is not None:
            _memoize(ctx, key, result, cache)
            return result, "result_disk"
    return None, None


def simulate(spec: ScenarioSpec, cache: Optional[ResultCache] = None,
             ctx: RunContext = DEFAULT_CONTEXT) -> ScenarioResult:
    """Run ``spec`` (dPerf traces under :func:`trace_dir`), memoize it
    and persist it to ``cache``: the miss path every caller shares."""
    result = run_scenario(spec, ctx, trace_dir(cache))
    _memoize(ctx, spec.spec_hash(), result, cache)
    if cache is not None:
        cache.put(spec, result)
    return result


def resolve(spec: ScenarioSpec, cache: Optional[ResultCache] = None,
            ctx: RunContext = DEFAULT_CONTEXT
            ) -> Tuple[ScenarioResult, str]:
    """:func:`lookup`, or :func:`simulate` (tier ``"simulate"``)."""
    result, tier = lookup(spec, cache, ctx)
    if result is not None:
        return result, tier
    return simulate(spec, cache, ctx), "simulate"


def run_cached(
    spec: ScenarioSpec, cache: Optional[ResultCache] = None
) -> ScenarioResult:
    """Memoized scenario execution: memo → disk cache → compute."""
    return resolve(spec, cache)[0]


def memo_get(spec_hash: str) -> Optional["ScenarioResult"]:
    """The default context's memo entry for ``spec_hash``, or None (a
    peek that reads no disk tier; see :func:`lookup` for the full
    probe)."""
    hit = DEFAULT_CONTEXT.memo.get(spec_hash)
    return hit[0] if hit is not None else None


def clear_memo() -> None:
    """Drop the default context's scenario memo, and nothing else
    (tests only)."""
    DEFAULT_CONTEXT.memo.clear()


# ---------------------------------------------------------------------------
# grid expansion + the sweep runner
# ---------------------------------------------------------------------------

def expand_grid(
    base: ScenarioSpec, grid: Mapping[str, Sequence[Any]]
) -> List[ScenarioSpec]:
    """Cartesian product of field overrides applied to ``base``.

    Keys are (dotted) spec paths, e.g. ``{"n_peers": (2, 4),
    "workload.level": ("O0", "O3")}`` → 4 specs, named
    ``base[n_peers=2,workload.level=O0]`` etc. in deterministic order.
    """
    if not grid:
        return [base]
    paths = list(grid)
    specs: List[ScenarioSpec] = []
    for combo in product(*(grid[p] for p in paths)):
        spec = base
        for path, value in zip(paths, combo):
            spec = spec.with_override(path, value)
        label = ",".join(f"{p}={v}" for p, v in zip(paths, combo))
        specs.append(spec.with_override("name", f"{base.name}[{label}]"))
    return specs


def _pool_run(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: rebuild the spec, run it, ship plain data.

    The worker writes its own result into the shared on-disk cache
    *before* returning, so a killed sweep (or shard) resumes from
    everything it completed rather than recomputing the whole grid.
    """
    spec = ScenarioSpec.from_dict(payload["spec"])
    cache_dir = payload.get("cache_dir")
    cache = ResultCache(cache_dir) if cache_dir else None
    return simulate(spec, cache).to_dict()


def shard_indices(
    specs: Sequence[ScenarioSpec], index: int, count: int
) -> List[int]:
    """Positions of shard ``index`` (0-based) of ``count`` in ``specs``.

    Partitioning is by spec hash — a pure function of each point, so
    every machine derives the same split from the same grid without
    coordination, and relabelling a sweep never moves points between
    shards.  This is the single owner of the partition predicate.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {index}"
        )
    return [i for i, s in enumerate(specs)
            if int(s.spec_hash(), 16) % count == index]


class SweepRunner:
    """Executes scenario lists with memoization and process parallelism.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk result cache (None → in-process memo
        only).  Also hosts the persistent trace cache (``traces/``
        subdirectory) that spares every pool worker the dPerf
        calibration cold start.
    max_workers:
        Process pool width for cache misses (None → ``os.cpu_count()``,
        capped by the number of misses; 1 forces serial in-process).
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike | str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.max_workers = max_workers
        self.hits = 0
        self.misses = 0

    # -- execution ---------------------------------------------------------
    def run(
        self,
        specs: Sequence[ScenarioSpec],
        parallel: bool = True,
    ) -> List[ScenarioResult]:
        """Run ``specs`` (cache-first), preserving input order.

        Duplicate spec hashes are computed once.  With ``parallel``
        (the default) cache misses execute in a process pool; results
        are identical to a serial run because the runner is pure.
        Every computed miss is persisted as it lands, so a killed
        sweep resumes from what it finished.
        """
        results: List[Optional[ScenarioResult]] = [None] * len(specs)
        miss_index: Dict[str, List[int]] = {}
        for i, spec in enumerate(specs):
            cached, _tier = lookup(spec, self.cache)
            if cached is not None:
                results[i] = cached
                self.hits += 1
            else:
                miss_index.setdefault(spec.spec_hash(), []).append(i)
        misses = [specs[slots[0]] for slots in miss_index.values()]
        self.misses += len(misses)
        workers = self._effective_workers(len(misses))
        if parallel and workers > 1:
            computed = self._run_pool(misses, workers)
        else:
            computed = [simulate(spec, self.cache) for spec in misses]
        for spec, result in zip(misses, computed):
            for i in miss_index[spec.spec_hash()]:
                results[i] = result
        return [r for r in results if r is not None]

    def absorb(self, source: os.PathLike | str) -> int:
        """Union another cache directory — results and traces — into
        this runner's cache (needs a ``cache_dir``; see
        :func:`union_dir`); the points it holds are then served as
        cache hits.  Returns the results copied."""
        union_dir(Path(source) / "traces", trace_dir(self.cache), "*.json")
        return self.cache.absorb(source)

    # -- internals ---------------------------------------------------------
    def _effective_workers(self, n_misses: int) -> int:
        if n_misses <= 1:
            return 1
        width = self.max_workers or os.cpu_count() or 1
        return max(1, min(width, n_misses))

    def _prime_templates(self, misses: Sequence[ScenarioSpec]) -> None:
        """Pay per-sweep one-time costs once, in the parent.

        Traces land in the persistent trace cache (see
        :func:`~repro.scenarios.workloads.prime_traces`); platforms are
        built so fork-started workers inherit them copy-on-write.  Both
        are pure derivations of the spec, so priming cannot change any
        result.
        """
        from . import platforms, workloads

        for spec in misses:
            platforms.build_platform(spec.platform)
        workloads.prime_traces(misses, trace_dir(self.cache))

    def _run_pool(self, misses: Sequence[ScenarioSpec],
                  workers: int) -> List[ScenarioResult]:
        self._prime_templates(misses)
        cache_dir = str(self.cache.root) if self.cache is not None else None
        payloads = [
            {"spec": spec.to_dict(), "cache_dir": cache_dir}
            for spec in misses
        ]
        computed: List[Optional[ScenarioResult]] = [None] * len(misses)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_pool_run, payload): i
                for i, payload in enumerate(payloads)
            }
            for future in as_completed(futures):
                i = futures[future]
                result = ScenarioResult.from_dict(future.result())
                # the worker already persisted it (simulate in
                # _pool_run); the parent only memoizes
                _memoize(DEFAULT_CONTEXT, misses[i].spec_hash(), result,
                         self.cache)
                computed[i] = result
        # every slot must be filled: a silent gap here would shift the
        # caller's zip(misses, computed) and cache results under wrong
        # spec hashes
        assert all(r is not None for r in computed)
        return computed  # type: ignore[return-value]

    # -- reporting ---------------------------------------------------------
    @property
    def cache_ratio(self) -> float:
        """Fraction of requested points served from a cache level."""
        total = self.hits + self.misses
        return self.hits / total if total else math.nan
