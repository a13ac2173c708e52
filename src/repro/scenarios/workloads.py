"""Workload construction from :class:`~repro.scenarios.spec.WorkloadPlan`.

The dPerf calibration pipeline, generalized over the two domain
applications: one instrumented *calibration* execution per (app, peer
count) — small instance, virtual hardware counters — then traces of
any *target* instance are obtained by block-benchmark scale-up at any
GCC level.  All stages are cached per process, so a sweep touching the
same (app, nprocs, level, n, nit) point twice pays once.

``experiments.calibration`` delegates here; this module is the single
owner of the calibration constants.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from .. import __version__ as _ENGINE_VERSION
from ..apps import heat, obstacle
from ..dperf import DPerfPredictor, ScalePlan
from ..p2pdc import WorkloadSpec
from ..p2psap import Scheme
from ..platforms.cluster import DEFAULT_NODE_SPEED
from ..simx.tracefile import dump_trace, load_trace
from .runner import JsonCache
from .spec import ScenarioSpec, WorkloadPlan

#: Calibration instance size dPerf actually interprets.
CAL_N = 32
#: Obstacle convergence-check period baked into the calibration run.
CHECK_EVERY = 10


@dataclass(frozen=True)
class AppAdapter:
    """Everything app-specific the calibration pipeline needs."""

    name: str
    source: Callable[[], str]
    entry: str
    cal_nit: int
    cycle_len: int
    warmup_cycles: int
    entry_args: Callable[[int, int], Sequence[int]]  # (n, nit) -> args
    scale_env: Callable[[int, int], dict]            # (n, nranks) -> env
    halo_bytes: Callable[[int], float]
    residual: Callable[[int], Callable[[int], float]]


def _default_residual(_n: int) -> Callable[[int], float]:
    return lambda it: 1.0 / (1 + it)


#: The obstacle residual curve comes from a 200-iteration numpy solve;
#: every reference point asks for it, so it is solved once per ``n``.
#: The curve is a pure function of ``it``, so ``WorkloadSpec``s may
#: share one.
_obstacle_residual = lru_cache(maxsize=8)(obstacle.residual_model)


ADAPTERS = {
    "obstacle": AppAdapter(
        name="obstacle",
        source=obstacle.obstacle_source,
        entry=obstacle.ENTRY,
        cal_nit=2 * CHECK_EVERY,  # 1 warm-up cycle + 1 template cycle
        cycle_len=CHECK_EVERY,
        warmup_cycles=1,
        entry_args=lambda n, nit: obstacle.entry_args(n, nit, CHECK_EVERY),
        scale_env=obstacle.scale_env,
        halo_bytes=lambda n: (n + 2) * 8.0,
        residual=_obstacle_residual,
    ),
    "heat": AppAdapter(
        name="heat",
        source=heat.heat_source,
        entry=heat.ENTRY,
        cal_nit=8,
        cycle_len=1,
        warmup_cycles=2,
        entry_args=lambda n, nit: [n, nit],
        scale_env=heat.scale_env,
        halo_bytes=lambda n: 8.0,  # one double per halo message
        residual=_default_residual,
    ),
}


def adapter(app: str) -> AppAdapter:
    """Look an application adapter up by name."""
    try:
        return ADAPTERS[app]
    except KeyError:
        raise KeyError(f"unknown app {app!r}; have {sorted(ADAPTERS)}")


@lru_cache(maxsize=4)
def predictor(app: str) -> DPerfPredictor:
    """The (cached) dPerf predictor for one application source."""
    a = adapter(app)
    return DPerfPredictor(a.source(), a.entry)


@lru_cache(maxsize=32)
def calibration_runs(app: str, nprocs: int):
    """One instrumented execution per (app, peer count), reused by
    every trace request at any level or target size."""
    a = adapter(app)
    return predictor(app).execute(
        nprocs, args=list(a.entry_args(CAL_N, a.cal_nit))
    )


def scale_plan(app: str, nprocs: int, n: int, nit: int) -> ScalePlan:
    """Block-benchmark scale-up plan: calibration → target instance."""
    a = adapter(app)
    return ScalePlan(
        env_cal=a.scale_env(CAL_N, nprocs),
        env_target=a.scale_env(n, nprocs),
        nit_target=nit,
        region="iter",
        cycle_len=a.cycle_len,
        warmup_cycles=a.warmup_cycles,
    )


# ---------------------------------------------------------------------------
# the on-disk trace cache (collaborative profiling-run reuse)
# ---------------------------------------------------------------------------

#: The persistent trace cache, or ``None`` (disabled).  Trace
#: generation is the cold-start cost every sweep worker pays (one
#: mini-C calibration per (app, nprocs)); the disk cache makes it a
#: one-time cost shared across processes, shards and — with a copied
#: cache directory — machines.  Each entry is a :class:`JsonCache`
#: file holding its recipe and every rank's trace in the
#: ``# dperf-trace v1`` text format, keyed by a content hash of the
#: recipe, so a shared directory is safe to union by file copy and
#: reading one runs no code.
_TRACE_CACHE: Optional[JsonCache] = None


def set_trace_cache_dir(path: Optional[os.PathLike | str]) -> None:
    """Point the persistent trace cache at ``path`` (None disables);
    the directory already in use keeps its open cache."""
    global _TRACE_CACHE
    if path is None or _TRACE_CACHE is None or _TRACE_CACHE.root != Path(path):
        _TRACE_CACHE = JsonCache(path) if path is not None else None


def _trace_recipe(app: str, nprocs: int, level: str, n: int,
                  nit: int) -> dict:
    return {"engine": _ENGINE_VERSION, "app": app, "nprocs": nprocs,
            "level": level, "n": n, "nit": nit}


def _trace_key(recipe: dict) -> str:
    blob = "{engine}:{app}:{nprocs}:{level}:{n}:{nit}".format(**recipe)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


@lru_cache(maxsize=256)
def traces(app: str, nprocs: int, level: str, n: int, nit: int):
    """Scaled traces of the target instance at one GCC level.

    Served (in order) from the in-process memo, the persistent trace
    cache, or a fresh calibration + scale-up (which then populates
    both).  A cache entry whose recipe differs from the request, or
    that does not decode, is a miss.
    """
    recipe = _trace_recipe(app, nprocs, level, n, nit)
    key = _trace_key(recipe)
    cache = _TRACE_CACHE
    payload = cache.load(key) if cache is not None else None
    if payload is not None and payload.get("recipe") == recipe:
        try:
            return [load_trace(text) for text in payload["ranks"]]
        except (KeyError, TypeError, ValueError, AttributeError):
            pass  # torn or foreign entry: recompute below
    out = predictor(app).traces_for(
        calibration_runs(app, nprocs), level,
        scale=scale_plan(app, nprocs, n, nit),
        app=app, extra_meta={"n": str(n), "nit": str(nit)},
    )
    if cache is not None:
        try:
            cache.store(key, {"recipe": recipe,
                              "ranks": [dump_trace(t) for t in out]})
        except OSError:
            pass  # cache is best-effort; the computed value is still used
    return out


def prime_traces(specs: Sequence[ScenarioSpec],
                 trace_cache_dir: Optional[os.PathLike | str]) -> None:
    """Generate every distinct trace recipe of ``specs`` once, into the
    persistent trace cache at ``trace_cache_dir``, so worker processes
    load trace files instead of re-running the dPerf calibration."""
    set_trace_cache_dir(trace_cache_dir)
    recipes = dict.fromkeys(
        (s.workload.app, s.n_peers, s.workload.level, s.workload.n,
         s.workload.nit)
        for s in specs if s.kind in ("reference", "predict")
    )
    for recipe in recipes:
        traces(*recipe)


def iteration_seconds(
    app: str, nprocs: int, level: str, n: int, nit: int
) -> List[float]:
    """Per-rank compute seconds per iteration of the target instance."""
    return [
        t.total_compute_ns * 1e-9 / nit
        for t in traces(app, nprocs, level, n, nit)
    ]


def make_workload(
    plan: WorkloadPlan, nprocs: int, scheme: Scheme = Scheme.SYNC
) -> WorkloadSpec:
    """A :class:`WorkloadSpec` for the P2PDC reference execution of one
    workload plan (compute bursts priced by the dPerf cost model)."""
    a = adapter(plan.app)
    per_rank = iteration_seconds(plan.app, nprocs, plan.level, plan.n,
                                 plan.nit)

    def iteration_time(rank: int, nranks: int) -> float:
        return per_rank[min(rank, len(per_rank) - 1)]

    return WorkloadSpec(
        name=f"{plan.app}-{plan.level}-{nprocs}p",
        nit=plan.nit,
        halo_bytes=a.halo_bytes(plan.n),
        iteration_time=iteration_time,
        check_every=plan.check_every,
        scheme=scheme,
        noise_frac=plan.noise_frac,
        residual=a.residual(CAL_N),
        tol=plan.tol,
        result_bytes=4096,
        subtask_bytes=8192,
        # the traces above are priced at the 3 GHz reference clock:
        # declaring it lets heterogeneous hosts stretch/shrink bursts
        # (and the predicted policy price candidate groups) while
        # homogeneous platforms — host.speed == reference — run the
        # exact pre-v5 event stream
        reference_speed=DEFAULT_NODE_SPEED,
    )


def clear_caches() -> None:
    """Drop all in-process calibration caches (tests only)."""
    predictor.cache_clear()
    calibration_runs.cache_clear()
    traces.cache_clear()
    _obstacle_residual.cache_clear()
