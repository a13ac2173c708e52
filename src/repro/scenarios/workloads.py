"""Workload construction from :class:`~repro.scenarios.spec.WorkloadPlan`.

The dPerf calibration pipeline, generalized over the two domain
applications: one instrumented *calibration* execution per (app, peer
count) — small instance, virtual hardware counters — then traces of
any *target* instance are obtained by block-benchmark scale-up at any
GCC level.  Every stage is memoized in a
:class:`~repro.scenarios.runner.RunContext` (the process default
unless the caller passes one), so a sweep touching the same (app,
nprocs, level, n, nit) point twice pays once; scaled traces also
persist under the trace directory the caller names.

``experiments.calibration`` delegates here; this module is the single
owner of the calibration constants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .. import __version__ as _ENGINE_VERSION
from ..apps import heat, obstacle
from ..dperf import DPerfPredictor, ScalePlan
from ..p2pdc import WorkloadSpec
from ..p2psap import Scheme
from ..platforms.cluster import DEFAULT_NODE_SPEED
from ..simx.tracefile import dump_trace, load_trace
from .runner import DEFAULT_CONTEXT, JsonCache, RunContext
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
        residual=obstacle.residual_model,
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


def predictor(app: str, ctx: RunContext = DEFAULT_CONTEXT) -> DPerfPredictor:
    """The (memoized) dPerf predictor for one application source."""
    a = adapter(app)
    return ctx.predictors.get_or_put(
        app, lambda: DPerfPredictor(a.source(), a.entry))


def calibration_runs(app: str, nprocs: int,
                     ctx: RunContext = DEFAULT_CONTEXT):
    """One instrumented execution per (app, peer count), reused by
    every trace request at any level or target size."""
    a = adapter(app)
    return ctx.calibrations.get_or_put(
        (app, nprocs), lambda: predictor(app, ctx).execute(
            nprocs, args=list(a.entry_args(CAL_N, a.cal_nit))))


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

# Trace generation is the cold-start cost every sweep worker pays (one
# mini-C calibration per (app, nprocs)); the disk cache under a
# caller's ``<cache root>/traces`` makes it a one-time cost shared
# across processes, shards and — with a copied cache directory —
# machines.  Each entry is a :class:`JsonCache` file holding its recipe
# and every rank's trace in the ``# dperf-trace v1`` text format, keyed
# by a content hash of the recipe, so a shared directory is safe to
# union by file copy and reading one runs no code.


def set_trace_cache_dir(path: None) -> None:
    """Switch the disk trace cache off for calls that name no trace
    directory — which is already so: traces reach disk only under the
    ``trace_dir`` a caller passes, so this accepts None alone."""
    if path is not None:
        raise ValueError("pass the trace directory to traces(), "
                         "make_workload() or prime_traces() instead")


def _trace_recipe(app: str, nprocs: int, level: str, n: int,
                  nit: int) -> dict:
    return {"engine": _ENGINE_VERSION, "app": app, "nprocs": nprocs,
            "level": level, "n": n, "nit": nit}


def _trace_key(recipe: dict) -> str:
    blob = "{engine}:{app}:{nprocs}:{level}:{n}:{nit}".format(**recipe)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _store_traces(cache: JsonCache, key: str, recipe: dict, out) -> None:
    try:
        cache.store(key, {"recipe": recipe,
                          "ranks": [dump_trace(t) for t in out]})
    except OSError:
        pass  # cache is best-effort; the computed value is still used


def traces(app: str, nprocs: int, level: str, n: int, nit: int,
           ctx: RunContext = DEFAULT_CONTEXT,
           trace_dir: Optional[Path] = None):
    """Scaled traces of the target instance at one GCC level.

    Served (in order) from ``ctx``'s trace memo, the trace cache at
    ``trace_dir``, or a fresh calibration + scale-up (which then
    populates both).  A memo hit is written to ``trace_dir`` when the
    directory lacks it, so every cache root a caller names holds the
    traces its points used; the memo entry keeps the roots known to
    hold it, so each root is checked once.  A cache entry whose recipe
    differs from the request, or that does not decode, is a miss.
    """
    recipe = _trace_recipe(app, nprocs, level, n, nit)
    key = _trace_key(recipe)
    cache = ctx.trace_cache(trace_dir)
    hit = ctx.traces.get(key)
    if hit is not None:
        out, on_disk = hit
        if cache is not None and cache.root not in on_disk:
            if key not in cache:
                _store_traces(cache, key, recipe, out)
            on_disk.add(cache.root)
        return out
    out = None
    payload = cache.load(key) if cache is not None else None
    if payload is not None and payload.get("recipe") == recipe:
        try:
            out = [load_trace(text) for text in payload["ranks"]]
        except (KeyError, TypeError, ValueError, AttributeError):
            pass  # torn or foreign entry: recompute below
    if out is None:
        out = predictor(app, ctx).traces_for(
            calibration_runs(app, nprocs, ctx), level,
            scale=scale_plan(app, nprocs, n, nit),
            app=app, extra_meta={"n": str(n), "nit": str(nit)},
        )
        if cache is not None:
            _store_traces(cache, key, recipe, out)
    ctx.traces.put(key, (out, {cache.root} if cache is not None else set()))
    return out


def prime_traces(specs: Sequence[ScenarioSpec], trace_dir: Optional[Path],
                 ctx: RunContext = DEFAULT_CONTEXT) -> None:
    """Generate the traces of ``specs`` (each distinct recipe once,
    through ``ctx``'s memo) into the trace cache at ``trace_dir``, so
    worker processes load trace files instead of re-running the dPerf
    calibration."""
    for s in specs:
        if s.kind in ("reference", "predict"):
            w = s.workload
            traces(w.app, s.n_peers, w.level, w.n, w.nit, ctx, trace_dir)


def make_workload(
    plan: WorkloadPlan, nprocs: int, scheme: Scheme = Scheme.SYNC,
    ctx: RunContext = DEFAULT_CONTEXT, trace_dir: Optional[Path] = None,
) -> WorkloadSpec:
    """A :class:`WorkloadSpec` for the P2PDC reference execution of one
    workload plan (compute bursts priced by the dPerf cost model, from
    :func:`traces` with ``ctx`` and ``trace_dir``)."""
    a = adapter(plan.app)
    per_rank = [
        t.total_compute_ns * 1e-9 / plan.nit
        for t in traces(plan.app, nprocs, plan.level, plan.n, plan.nit,
                        ctx, trace_dir)
    ]

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
        # the obstacle curve is a 200-iteration numpy solve, so it is
        # solved once per app; it is a pure function of ``it``, so
        # ``WorkloadSpec``s may share one
        residual=ctx.residuals.get_or_put(
            plan.app, lambda: a.residual(CAL_N)),
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
    """Drop the default context's four dPerf memos, and nothing else —
    templates, the scenario memo and trace files stay (tests only)."""
    ctx = DEFAULT_CONTEXT
    for memo in (ctx.predictors, ctx.calibrations, ctx.traces,
                 ctx.residuals):
        memo.clear()
