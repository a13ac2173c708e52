"""Calibration constants mapping the models onto the paper's scale.

This module pins the obstacle-problem defaults the experiment runners
share: the target instance size that makes the 2-peer O0 reference
land near the paper's ≈40 s (Fig. 9), the optimization levels and
peer counts the figures sweep, and the reference-run noise.

The pipeline itself (calibration runs, trace scale-up, platform
builders) lives in :mod:`repro.scenarios.workloads` and
:mod:`repro.scenarios.platforms`; the helpers here are thin views of
it for the obstacle target, so experiment points and registry entries
share one set of caches.

Paper targets (Bordeplage cluster, Intel Xeon EM64T 3 GHz):

* Fig. 9 — t(2 peers, O0) ≈ 40–45 s, strong scaling to 32 peers,
  O0 far above the O1/O2/Os cluster;
* Fig. 10 — t(2 peers, O3) ≈ 14 s, prediction ≈ reference;
* Fig. 11 — xDSL ≫ LAN ≳ Grid5000 at O0.
"""

from __future__ import annotations

from ..platforms import PlatformSpec
from ..p2psap import Scheme
from ..p2pdc import WorkloadSpec
from ..scenarios import platforms as _platforms
from ..scenarios import workloads as _workloads
from ..scenarios.registry import OBSTACLE_TARGET, PEER_COUNTS
from ..scenarios.spec import PlatformPlan, WorkloadPlan

#: Target instance (what the paper "ran"): 2-D grid, fixed iterations.
#: n=1024 puts the 2-peer O0 reference at ≈40 s on the 3 GHz model —
#: the top of the paper's Fig. 9.  The canonical plan lives in
#: ``scenarios.registry.OBSTACLE_TARGET``; these constants are views
#: of it, so experiment points and registry entries share cache keys.
GRID_N = OBSTACLE_TARGET.n
NIT = OBSTACLE_TARGET.nit
CHECK_EVERY = _workloads.CHECK_EVERY

OPT_LEVELS = ("O0", "O1", "O2", "O3", "Os")

#: Reference-run timing jitter (hardware-counter noise).
REFERENCE_NOISE = OBSTACLE_TARGET.noise_frac


def calibration_runs(nprocs: int):
    """One instrumented execution per peer count (reused everywhere)."""
    return _workloads.calibration_runs("obstacle", nprocs)


def obstacle_workload(
    nprocs: int,
    level: str,
    scheme: Scheme = Scheme.SYNC,
    noise_frac: float = REFERENCE_NOISE,
) -> WorkloadSpec:
    """WorkloadSpec for the P2PDC reference execution of the target
    obstacle instance at one optimization level."""
    plan = WorkloadPlan(app="obstacle", n=GRID_N, nit=NIT,
                        check_every=CHECK_EVERY, level=level,
                        noise_frac=noise_frac)
    return _workloads.make_workload(plan, nprocs, scheme)


# -- platforms ---------------------------------------------------------------

def xdsl_platform() -> PlatformSpec:
    return _platforms.build_platform(PlatformPlan(kind="xdsl"))


def spread_hosts(platform: PlatformSpec, n: int) -> list:
    """Evenly spaced host selection — a desktop grid's peers are
    scattered across the access network, not packed on one DSLAM."""
    return _platforms.spread_hosts(platform, n)
