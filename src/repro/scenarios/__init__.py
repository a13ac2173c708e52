"""Scenario engine: declarative evaluation points + a cached runner.

The paper evaluates a handful of fixed platform × workload points;
this subsystem turns that space into data.  A frozen, hashable
:class:`ScenarioSpec` composes a platform plan, a workload plan,
protocol knobs, a churn plan, and a seed; :func:`run_scenario`
executes one spec deterministically; :class:`SweepRunner` expands
parameter grids, runs cache misses in a process pool, and memoizes
results in an on-disk JSON cache keyed by spec hash.  The named
entries in :mod:`~repro.scenarios.registry` cover the paper's figures
and several scenarios beyond them; ``python -m repro.scenarios``
lists and runs everything.
"""

from .platforms import build_platform, pick_hosts, spread_hosts
from .registry import (
    NamedScenario,
    PEER_COUNTS,
    SCENARIOS,
    get_scenario,
    scenario_names,
)
from .runner import (
    ResultCache,
    ScenarioResult,
    SweepRunner,
    execute_reference,
    expand_grid,
    run_cached,
    run_scenario,
    shard_indices,
)
from .spec import (
    ChurnEventSpec,
    ChurnProfile,
    NetworkFaultPlan,
    PlatformPlan,
    ProtocolPlan,
    ScenarioSpec,
    WorkloadPlan,
)

__all__ = [
    "ChurnEventSpec",
    "ChurnProfile",
    "NamedScenario",
    "NetworkFaultPlan",
    "PEER_COUNTS",
    "PlatformPlan",
    "ProtocolPlan",
    "ResultCache",
    "SCENARIOS",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepRunner",
    "WorkloadPlan",
    "build_platform",
    "execute_reference",
    "expand_grid",
    "get_scenario",
    "pick_hosts",
    "run_cached",
    "run_scenario",
    "scenario_names",
    "shard_indices",
    "spread_hosts",
]
