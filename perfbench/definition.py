"""What the benchmark measures: workloads, metrics, units and bounds.

``python3 perfbench/run.py --write-definition`` writes BENCHMARK.json at
the repository root from this table, so the file and the code that
prints the metrics cannot disagree.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

from cases import WORKLOADS

RUN_SECONDS = 20

#: (name, unit, better, bound): what a user of the system sees.
#: ``bound`` is the share of the parent's median a metric may worsen by.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("units_per_s", "1/s", "higher", 0.25),
    ("unit_p50_ms", "ms", "lower", 0.25),
    ("unit_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_SERVE_TIERS = ("memo", "answer_disk", "result_disk", "store", "simulate")

#: (name, unit): single layers, from the traced run.  Counts and
#: ``*_ms`` span times are per unit of the traced phase unless the
#: README says otherwise; ``*.self_share`` is a share of all self time
#: inside unit calls under the profiler.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("desim.events", "count"),
    ("desim.self_share", "share"),
    ("net.flows", "count"),
    ("net.reshares", "count"),
    ("net.solver_calls", "count"),
    ("net.solve_cache_hit_ratio", "ratio"),
    ("net.solver_ms", "ms"),
    ("net.self_share", "share"),
    ("p2pdc.deploy_ms", "ms"),
    ("p2pdc.control_messages", "count"),
    ("p2pdc.reliable_retries", "count"),
    ("p2pdc.self_share", "share"),
    ("p2psap.messages_sent", "count"),
    ("p2psap.self_share", "share"),
    ("dperf.instrument_ms", "ms"),
    ("dperf.execute_ms", "ms"),
    ("dperf.traces_for_ms", "ms"),
    ("dperf.skeleton_entries", "count"),
    ("dperf.setup_ms", "ms"),
    ("dperf.self_share", "share"),
    ("simx.replay_ms", "ms"),
    ("simx.events_replayed", "count"),
    ("simx.self_share", "share"),
    ("scenarios.run_scenario_ms", "ms"),
    ("scenarios.build_platform_calls", "count"),
    ("scenarios.cache_get_ms", "ms"),
    ("scenarios.cache_put_ms", "ms"),
    *((f"serve.tier_p50_ms.{t}", "ms") for t in _SERVE_TIERS),
    *((f"serve.tier_units.{t}", "count") for t in _SERVE_TIERS),
    ("serve.compute_answer_ms", "ms"),
    ("serve.answer_cache_get_ms", "ms"),
    ("serve.answer_cache_put_ms", "ms"),
    ("fleet.store_get_ms", "ms"),
    ("fleet.store_record_ms", "ms"),
    ("fleet.sidecar_rebuilds", "count"),
    ("fleet.sidecar_tail_refreshes", "count"),
    ("split.sim_layers_self_share", "share"),
    ("split.dperf_simx_unit_share", "share"),
    ("split.cache_store_unit_share", "share"),
    ("bench.probe_ms", "ms"),
    ("bench.raw_wall_s", "s"),
    ("bench.unit_raw_p50_ms", "ms"),
    ("bench.setup_raw_s", "s"),
    ("bench.fixture_s", "s"),
    ("bench.trace_overhead", "ratio"),
)

_HIGHER_IS_BETTER = {"net.solve_cache_hit_ratio"}

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _b, _bound in END_TO_END},
    **dict(PER_LAYER),
}


def benchmark_json() -> Dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why}
                      for name, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit,
             "better": "higher" if name in _HIGHER_IS_BETTER else "lower"}
            for name, unit in PER_LAYER
        ],
    }


def write_benchmark_json(root: str) -> str:
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
    return path
