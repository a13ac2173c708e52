"""S3 — serve-daemon benchmark: query throughput, cold vs memoized.

Starts a real daemon on a loopback socket, prices a 50-query batch
cold (every answer simulated, through a fresh ``RunContext`` and with
the platform cache cleared, so caches warmed by benches that ran
earlier in the same process cannot shorten it), then replays the same
batch memoized (every answer from the LRU memo) several times.
Enforced, machine-independent:

- every memoized replay must be **byte-identical** to the cold pass
  (the determinism contract the serve test harness pins in depth);
- memoized-answer throughput must be **>= 10x** the cold rate — the
  whole point of a long-lived daemon over re-running sweeps.  The
  memoized wall is the median of the replays, so one replay stalled
  by the scheduler cannot fail the gate.

The queries/s figures are printed for information; serve latency
claims come from ``perfbench/``'s ``serve-restart`` workload.
"""

import json
import statistics
import time

from repro.scenarios.platforms import build_platform
from repro.scenarios.runner import RunContext
from repro.serve import QueryEngine, ServeClient, ServeDaemon

QUERIES = 50
MIN_MEMO_SPEEDUP = 10.0
#: memoized replays of the batch; the median wall is the one judged
MEMO_REPLAYS = 5


def _query_payloads():
    """50 distinct tiny queries: a deadline axis (pure memo-key
    variety — same seed pool) crossed with a small workload axis."""
    payloads = []
    for i in range(QUERIES):
        payloads.append({
            "deadline": 0.5 + 0.01 * i,
            "percentile": 90.0,
            "pool": 3,
            "n_peers": 2,
            "workload": {"app": "heat", "n": 64, "nit": 20 + 5 * (i % 4),
                         "level": "O1"},
            "platform": {"kind": "cluster", "n_hosts": 8},
        })
    return payloads


def test_serve_throughput(tmp_path):
    # a cold pass whatever ran earlier in this process: a fresh context
    # (scenario memo, templates, dPerf memos) and no built platforms
    build_platform.cache_clear()
    engine = QueryEngine(cache_dir=tmp_path / "cache", ctx=RunContext())
    payloads = _query_payloads()
    with ServeDaemon(engine, address="127.0.0.1:0") as daemon:
        with ServeClient(daemon.address, timeout=120.0) as client:
            t0 = time.perf_counter()
            cold = client.request({"op": "batch", "queries": payloads})
            cold_wall = time.perf_counter() - t0
            assert cold["ok"], cold
            warm_walls = []
            warms = []
            for _ in range(MEMO_REPLAYS):
                t0 = time.perf_counter()
                warm = client.request({"op": "batch", "queries": payloads})
                warm_walls.append(time.perf_counter() - t0)
                assert warm["ok"], warm
                warms.append(warm)
            stats = client.request({"op": "stats"})["stats"]

    cold_json = json.dumps(cold["answers"], sort_keys=True)
    for warm in warms:
        assert json.dumps(warm["answers"], sort_keys=True) == cold_json, \
            "memoized replay drifted from the cold answers"
    # every replayed query must be a memo hit: zero new simulations
    assert stats["scenario_runs"] == engine.stats.get("scenario_runs")
    assert stats["memo_hits"] >= QUERIES * MEMO_REPLAYS
    warm_wall = statistics.median(warm_walls)

    cold_qps = QUERIES / cold_wall
    warm_qps = QUERIES / warm_wall
    speedup = warm_qps / cold_qps
    print(f"cold: {QUERIES} queries in {cold_wall:.3f}s "
          f"({cold_qps:.0f} q/s)")
    print(f"memoized: {QUERIES} queries in {warm_wall:.3f}s, median of "
          f"{MEMO_REPLAYS} ({warm_qps:.0f} q/s, {speedup:.0f}x)")
    assert speedup >= MIN_MEMO_SPEEDUP, (
        f"memoized serving is only {speedup:.1f}x the cold rate "
        f"(floor {MIN_MEMO_SPEEDUP}x) — the answer memo is not "
        f"carrying the hot path"
    )
