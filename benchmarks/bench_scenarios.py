"""S1 — scenario-engine smoke benchmark + replay hot path.

One tiny sweep through the cached parallel runner: measures the
engine's own overhead (spec hashing, memo, disk cache, result
serialization) against a warm in-process memo, and regenerates a
small results table. Fast by construction — this is the bench CI runs
on every push.

``test_replay_hot_path`` times the max-min trace replay on the two
1024-node platforms (campus LAN, Daisy xDSL) — the inner loop every
churn-grid point pays — and tables the wall times for information.
The *enforced* regression guards are machine-independent: the reshare
(solver-invocation) count must not exceed
:data:`REPLAY_MAX_RESHARES`, the count of the naive per-event
stateless solve, and ``t_predicted`` must equal
:data:`REPLAY_T_PREDICTED` exactly.  Timing claims for the replay come
from ``perfbench/``'s ``predict-cold`` workload.
"""

import time

from conftest import emit

from repro.analysis import format_table
from repro.scenarios import SCENARIOS, SweepRunner, expand_grid, ScenarioSpec
from repro.scenarios.runner import clear_memo, run_scenario
from repro.scenarios.spec import PlatformPlan, WorkloadPlan


def tiny_grid():
    base = ScenarioSpec(
        name="bench-tiny", kind="predict",
        platform=PlatformPlan(kind="cluster", n_hosts=4),
        workload=WorkloadPlan(app="heat", n=64, nit=30, level="O1"),
        n_peers=2,
    )
    return expand_grid(base, {"n_peers": (2, 4),
                              "workload.level": ("O0", "O1", "O3")})


def test_sweep_cache_overhead(benchmark, tmp_path):
    specs = tiny_grid()
    warm = SweepRunner(cache_dir=tmp_path)
    results = warm.run(specs, parallel=False)  # populate memo + disk

    def cached_sweep():
        runner = SweepRunner(cache_dir=tmp_path)
        return runner.run(specs, parallel=False)

    again = benchmark(cached_sweep)
    assert [r.spec_hash for r in again] == [r.spec_hash for r in results]

    clear_memo()
    disk = SweepRunner(cache_dir=tmp_path)
    disk.run(specs, parallel=False)

    print(format_table(
        ["stage", "points", "served from cache"],
        [["cold sweep", str(len(specs)), "0"],
         ["warm memo", str(len(specs)), str(len(specs))],
         ["cold memo, disk cache", str(len(specs)), str(disk.hits)]],
    ))
    assert disk.hits == len(specs)


# ---------------------------------------------------------------------------
# recovery-grid cost tracking
# ---------------------------------------------------------------------------

def test_recovery_grid_smoke():
    """One representative point per recovery regime, timed — so the
    cost of the churn recovery subsystem (liveness pings, re-dispatch,
    catch-up recompute) shows in every bench run.  The full 18-point
    grid is the registered scenario; this smoke covers the regimes
    without paying the whole grid in CI.
    """
    base = SCENARIOS["recovery-grid"].base
    cases = [
        ("baseline (no churn)",
         base.with_override("churn_profile.rate", 0.0)),
        ("churn, no recovery",
         base),
        ("churn + recovery",
         base.with_override("churn_profile.rejoin_rate", 2.0)),
    ]
    rows = []
    for label, spec in cases:
        t0 = time.perf_counter()
        result = run_scenario(spec)
        wall = time.perf_counter() - t0
        rows.append([
            label, f"{wall:.2f}", f"{result.t:.2f}",
            f"{result.metrics['completed']:.0f}",
            f"{result.metrics['redispatched_subtasks']:.0f}",
            f"{result.metrics['sim_events']:.0f}",
        ])
    print(format_table(
        ["regime", "wall [s]", "sim t [s]", "completed",
         "re-dispatched", "sim events"],
        rows,
    ))
    # the recovery point must actually recover: completed, with work
    # re-dispatched — otherwise this bench times the wrong thing
    assert rows[1][3] == "0" and rows[2][3] == "1"
    assert int(rows[2][4]) > 0


def test_coordinator_grid_smoke():
    """One representative point per coordinator-recovery regime, timed
    — so the cost of the election subsystem (CoordPing probes, duty
    checkpoints, hand-offs, gap re-dispatch) shows in every bench run.
    The full 18-point grid is the registered scenario; this smoke
    covers the regimes without paying the whole grid in CI.
    """
    base = SCENARIOS["coordinator-grid"].base
    hot = base.with_override("churn_profile.coordinator_churn_rate", 1.5)
    cases = [
        ("baseline (no churn)", base),
        ("coordinator churn, no election",
         hot.with_override("recovery.election", False)),
        ("coordinator churn + election", hot),
    ]
    rows = []
    for label, spec in cases:
        t0 = time.perf_counter()
        result = run_scenario(spec)
        wall = time.perf_counter() - t0
        rows.append([
            label, f"{wall:.2f}", f"{result.t:.2f}",
            f"{result.metrics['completed']:.0f}",
            f"{result.metrics['elections']:.0f}",
            f"{result.metrics.get('handoff_latency', 0.0):.1f}",
            f"{result.metrics['sim_events']:.0f}",
        ])
    print(format_table(
        ["regime", "wall [s]", "sim t [s]", "completed",
         "elections", "handoff lat [s]", "sim events"],
        rows,
    ))
    # the election point must actually recover a coordinator crash:
    # completed, with at least one hand-off — otherwise this bench
    # times the wrong thing
    assert rows[1][3] == "0" and rows[2][3] == "1"
    assert int(rows[2][4]) > 0


def test_prediction_grid_smoke():
    """One representative point per prediction regime, timed — so the
    cost of prediction-guided selection (candidate enumeration, group
    scoring through the warm trace caches) shows in every bench run.
    The full 30-point grid is the registered scenario; this smoke
    covers the regimes without paying the whole grid in CI.
    """
    base = SCENARIOS["prediction-grid"].base
    cases = [
        ("predicted (zero error)",
         base.with_override("selection_policy", "predicted")),
        ("oracle",
         base.with_override("selection_policy", "oracle")),
        ("random (blind)",
         base.with_override("selection_policy", "random")),
        ("predicted, flip@1.0 (worst case)",
         base.with_override("selection_policy", "predicted")
             .with_override("prediction_error.kind", "flip")
             .with_override("prediction_error.level", 1.0)),
    ]
    rows = []
    for label, spec in cases:
        t0 = time.perf_counter()
        result = run_scenario(spec)
        wall = time.perf_counter() - t0
        rows.append([
            label, f"{wall:.2f}", f"{result.metrics['makespan']:.4f}",
            f"{result.metrics['completed']:.0f}",
            f"{result.metrics.get('prediction_candidates', 0.0):.0f}",
            f"{result.metrics['sim_events']:.0f}",
        ])
    print(format_table(
        ["regime", "wall [s]", "makespan [s]", "completed",
         "candidates", "sim events"],
        rows,
    ))
    # the headline must hold or this bench times the wrong thing:
    # predicted strictly beats the blind policy at zero error and
    # matches the omniscient oracle on the uniform-latency platform
    assert float(rows[0][2]) < float(rows[2][2])
    assert float(rows[0][2]) == float(rows[1][2])
    assert int(rows[0][4]) > 0 and int(rows[2][4]) == 0


def test_partition_grid_smoke():
    """One representative point per lossy-network regime, timed — so
    the cost of the reliability hardening (envelopes, acks, retry
    timers, dedup sets) shows in every bench run.  The full 24-point
    grid is the registered scenario; this smoke covers the regimes
    without paying the whole grid in CI.
    """
    base = SCENARIOS["partition-grid"].base
    faulty = (base.with_override("fault_plan.loss", 0.05)
                  .with_override("fault_plan.partition_duration", 8.0))
    cases = [
        ("baseline (clean network)", base),
        ("loss + partition, hardened", faulty),
        ("loss + partition, unhardened",
         faulty.with_override("fault_plan.retries", False)),
    ]
    rows = []
    for label, spec in cases:
        t0 = time.perf_counter()
        result = run_scenario(spec)
        wall = time.perf_counter() - t0
        rows.append([
            label, f"{wall:.2f}", f"{result.t:.2f}",
            f"{result.metrics['completed']:.0f}",
            f"{result.metrics.get('messages_lost', 0.0):.0f}",
            f"{result.metrics.get('reliable_retries', 0.0):.0f}",
            f"{result.metrics['sim_events']:.0f}",
        ])
    print(format_table(
        ["regime", "wall [s]", "sim t [s]", "completed",
         "lost", "retries", "sim events"],
        rows,
    ))
    # the hardening contrast must hold or this bench times the wrong
    # thing: the hardened point completes through the faults, the
    # unhardened ablation does not
    assert rows[0][3] == "1" and rows[1][3] == "1" and rows[2][3] == "0"
    assert int(rows[1][5]) > 0 and int(rows[2][5]) == 0


# ---------------------------------------------------------------------------
# replay hot path (the churn-grid inner loop)
# ---------------------------------------------------------------------------

#: What the replay bench runs: the paper's obstacle target instance on
#: 16 spread peers — big enough that the fluid solver dominates.
REPLAY_CASE = dict(app="obstacle", nprocs=16, level="O0", n=1024, nit=400)
REPLAY_PLATFORMS = ("lan", "xdsl")
REPLAY_REPEATS = 3
#: The prediction per platform, pinned to the bit: no replay
#: optimization may move it.
REPLAY_T_PREDICTED = {"lan": 5.7586752817913425, "xdsl": 32.88580492246834}
#: Reshares of the naive per-event stateless max-min solve on the same
#: case — the ceiling the optimized engine must stay under.
REPLAY_MAX_RESHARES = {"lan": 25959, "xdsl": 25473}


def _replay_once(kind: str):
    from repro.scenarios import platforms as P, workloads as W
    from repro.simx.replay import TraceReplayer

    plan = (PlatformPlan(kind="lan", n_hosts=1024) if kind == "lan"
            else PlatformPlan(kind="xdsl"))
    platform = P.build_platform(plan)
    hosts = P.pick_hosts(platform, REPLAY_CASE["nprocs"], "spread")
    traces = W.traces(REPLAY_CASE["app"], REPLAY_CASE["nprocs"],
                      REPLAY_CASE["level"], REPLAY_CASE["n"],
                      REPLAY_CASE["nit"])
    replayer = TraceReplayer(traces, platform, hosts=hosts)
    t0 = time.perf_counter()
    result = replayer.run()
    return time.perf_counter() - t0, result, replayer.net


def test_replay_hot_path():
    rows = []
    for kind in REPLAY_PLATFORMS:
        walls = []
        for _ in range(REPLAY_REPEATS):
            wall, result, net = _replay_once(kind)
            walls.append(wall)
        rows.append([
            kind, f"{min(walls):.3f}", str(net.reshare_count),
            str(REPLAY_MAX_RESHARES[kind]), f"{result.t_predicted:.4f}",
        ])
        # the replay rework must not move the prediction itself: the
        # contract is byte-identity, so the pinned float must match
        assert result.t_predicted == REPLAY_T_PREDICTED[kind]
        # machine-independent speedup guard: the optimized engine must
        # keep invoking the solver (far) less often than the naive
        # solve did
        assert net.reshare_count <= REPLAY_MAX_RESHARES[kind]
    emit("replay_hot_path", format_table(
        ["platform", "min wall [s]", "reshares", "reshare ceiling",
         "t_predicted [s]"],
        rows,
    ))
