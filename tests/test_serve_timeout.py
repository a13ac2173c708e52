"""The serve-daemon timeout leak, pinned.

The bug: when ``future.result(timeout=...)`` expired, the daemon
replied ``timeout`` but the abandoned worker thread kept simulating
the *entire* seed pool while holding the engine's compute lock —
every later query queued behind work nobody was waiting for, so one
slow query could make the next one miss its timeout too.

The fix is cooperative cancellation: the request's deadline rides
into the engine, which consults it before taking the compute lock,
after acquiring it, and between seed-pool members, abandoning the
compute (``ComputeAbandoned``, counted as ``stale_computes``) the
moment nobody is waiting.  The stale window is bounded by one
scenario run, not one pool.
"""

import time

import pytest

from repro.scenarios.runner import ScenarioResult, clear_memo
from repro.serve import QueryEngine, QuerySpec, ServeClient, ServeDaemon
from repro.serve.engine import ComputeAbandoned

#: Per-member simulated compute time: long enough that a pool blows a
#: sub-second timeout, short enough the suite stays fast.
MEMBER_SECONDS = 0.3

TINY = {
    "deadline": 1.0,
    "percentile": 90.0,
    "pool": 1,
    "n_peers": 2,
    "workload": {"app": "heat", "n": 64, "nit": 20, "level": "O1"},
    "platform": {"kind": "cluster", "n_hosts": 8},
}


@pytest.fixture
def slow_scenarios(monkeypatch):
    """Replace the resolver's simulation entry point with a stub that
    sleeps a deterministic MEMBER_SECONDS per pool member."""
    clear_memo()

    def fake_run(spec, *_context):
        time.sleep(MEMBER_SECONDS)
        return ScenarioResult(
            name=spec.name, spec_hash=spec.spec_hash(), kind=spec.kind,
            t=1.0, ok=True,
            metrics={"completed": 1.0, "makespan": 1.0},
        )

    monkeypatch.setattr("repro.scenarios.runner.run_scenario", fake_run)
    yield
    clear_memo()


def test_expired_deadline_abandons_uncached_compute(slow_scenarios):
    engine = QueryEngine(cache_dir=None)
    query = QuerySpec.from_dict(dict(TINY, pool=3))
    with pytest.raises(ComputeAbandoned):
        engine.answer(query, deadline=time.monotonic() - 1.0)
    assert engine.stats.get("stale_computes") == 1
    assert engine.stats.get("scenario_runs") == 0  # bailed before any


def test_cache_hits_still_answer_past_the_deadline(slow_scenarios):
    engine = QueryEngine(cache_dir=None)
    query = QuerySpec.from_dict(TINY)
    answer = engine.answer(query)  # warm the memo
    # a hit is free: no reason to refuse it, however late
    late = engine.answer(query, deadline=time.monotonic() - 1.0)
    assert late.canonical_json() == answer.canonical_json()
    assert engine.stats.get("stale_computes") == 0


def test_abandonment_is_bounded_by_one_pool_member(slow_scenarios):
    """Mid-pool expiry: members already simulated stay simulated, but
    at most one more member runs after the deadline passes."""
    engine = QueryEngine(cache_dir=None)
    query = QuerySpec.from_dict(dict(TINY, pool=10))
    budget = 2.5 * MEMBER_SECONDS  # expires during member 3 of 10
    started = time.monotonic()
    with pytest.raises(ComputeAbandoned):
        engine.answer(query, deadline=started + budget)
    elapsed = time.monotonic() - started
    runs = engine.stats.get("scenario_runs")
    assert 0 < runs <= 4  # nowhere near the full pool of 10
    assert elapsed < 6 * MEMBER_SECONDS
    assert engine.stats.get("stale_computes") == 1


def test_timed_out_query_does_not_block_the_next_one(slow_scenarios):
    """The daemon-level pin: after a ``timeout`` reply, the abandoned
    compute frees the lock within one member, so the *next* query
    answers inside its own timeout instead of stacking behind ten
    stale pool members."""
    engine = QueryEngine(cache_dir=None)
    timeout = 3 * MEMBER_SECONDS
    with ServeDaemon(engine, address="127.0.0.1:0",
                     request_timeout=timeout) as daemon:
        with ServeClient(daemon.address, timeout=30.0) as client:
            # pool=10 needs ~10 members' time: blows the timeout
            reply = client.request(
                {"op": "query", "query": dict(TINY, pool=10)}
            )
            assert reply["ok"] is False
            assert reply["error"] == "timeout"
            # the next (cheap, different) query must answer promptly:
            # pre-fix, ~8 stale members (~8x MEMBER_SECONDS) still
            # held the compute lock here
            started = time.monotonic()
            reply = client.request(
                {"op": "query", "query": dict(TINY, seed_base=2222)}
            )
            elapsed = time.monotonic() - started
            assert reply["ok"] is True
            assert elapsed < timeout + 2 * MEMBER_SECONDS
        # the abandoned thread noticed and bailed
        deadline = time.monotonic() + 5.0
        while (engine.stats.get("stale_computes") < 1
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert engine.stats.get("stale_computes") >= 1
        assert engine.stats.get("request_timeouts") >= 1
        snap = engine.snapshot()
        assert snap["stale_computes"] >= 1
