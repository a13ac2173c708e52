"""The serving tier's pin: specs, engine, protocol, daemon, soak.

Sections:

- **QuerySpec / Answer** — validation, wire round-trips, hash
  discipline;
- **percentile properties** — monotone in p, permutation-invariant,
  exact on known pools, inf-safe, and *consistent* with the
  ``compare --percentiles`` columns over the same pool (the one-
  estimator contract);
- **engine counters** — cache-hit answers are returned without
  re-simulation, the hot path touches no disk, LRU eviction falls
  back to the disk tier, batch pricing amortizes enumeration;
- **protocol / daemon adversarial** — garbage, truncation, version
  skew, oversized batches, mid-response disconnects: clean error
  replies, the daemon keeps serving, threads return to baseline;
- **identity** — serial vs concurrent byte-identical answers, and a
  killed-and-restarted daemon re-answering its history from the
  on-disk memo without a single new simulation;
- **soak** — >=5k mixed queries over >=4 concurrent clients: pinned
  throughput floor, zero answer drift (exempt from the CI duration
  tripwire by name — see ``tools/duration_tripwire.py``);
- **tripwire** — the shared threshold constant and its one sanctioned
  exemption.
"""

import json
import logging
import math
import random
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tools.duration_tripwire as tripwire
from repro.analysis import (
    SweepData,
    compare_sweeps,
    pct_key,
    percentile,
    percentile_summary,
)
from repro.p2pdc import GroupPricer, candidate_groups, predict_makespan
from repro.scenarios import workloads
from repro.scenarios.runner import clear_memo, run_scenario
from repro.scenarios.spec import PlatformPlan, WorkloadPlan
from repro.serve import (
    MAX_BATCH,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    Answer,
    ProtocolError,
    QueryEngine,
    QuerySpec,
    ServeClient,
    ServeDaemon,
)
from repro.serve.protocol import encode, parse_address, parse_request

# one tiny reference instance everywhere: first use pays the mini-C
# calibration (lru-cached per process), every later pool member is
# milliseconds
TINY = {
    "deadline": 1.0,
    "percentile": 90.0,
    "pool": 3,
    "n_peers": 2,
    "workload": {"app": "heat", "n": 64, "nit": 20, "level": "O1"},
    "platform": {"kind": "cluster", "n_hosts": 8},
}


def tiny_query(**overrides):
    payload = dict(TINY)
    payload.update(overrides)
    return QuerySpec.from_dict(payload)


@pytest.fixture(autouse=True)
def _cold_memo():
    """Counter pins need a cold scenario memo."""
    clear_memo()


# -- QuerySpec / Answer -------------------------------------------------------

def test_query_spec_validation():
    with pytest.raises(ValueError):
        tiny_query(deadline=0.0)
    with pytest.raises(ValueError):
        tiny_query(deadline=-1.0)
    with pytest.raises(ValueError):
        tiny_query(percentile=0.0)
    with pytest.raises(ValueError):
        tiny_query(percentile=101.0)
    with pytest.raises(ValueError):
        tiny_query(pool=0)
    with pytest.raises(ValueError):
        tiny_query(seed_base=-1)
    # a float or bool count would price the same pool under a second
    # hash, in the SLO fields and in every integer scenario field alike
    for bad in ({"pool": 2.0}, {"pool": True}, {"seed_base": 2011.5},
                {"n_peers": 2.0}, {"n_peers": True},
                {"platform": dict(TINY["platform"], n_hosts=8.0)},
                {"workload": dict(TINY["workload"], nit=20.0)}):
        with pytest.raises(ValueError, match="integer"):
            tiny_query(**bad)
    # cross-field guards delegate to ScenarioSpec
    with pytest.raises(ValueError):
        tiny_query(host_policy="bogus")
    with pytest.raises(ValueError):
        tiny_query(workload={"app": "no-such-app"})


def test_query_spec_roundtrip_and_hash():
    q = tiny_query()
    again = QuerySpec.from_dict(q.to_dict())
    assert again == q
    assert again.query_hash() == q.query_hash()
    assert len(q.query_hash()) == 16
    # the hash covers the SLO fields, not just the scenario shape
    assert tiny_query(deadline=2.0).query_hash() != q.query_hash()
    assert tiny_query(percentile=50.0).query_hash() != q.query_hash()
    assert tiny_query(pool=4).query_hash() != q.query_hash()


def test_query_spec_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown query field"):
        QuerySpec.from_dict(dict(TINY, deadlien=1.0))
    with pytest.raises(ValueError, match="must be an object"):
        QuerySpec.from_dict(dict(TINY, workload="heat"))
    with pytest.raises(ValueError, match="bad 'workload' payload"):
        QuerySpec.from_dict(
            dict(TINY, workload={"app": "heat", "sizzle": 9})
        )
    with pytest.raises(ValueError, match="must be an object"):
        QuerySpec.from_dict([1, 2, 3])


def test_query_spec_overrides():
    q = tiny_query().with_override("workload.level", "O3")
    assert q.scenario.workload.level == "O3"
    assert q.with_override("n_peers", 4).scenario.n_peers == 4
    moved = q.with_override("seed_base", 7).with_override("deadline", 2.0)
    assert moved.seed_base == 7 and moved.deadline == 2.0
    assert [s.seed for s in moved.scenario_specs()] == [7, 8, 9]
    with pytest.raises(KeyError):
        tiny_query().with_override("nope", 1)
    with pytest.raises(KeyError):
        tiny_query().with_override("workload.nope", 1)
    with pytest.raises(ValueError):
        tiny_query().with_override("seed_base", -1)


def test_scenario_pool_shape():
    q = tiny_query(pool=4, seed_base=7)
    specs = q.scenario_specs()
    assert len(specs) == 4
    assert [s.seed for s in specs] == [7, 8, 9, 10]
    assert all(f"[seed={s.seed}]" in s.name for s in specs)
    # deadline/percentile are SLO readout knobs, not scenario shape:
    # the pool simulations are shared across them (spec_hash ignores
    # the point name)
    other = tiny_query(pool=4, seed_base=7, deadline=9.0, percentile=50.0)
    assert [s.spec_hash() for s in specs] == \
        [s.spec_hash() for s in other.scenario_specs()]


#: A valid non-default value, in wire form, for every scenario field a
#: query takes; sub-plans list only the sub-fields they change.
#: Applied in ScenarioSpec field order, every prefix is a valid spec
#: (churn_profile.rejoin_rate before recovery.election,
#: selection_policy before prediction_error).
NON_DEFAULT = {
    "platform": {"kind": "lan", "n_hosts": 16},
    "workload": {"app": "heat", "n": 64, "nit": 20, "level": "O3"},
    "protocol": {"scheme": "async", "cmax": 8},
    "tcp": {"window": 65536.0},
    "timers": {"peer_expiry": 90.0},
    "churn": [{"time": 0.5, "kind": "tracker", "target": ""}],
    "churn_profile": {"rate": 0.2, "rejoin_rate": 0.5},
    "recovery": {"election": True},
    "fault_plan": {"loss": 0.05, "partition_duration": 2.0,
                   "partition_zones": [[0], [1]]},
    "n_peers": 3,
    "deploy_peers": 6,
    "n_zones": 2,
    "spares": 1,
    "host_policy": "spread",
    "selection_policy": "predicted",
    "prediction_error": {"kind": "flip", "level": 0.5},
    "failure_history": [["peer-3", 2]],
    "time_limit": 30.0,
}


def _wire_value(spec, name):
    got = spec.to_dict()[name]
    want = NON_DEFAULT[name]
    return {k: got[k] for k in want} if isinstance(want, dict) else got


def test_every_scenario_field_is_queryable():
    """Every scenario-shaping axis a sweep exposes is queryable — set
    through the wire form or a --set override, it reaches every pool
    member — so 'query the grid you just swept' holds for a new axis
    with no serve-side edit."""
    from dataclasses import fields

    from repro.scenarios.spec import ScenarioSpec

    fixed = {"name", "kind", "seed"}  # derived per pool member
    assert set(NON_DEFAULT) == {f.name for f in fields(ScenarioSpec)} - fixed
    default = ScenarioSpec(name="default")
    wire = QuerySpec.from_dict(dict(NON_DEFAULT, deadline=1.0))
    overridden = QuerySpec(deadline=1.0)
    for f in fields(ScenarioSpec):
        if f.name in fixed:
            continue
        value = NON_DEFAULT[f.name]
        if isinstance(value, dict):
            for sub, v in value.items():
                overridden = overridden.with_override(f"{f.name}.{sub}", v)
        else:
            overridden = overridden.with_override(
                f.name, getattr(wire.scenario, f.name)
            )
    assert overridden == wire
    again = QuerySpec.from_dict(json.loads(json.dumps(wire.to_dict())))
    assert again == wire and again.query_hash() == wire.query_hash()
    for query in (wire, overridden, again):
        members = query.scenario_specs()
        assert len(members) == query.pool
        for name in NON_DEFAULT:
            for spec in members:
                assert getattr(spec, name) != getattr(default, name), name
                assert _wire_value(spec, name) == NON_DEFAULT[name], name
    # the fixed fields are not query fields, on the wire or as --set
    for name in sorted(fixed):
        with pytest.raises(ValueError, match="unknown query field"):
            QuerySpec.from_dict(dict(TINY, **{name: 5}))
        with pytest.raises(KeyError):
            tiny_query().with_override(name, 5)
        with pytest.raises(TypeError):
            QuerySpec(deadline=1.0, **{name: 5})
    with pytest.raises(ValueError, match="'churn'"):
        QuerySpec.from_dict(dict(TINY, churn=[{"when": 1.0}]))
    # prediction_error's cross-field guard is ScenarioSpec's
    with pytest.raises(ValueError, match="predicted"):
        tiny_query(prediction_error={"kind": "noise", "level": 0.5})


def test_serve_cli_rejects_seed_override():
    import argparse

    from repro.serve.cli import _UsageError, _build_query

    args = argparse.Namespace(deadline=1.0, percentile=90.0, pool=3,
                              seed_base=2011, set=["seed=5"])
    with pytest.raises(_UsageError, match="seed"):
        _build_query(args)


def test_sweep_results_reused_by_daemon(tmp_path):
    """The EXPERIMENTS.md walkthrough contract: a churn-grid sweep cell
    and the matching query's pool members hash to the same scenario
    specs, so the daemon prices a swept grid point with zero new
    simulations."""
    from dataclasses import replace

    from repro.scenarios import get_scenario

    base = get_scenario("churn-grid").base
    cell = replace(
        base,
        platform=replace(base.platform, kind="lan"),
        churn_profile=replace(base.churn_profile, rate=0.6),
    )
    q = QuerySpec(
        deadline=30.0, percentile=90.0, pool=5, seed_base=2011,
        workload=cell.workload, platform=cell.platform,
        churn_profile=cell.churn_profile, n_peers=cell.n_peers,
        deploy_peers=cell.deploy_peers, n_zones=cell.n_zones,
        spares=cell.spares, time_limit=cell.time_limit,
    )
    pool_hashes = [s.spec_hash() for s in q.scenario_specs()]
    swept_hashes = [
        replace(cell, seed=2011 + i).spec_hash() for i in range(5)
    ]
    assert pool_hashes == swept_hashes


def test_answer_roundtrip():
    a = Answer(query_hash="ab" * 8, pool=4, completed=3, deadline=2.0,
               percentile=90.0, value=1.5, meets=True,
               percentiles={"p50": 1.0, "p99.9": None},
               samples=[0.5, 1.0, 1.5, None])
    again = Answer.from_dict(json.loads(a.canonical_json()))
    assert again.canonical_json() == a.canonical_json()
    assert a.completion_rate == 0.75


# -- percentile properties ----------------------------------------------------

finite_pools = st.lists(
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(samples=finite_pools,
       p1=st.floats(min_value=0, max_value=100),
       p2=st.floats(min_value=0, max_value=100))
def test_percentile_monotone_in_p(samples, p1, p2):
    lo, hi = sorted((p1, p2))
    assert percentile(samples, lo) <= percentile(samples, hi)


@settings(max_examples=60, deadline=None)
@given(samples=finite_pools, p=st.floats(min_value=0, max_value=100),
       seed=st.integers(0, 2**16))
def test_percentile_permutation_invariant(samples, p, seed):
    shuffled = list(samples)
    random.Random(seed).shuffle(shuffled)
    assert percentile(shuffled, p) == percentile(samples, p)


def test_percentile_exact_on_known_pools():
    assert percentile([3.0], 0) == 3.0
    assert percentile([3.0], 100) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 25) == 1.75
    # rank points are exact order statistics: p = 100k/(n-1)
    pool = [10.0, 20.0, 30.0, 40.0, 50.0]
    for k, want in enumerate(pool):
        assert percentile(pool, 100.0 * k / 4) == want


def test_percentile_bounds_and_inf():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], -1)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0, math.nan], 50)
    pool = [1.0, 2.0, math.inf, math.inf]
    assert percentile(pool, 0) == 1.0
    assert math.isinf(percentile(pool, 90))
    assert math.isinf(percentile(pool, 100))  # never NaN
    assert percentile_summary(pool)["p99.9"] is None
    # an interpolation landing below the failed tail stays finite
    assert percentile_summary([1.0, 2.0, 3.0, math.inf])["p50"] == \
        pytest.approx(2.5)


@settings(max_examples=40, deadline=None)
@given(samples=finite_pools)
def test_percentile_within_sample_range(samples):
    for p in (0, 37.5, 50, 99, 100):
        est = percentile(samples, p)
        assert min(samples) <= est <= max(samples)


def test_serve_answer_matches_compare_percentiles(tmp_path):
    """The one-estimator contract: a daemon answer's percentiles are
    the ``compare --percentiles`` columns over the same pool."""
    engine = QueryEngine(cache_dir=tmp_path)
    query = tiny_query(pool=5)
    answer = engine.answer(query)
    points = [
        {"name": spec.name, "result": run_scenario(spec).to_dict()}
        for spec in query.scenario_specs()
    ]
    sweep = SweepData(label="pool", points=points)
    report = compare_sweeps(sweep, sweep, metric="makespan",
                            over=("seed",), percentiles=(50.0, 90.0, 99.0))
    (row,) = report.rows
    assert answer.completed == query.pool  # all finite: comparable
    for p in (50.0, 90.0, 99.0):
        assert row.pcts_a[pct_key(p)] == pytest.approx(
            percentile([s for s in answer.samples], p)
        )
    assert row.pcts_a == row.pcts_b


def test_compare_percentiles_rejects_bad_p(tmp_path):
    sweep = SweepData(label="x", points=[])
    with pytest.raises(ValueError):
        compare_sweeps(sweep, sweep, percentiles=(101.0,))


# -- engine counters ----------------------------------------------------------

def test_engine_cold_then_memo_hit(tmp_path):
    engine = QueryEngine(cache_dir=tmp_path)
    q = tiny_query()
    a1 = engine.answer(q)
    assert engine.stats.get("computed") == 1
    assert engine.stats.get("scenario_runs") == q.pool
    # the no-resimulation pin: repeats add memo_hits and nothing else
    a2 = engine.answer(q)
    a3 = engine.answer(q)
    assert a1.canonical_json() == a2.canonical_json() == a3.canonical_json()
    assert engine.stats.get("memo_hits") == 2
    assert engine.stats.get("computed") == 1
    assert engine.stats.get("scenario_runs") == q.pool


def test_engine_hot_path_touches_no_disk(tmp_path):
    """Satellite 3's regression pin: after the first answer, repeats
    perform zero on-disk cache I/O — and to make 'zero' unfakeable,
    the disk tiers are rigged to explode if touched."""
    engine = QueryEngine(cache_dir=tmp_path)
    q = tiny_query()
    engine.answer(q)
    io_before = engine.disk_io()

    def _boom(*_a, **_k):
        raise AssertionError("hot path touched a disk cache")

    engine.result_cache.load = _boom
    engine.result_cache.store = _boom
    engine.answer_cache.load = _boom
    engine.answer_cache.store = _boom
    for _ in range(50):
        engine.answer(q)
    assert engine.disk_io() == io_before
    assert engine.stats.get("memo_hits") == 50


def test_engine_shares_pool_across_deadlines(tmp_path):
    """Queries differing only in SLO readout (deadline/percentile)
    reuse the same pool simulations."""
    engine = QueryEngine(cache_dir=tmp_path)
    engine.answer(tiny_query(deadline=1.0))
    runs = engine.stats.get("scenario_runs")
    engine.answer(tiny_query(deadline=2.0))
    engine.answer(tiny_query(deadline=3.0, percentile=50.0))
    assert engine.stats.get("scenario_runs") == runs
    assert engine.stats.get("computed") == 3  # re-folded, not re-run


def test_engine_lru_eviction_falls_back_to_disk(tmp_path):
    engine = QueryEngine(cache_dir=tmp_path, memo_capacity=2)
    q1, q2, q3 = (tiny_query(deadline=d) for d in (1.0, 2.0, 3.0))
    a1 = engine.answer(q1)
    engine.answer(q2)
    engine.answer(q3)  # evicts q1
    assert engine.stats.get("memo_evictions") == 1
    before = engine.stats.get("computed")
    again = engine.answer(q1)
    assert engine.stats.get("answer_disk_hits") == 1
    assert engine.stats.get("computed") == before  # disk tier, no recompute
    assert again.canonical_json() == a1.canonical_json()


def test_engine_store_tier_promotes_into_result_cache(tmp_path):
    """A pool only a fleet recorded (result-store log, no per-spec
    cache files) answers from the store tier, and the promotion writes
    each member's result-cache file: the next engine over the same
    directory reads the faster tier and never re-probes the store."""
    from repro.fleet.store import ResultStore
    from repro.scenarios.runner import ResultCache

    q = tiny_query()
    specs = q.scenario_specs()
    store = ResultStore(tmp_path)
    for spec in specs:
        store.record(spec, run_scenario(spec), label="fleet",
                     scenario="tiny")
    clear_memo()
    assert len(ResultCache(tmp_path)) == 0

    first = QueryEngine(cache_dir=tmp_path)
    answer = first.answer(q)
    assert first.stats.get("store_hits") == q.pool
    assert first.stats.get("scenario_runs") == 0
    assert first.stats.get("result_disk_hits") == 0
    cache = ResultCache(tmp_path)
    assert all(cache.get(spec) is not None for spec in specs)

    clear_memo()  # a new process
    second = QueryEngine(cache_dir=tmp_path)
    again = second.answer(q.with_override("percentile", 50.0))
    assert second.stats.get("result_disk_hits") == q.pool
    assert second.stats.get("store_hits") == 0
    assert second.stats.get("scenario_runs") == 0
    assert answer.pool == again.pool == q.pool


def test_engine_memory_only_mode():
    clear_memo()
    engine = QueryEngine(cache_dir=None)
    q = tiny_query()
    a1 = engine.answer(q)
    a2 = engine.answer(q)
    assert a1.canonical_json() == a2.canonical_json()
    assert engine.disk_io() == 0
    assert engine.preload_answers() == 0


def test_engine_restart_reuses_disk_answers(tmp_path):
    engine1 = QueryEngine(cache_dir=tmp_path)
    queries = [tiny_query(deadline=d) for d in (0.5, 1.0, 1.5)]
    first = [engine1.answer(q).canonical_json() for q in queries]
    clear_memo()  # a new process: no in-memory scenario results either
    engine2 = QueryEngine(cache_dir=tmp_path)
    assert engine2.preload_answers() == len(queries)
    second = [engine2.answer(q).canonical_json() for q in queries]
    assert second == first
    assert engine2.stats.get("scenario_runs") == 0
    assert engine2.stats.get("computed") == 0
    assert engine2.stats.get("memo_hits") == len(queries)


def test_engine_rejects_bad_config(tmp_path):
    with pytest.raises(ValueError):
        QueryEngine(cache_dir=tmp_path, memo_capacity=0)


# -- batch pricing ------------------------------------------------------------

def test_group_pricer_amortizes_enumeration():
    members = tuple((f"n{i}", 3e9 - i * 1e8) for i in range(8))
    plans = [WorkloadPlan(app="heat", n=64, nit=20, level=lvl)
             for lvl in ("O0", "O1", "O3")]
    pricer = GroupPricer()
    specs = [workloads.make_workload(p, 4) for p in plans]
    priced = pricer.price_batch(specs, members, 4)
    assert pricer.enumerations == 1  # one pool -> one enumeration
    assert pricer.pricings == 3
    # each answer is the brute-force argmin with the Submitter tie-break
    for spec, (group, makespan) in zip(specs, priced):
        want = min(
            candidate_groups(members, 4),
            key=lambda g: (predict_makespan(spec, g),
                           tuple(sorted(n for n, _s in g))),
        )
        assert group == want
        assert makespan == predict_makespan(spec, want)
    # a different pool enumerates again
    pricer.price_batch(specs[:1], members[:5], 4)
    assert pricer.enumerations == 2


def test_engine_price_batch_validation(tmp_path):
    engine = QueryEngine(cache_dir=tmp_path)
    plat = PlatformPlan(kind="cluster", n_hosts=8)
    wl = [WorkloadPlan(app="heat", n=64, nit=20, level="O1")]
    with pytest.raises(ValueError):
        engine.price_batch(plat, pool=2, n_peers=4, workload_plans=wl)
    with pytest.raises(ValueError):
        engine.price_batch(plat, pool=99, n_peers=4, workload_plans=wl)
    priced = engine.price_batch(plat, pool=6, n_peers=2, workload_plans=wl)
    assert len(priced) == 1
    assert len(priced[0]["members"]) == 2
    assert priced[0]["makespan"] > 0


def test_price_batch_caches_traces_under_the_engine_root(tmp_path):
    """A fresh engine's pricing writes the dPerf traces it used into its
    own ``traces/``, whatever trace directory earlier work named."""
    engine = QueryEngine(cache_dir=tmp_path)
    plat = PlatformPlan(kind="cluster", n_hosts=8)
    wl = [WorkloadPlan(app="heat", n=64, nit=20, level=level)
          for level in ("O1", "O3")]
    engine.price_batch(plat, pool=4, n_peers=2, workload_plans=wl)
    assert len(list((tmp_path / "traces").glob("*.json"))) == 2
    # a warm price reads its traces from the memo and touches no disk
    traces = engine.ctx.trace_cache(tmp_path / "traces")
    io = (traces.disk_reads, traces.disk_writes)
    engine.price_batch(plat, pool=4, n_peers=2, workload_plans=wl)
    assert (traces.disk_reads, traces.disk_writes) == io


# -- protocol units -----------------------------------------------------------

def _protocol_error(line):
    with pytest.raises(ProtocolError) as excinfo:
        parse_request(line)
    return excinfo.value.error


def test_parse_request_envelope():
    ok = parse_request(encode({"op": "ping"}).rstrip(b"\n"))
    assert ok["op"] == "ping"
    assert _protocol_error(b"not json at all") == "bad-json"
    assert _protocol_error(b'{"op": "ping"') == "bad-json"  # truncated
    assert _protocol_error(b"\xff\xfe\x01") == "bad-json"  # not UTF-8
    assert _protocol_error(b"[1, 2]") == "bad-request"
    assert _protocol_error(b'{"op": "frobnicate"}') == "unknown-op"
    assert _protocol_error(b'{}') == "unknown-op"
    assert _protocol_error(b'{"op": "ping", "protocol": 99}') == \
        "bad-protocol-version"
    assert _protocol_error(b"x" * (MAX_LINE_BYTES + 1)) == "line-too-long"


def test_parse_address_forms():
    assert parse_address("127.0.0.1:7011") == \
        (socket.AF_INET, ("127.0.0.1", 7011))
    assert parse_address("/tmp/serve.sock") == \
        (socket.AF_UNIX, "/tmp/serve.sock")
    # a non-numeric port is a Unix path, not a TCP parse error
    assert parse_address("weird:name")[0] == socket.AF_UNIX


# -- daemon adversarial -------------------------------------------------------

@pytest.fixture
def daemon(tmp_path):
    engine = QueryEngine(cache_dir=tmp_path / "cache")
    with ServeDaemon(engine, address="127.0.0.1:0") as d:
        yield d


def test_daemon_survives_garbage_and_keeps_serving(daemon):
    with ServeClient(daemon.address) as client:
        reply = client.request_raw(b"}{ total garbage \xc3\x28\n")
        assert reply["ok"] is False
        assert reply["error"] == "bad-json"
        # same connection still serves
        assert client.request({"op": "ping"})["ok"] is True
        reply = client.request({"op": "query", "protocol": 123,
                                "query": TINY})
        assert reply["error"] == "bad-protocol-version"
        reply = client.request({"op": "query",
                                "query": dict(TINY, deadlien=1.0)})
        assert reply["ok"] is False
        assert reply["error"] == "bad-query"
        assert "deadlien" in reply["detail"]
        # a non-integer pool, seed base or scenario count is the
        # client's error too, not an internal one
        for bad in ({"pool": 2.0}, {"seed_base": 2011.5},
                    {"n_peers": 2.0}, {"workload": "heat"}):
            reply = client.request({"op": "query",
                                    "query": dict(TINY, **bad)})
            assert reply["error"] == "bad-query", bad
        stats = client.request({"op": "stats"})["stats"]
        assert stats.get("internal_errors", 0) == 0
        assert client.request({"op": "ping"})["ok"] is True


def test_daemon_truncated_frame_gets_no_phantom_reply(daemon):
    # a half-sent request (no newline) must never be answered
    family, sockaddr = parse_address(daemon.address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(sockaddr)
    sock.sendall(b'{"op": "ping"')  # no terminator
    sock.settimeout(0.5)
    with pytest.raises(socket.timeout):
        sock.recv(1024)
    sock.close()
    # and the daemon is still fine
    with ServeClient(daemon.address) as client:
        assert client.request({"op": "ping"})["ok"] is True


def test_daemon_oversized_batch_is_atomic(daemon):
    engine_queries = daemon.engine.stats.get("queries")
    with ServeClient(daemon.address) as client:
        reply = client.request(
            {"op": "batch", "queries": [TINY] * (MAX_BATCH + 1)}
        )
        assert reply["error"] == "batch-too-large"
        # one bad query poisons the whole batch *before* any compute
        reply = client.request(
            {"op": "batch",
             "queries": [TINY, dict(TINY, deadline=-5.0)]}
        )
        assert reply["error"] == "bad-query"
    assert daemon.engine.stats.get("queries") == engine_queries


def test_daemon_batch_needs_a_list(daemon):
    with ServeClient(daemon.address) as client:
        assert client.request({"op": "batch"})["error"] == "bad-request"
        assert client.request({"op": "batch", "queries": "x"})["error"] \
            == "bad-request"
        assert client.request({"op": "query"})["error"] == "bad-request"


def test_daemon_survives_disconnect_mid_response(daemon):
    # fire a query and slam the connection without reading the reply
    for _ in range(3):
        family, sockaddr = parse_address(daemon.address)
        sock = socket.socket(family, socket.SOCK_STREAM)
        sock.connect(sockaddr)
        sock.sendall(encode({"op": "query", "query": TINY}))
        sock.close()
    deadline = time.time() + 5.0
    while time.time() < deadline:
        with ServeClient(daemon.address) as client:
            if client.request({"op": "ping"})["ok"]:
                break
    else:
        pytest.fail("daemon stopped serving after client disconnects")


def test_daemon_price_op_validation(daemon):
    with ServeClient(daemon.address) as client:
        assert client.request({"op": "price"})["error"] == "bad-request"
        assert client.request({"op": "price", "workloads": "heat"}
                              )["error"] == "bad-request"  # envelope
        reply = client.request({"op": "price",
                                "workloads": [{"sizzle": 1}]})
        assert reply["ok"] is False
        reply = client.request(
            {"op": "price", "platform": TINY["platform"],
             "workloads": [TINY["workload"]], "n_peers": 2, "pool": 4}
        )
        assert reply["ok"] is True
        assert reply["priced"][0]["makespan"] > 0
        # malformed counts and sub-plans are the client's error, not
        # the daemon's: bad-query, as in a query or batch, and no
        # internal-error bump
        good = {"op": "price", "platform": TINY["platform"],
                "workloads": [TINY["workload"]]}
        for bad in ({"n_peers": "2"}, {"pool": "4"}, {"n_peers": None},
                    {"n_peers": True}, {"pool": 4.0},
                    {"platform": "cluster"}, {"platform": {"n_hostz": 8}},
                    {"platform": {"n_hosts": 8.0}},
                    {"workloads": ["heat"]}, {"workloads": [{"n": 64.0}]}):
            reply = client.request(dict(good, **bad))
            assert reply["error"] == "bad-query", bad
        stats = client.request({"op": "stats"})["stats"]
        assert stats.get("internal_errors", 0) == 0


def test_daemon_over_unix_socket(tmp_path):
    engine = QueryEngine(cache_dir=tmp_path / "cache")
    path = str(tmp_path / "serve.sock")
    with ServeDaemon(engine, address=path) as daemon:
        assert daemon.address == path
        with ServeClient(path) as client:
            assert client.request({"op": "ping"})["ok"] is True
            reply = client.request({"op": "query", "query": TINY})
            assert reply["ok"] is True
    # the socket file is cleaned up on drain
    assert not (tmp_path / "serve.sock").exists()


def test_daemon_shutdown_op_drains(tmp_path):
    engine = QueryEngine(cache_dir=tmp_path / "cache")
    daemon = ServeDaemon(engine, address="127.0.0.1:0").start()
    with ServeClient(daemon.address) as client:
        assert client.request({"op": "shutdown"})["draining"] is True
    deadline = time.time() + 5.0
    while daemon.running and time.time() < deadline:
        time.sleep(0.05)
    assert not daemon.running
    daemon.stop()  # idempotent


def test_daemon_no_thread_leak(tmp_path):
    # thread *identity* sets, not counts: an unrelated thread from a
    # preceding test exiting (or persisting) mid-window shifts a
    # count-based baseline and fails this test depending on suite
    # order — only threads this daemon created can count as leaked
    baseline = set(threading.enumerate())
    engine = QueryEngine(cache_dir=tmp_path / "cache")
    # workers bounds concurrent *open* connections: six parked clients
    # need six connection slots
    with ServeDaemon(engine, address="127.0.0.1:0", workers=6) as daemon:
        clients = [ServeClient(daemon.address) for _ in range(6)]
        for client in clients:
            assert client.request({"op": "ping"})["ok"] is True
        assert set(threading.enumerate()) - baseline  # daemon threads live
        for client in clients:
            client.close()
    deadline = time.time() + 5.0
    while set(threading.enumerate()) - baseline and time.time() < deadline:
        time.sleep(0.05)
    leaked = set(threading.enumerate()) - baseline
    assert not leaked, f"leaked threads: {[t.name for t in leaked]}"


def test_daemon_stats_op(daemon):
    with ServeClient(daemon.address) as client:
        client.request({"op": "query", "query": TINY})
        reply = client.request({"op": "stats"})
    assert reply["ok"] is True
    assert reply["stats"]["computed"] == 1
    assert reply["stats"]["scenario_runs"] == TINY["pool"]
    assert reply["daemon"]["protocol"] == PROTOCOL_VERSION
    assert reply["daemon"]["address"] == daemon.address


def test_daemon_internal_error_logs_traceback(caplog):
    """An engine fault becomes an ``internal-error`` reply, the daemon
    keeps serving, and the traceback is logged on ``repro.serve``."""
    class BrokenEngine(QueryEngine):
        def answer(self, query, deadline=None):
            raise RuntimeError("engine exploded")

    engine = BrokenEngine(cache_dir=None)
    with caplog.at_level(logging.ERROR, logger="repro.serve"):
        with ServeDaemon(engine, address="127.0.0.1:0") as daemon:
            with ServeClient(daemon.address) as client:
                reply = client.request({"op": "query", "query": TINY})
                assert client.request({"op": "ping"})["ok"] is True
    assert reply["ok"] is False
    assert reply["error"] == "internal-error"
    assert reply["detail"] == "engine exploded"
    assert engine.stats.get("internal_errors") == 1
    (record,) = [r for r in caplog.records if r.name == "repro.serve"]
    assert record.exc_info is not None
    assert record.exc_info[0] is RuntimeError
    assert "engine exploded" in str(record.exc_info[1])


# -- identity: serial vs concurrent, restart recovery -------------------------

def _mixed_stream(count, seed=0):
    """A deterministic mixed query stream over a few workload shapes."""
    rng = random.Random(seed)
    distinct = [
        dict(TINY, deadline=0.25 + 0.05 * i, percentile=p,
             workload=dict(TINY["workload"], nit=nit))
        for i in range(5)
        for p in (50.0, 90.0, 99.0)
        for nit in (20, 25)
    ]
    return [distinct[rng.randrange(len(distinct))] for _ in range(count)]


def _serve_stream(address, payloads, out, idx):
    with ServeClient(address, timeout=60.0) as client:
        for payload in payloads:
            reply = client.request({"op": "query", "query": payload})
            assert reply["ok"], reply
            out[idx].append(
                json.dumps(reply["answer"], sort_keys=True,
                           separators=(",", ":"))
            )


def test_serial_vs_concurrent_byte_identity(tmp_path):
    engine = QueryEngine(cache_dir=tmp_path / "cache")
    stream = _mixed_stream(80, seed=1)
    with ServeDaemon(engine, address="127.0.0.1:0") as daemon:
        serial = [[]]
        _serve_stream(daemon.address, stream, serial, 0)
        expected = dict(zip(
            (QuerySpec.from_dict(p).query_hash() for p in stream),
            serial[0],
        ))
        # 4 clients, each replaying its own shuffle of the same stream
        shuffles = []
        for i in range(4):
            s = list(stream)
            random.Random(100 + i).shuffle(s)
            shuffles.append(s)
        outs = [[] for _ in range(4)]
        threads = [
            threading.Thread(target=_serve_stream,
                             args=(daemon.address, shuffles[i], outs, i))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for i in range(4):
        for payload, got in zip(shuffles[i], outs[i]):
            qh = QuerySpec.from_dict(payload).query_hash()
            assert got == expected[qh], \
                "concurrent answer drifted from serial replay"


def test_restarted_daemon_reanswers_identically(tmp_path):
    """Kill-and-restart identity: a fresh daemon over the same cache
    dir re-answers the same stream byte-identically, from the on-disk
    memo, with zero new simulations."""
    cache = tmp_path / "cache"
    stream = _mixed_stream(40, seed=2)
    engine1 = QueryEngine(cache_dir=cache)
    with ServeDaemon(engine1, address="127.0.0.1:0") as daemon:
        first = [[]]
        _serve_stream(daemon.address, stream, first, 0)
    # "kill": drop every in-memory artifact a live daemon had
    clear_memo()
    del engine1
    engine2 = QueryEngine(cache_dir=cache)
    assert engine2.preload_answers() > 0
    with ServeDaemon(engine2, address="127.0.0.1:0") as daemon:
        second = [[]]
        _serve_stream(daemon.address, stream, second, 0)
    assert second[0] == first[0]
    assert engine2.stats.get("scenario_runs") == 0
    assert engine2.stats.get("computed") == 0


# -- soak ---------------------------------------------------------------------

SOAK_QUERIES = 5000
SOAK_CLIENTS = 4
#: Pinned throughput floor (queries/s) across the whole concurrent
#: soak. Local runs sustain thousands/s; the floor only has to catch
#: "the memo stopped carrying the hot path" (a >10x collapse).
SOAK_MIN_QPS = 150.0


def test_soak_sustained_mixed_load(tmp_path):
    """>=5k mixed queries over >=4 concurrent clients: zero answer
    drift vs serial replay, pinned throughput floor, counter-verified
    cache behaviour.  Exempt (by name) from the CI duration tripwire:
    sustained wall-clock is the workload here.
    """
    engine = QueryEngine(cache_dir=tmp_path / "cache")
    stream = _mixed_stream(SOAK_QUERIES, seed=3)
    per_client = [stream[i::SOAK_CLIENTS] for i in range(SOAK_CLIENTS)]
    with ServeDaemon(engine, address="127.0.0.1:0",
                     workers=SOAK_CLIENTS) as daemon:
        # serial replay of the distinct queries = the reference truth
        distinct = {QuerySpec.from_dict(p).query_hash(): p for p in stream}
        serial = [[]]
        _serve_stream(daemon.address, list(distinct.values()), serial, 0)
        expected = dict(zip(distinct.keys(), serial[0]))
        runs_after_serial = engine.stats.get("scenario_runs")

        outs = [[] for _ in range(SOAK_CLIENTS)]
        threads = [
            threading.Thread(target=_serve_stream,
                             args=(daemon.address, per_client[i], outs, i))
            for i in range(SOAK_CLIENTS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0

    # zero drift: every one of the 5k concurrent answers byte-matches
    # its serial-replay reference
    answered = 0
    for i in range(SOAK_CLIENTS):
        assert len(outs[i]) == len(per_client[i])
        for payload, got in zip(per_client[i], outs[i]):
            qh = QuerySpec.from_dict(payload).query_hash()
            assert got == expected[qh], "soak answer drift"
            answered += 1
    assert answered == SOAK_QUERIES

    # the soak added zero simulations: pure memo traffic
    assert engine.stats.get("scenario_runs") == runs_after_serial
    assert engine.stats.get("memo_hits") >= SOAK_QUERIES

    qps = SOAK_QUERIES / wall
    print(f"soak: {SOAK_QUERIES} queries / {SOAK_CLIENTS} clients in "
          f"{wall:.2f}s = {qps:.0f} q/s")
    assert qps >= SOAK_MIN_QPS, (
        f"soak throughput {qps:.0f} q/s under the {SOAK_MIN_QPS} floor"
    )


# -- tripwire -----------------------------------------------------------------

def test_tripwire_constant_and_exemptions():
    assert tripwire.TRIPWIRE_SECONDS == 20.0
    report = [
        " 1.01s call     tests/test_x.py::test_fast",
        "25.00s call     tests/test_x.py::test_slow",
        "30.50s setup    tests/test_y.py::test_slow_setup",
        f"99.00s call    tests/test_serve.py::test_soak_sustained_mixed_load",
        "0.20s teardown tests/test_x.py::test_fast",
    ]
    slow = tripwire.check(report)
    assert slow == [
        "25.00s call     tests/test_x.py::test_slow",
        "30.50s setup    tests/test_y.py::test_slow_setup",
    ]
    assert tripwire.check(report, limit=1000.0) == []


def test_tripwire_exemption_names_a_real_soak_test():
    """A renamed soak test must not silently lose its exemption."""
    here = {name for name in globals() if name.startswith("test_soak_")}
    assert here, "no soak test left in tests/test_serve.py"
    for marker in tripwire.EXEMPT:
        path, _, prefix = marker.partition("::")
        assert path == "tests/test_serve.py"
        assert any(name.startswith(prefix) for name in here), (
            f"tripwire exemption {marker!r} matches no test in this file"
        )


def test_tripwire_main(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("0.5s call tests/test_x.py::test_ok\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("50.0s call tests/test_x.py::test_slow\n")
    assert tripwire.main([str(good)]) == 0
    assert tripwire.main([str(bad)]) == 1
    assert tripwire.main([]) == 2


# -- CLI ----------------------------------------------------------------------

def test_cli_query_local(tmp_path, capsys):
    from repro.serve.cli import main

    rc = main(["query", "--local", "--cache-dir", str(tmp_path),
               "--deadline", "1.0", "--percentile", "90", "--pool", "3",
               "--set", "workload.app=heat", "--set", "workload.n=64",
               "--set", "workload.nit=20", "--set", "workload.level=O1",
               "--set", "platform.n_hosts=8", "--set", "n_peers=2"])
    assert rc == 0
    answer = json.loads(capsys.readouterr().out.strip())
    assert answer["pool"] == 3
    assert answer["percentile"] == 90.0
    assert answer["query_hash"] == tiny_query().query_hash()


def test_cli_bad_usage(tmp_path, capsys):
    from repro.serve.cli import main

    assert main(["query", "--local", "--no-cache", "--deadline", "-1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["query", "--local", "--no-cache", "--deadline", "1",
                 "--set", "nope=1"]) == 2
    assert main(["query", "--address", "127.0.0.1:1",  # nothing listens
                 "--deadline", "1"]) == 2


def test_cli_batch_and_stats_against_live_daemon(tmp_path, capsys):
    from repro.serve.cli import main

    engine = QueryEngine(cache_dir=tmp_path / "cache")
    sock_path = str(tmp_path / "serve.sock")
    ndjson = tmp_path / "queries.ndjson"
    ndjson.write_text("".join(
        json.dumps(dict(TINY, deadline=0.5 + 0.1 * i)) + "\n"
        for i in range(4)
    ))
    with ServeDaemon(engine, address=sock_path):
        rc = main(["batch", "--address", sock_path, str(ndjson)])
        out = capsys.readouterr().out
        assert rc == 0
        answers = [json.loads(line) for line in out.splitlines()]
        assert len(answers) == 4
        assert all(a["pool"] == 3 for a in answers)
        rc = main(["stats", "--address", sock_path])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["ok"] is True
        assert stats["stats"]["served"] == 4
