"""World teardown: a finished run's simulated world dies by refcount.

Every run ends with ``Overlay.close()`` (reference and deploy
points), so the simulator, overlay and network of a point are freed as
soon as its result is built, without waiting for the cyclic garbage
collector.  These tests run with the collector disabled: the run's
``Simulator`` must be dead once ``run_scenario`` returns, and a
collection afterwards must find no ``repro`` object at all.  The soak
tests then check that a serve engine and a serial sweep hold no world
alive between runs (DESIGN.md, "World lifecycle").
"""

import gc
import weakref

import pytest

from repro.desim import Simulator
from repro.net import FluidNetwork
from repro.p2pdc import Overlay
from repro.scenarios import SweepRunner, get_scenario, run_scenario
from repro.scenarios.runner import (
    RunContext, _deploy, _deploy_template, clear_memo, execute_reference,
)
from repro.scenarios.spec import PlatformPlan, ScenarioSpec, WorkloadPlan
from repro.serve import QueryEngine, QuerySpec

FLAT = get_scenario("flat-allocation").base


@pytest.fixture
def worlds(monkeypatch):
    """Weak references to every Simulator, Overlay and FluidNetwork
    built while the test runs."""
    refs = []
    for cls in (Simulator, Overlay, FluidNetwork):
        def init(self, *args, _orig=cls.__init__, **kwargs):
            _orig(self, *args, **kwargs)
            refs.append(weakref.ref(self))
        monkeypatch.setattr(cls, "__init__", init)
    return refs


def _alive(refs):
    return [type(obj).__name__ for obj in (r() for r in refs)
            if obj is not None]


def _repro_garbage():
    """The ``repro`` objects a full collection finds unreachable."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = sorted({f"{type(o).__module__}.{type(o).__qualname__}"
                        for o in gc.garbage
                        if type(o).__module__.startswith("repro.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


def _assert_freed_by_refcount(spec, worlds):
    ctx = RunContext()
    run_scenario(spec, ctx)  # warm the templates and dPerf memos
    gc.collect()
    worlds.clear()
    gc.disable()
    try:
        result = run_scenario(spec, ctx)
        assert worlds, "the run built no simulator"
        assert _alive(worlds) == []
        assert _repro_garbage() == []
    finally:
        gc.enable()
    return result


def _injected_engine_failure(monkeypatch):
    """Make the workload's run stop with an engine error while
    transfers are in their data phase (the deployment's settle run is
    left alone)."""
    run_until = Overlay.run_until

    def failing(self, waitable, limit=1e6):
        if limit < 1e7:
            return run_until(self, waitable, limit)
        while not self.net.active_flow_count and not waitable.triggered:
            self.sim.run(until=self.now + 1e-3)
        assert self.net.active_flow_count
        raise RuntimeError("injected engine failure")

    monkeypatch.setattr(Overlay, "run_until", failing)


@pytest.mark.parametrize("spec", [
    pytest.param(FLAT, id="plain"),
    pytest.param(get_scenario("recovery-grid").base
                 .with_override("churn_profile.rate", 0.8)
                 .with_override("churn_profile.rejoin_rate", 2.0),
                 id="churn-rejoin"),
    pytest.param(get_scenario("coordinator-grid").base
                 .with_override("churn_profile.coordinator_churn_rate", 1.5),
                 id="coordinator-election"),
    pytest.param(get_scenario("partition-grid").base
                 .with_override("fault_plan.loss", 0.05)
                 .with_override("fault_plan.partition_duration", 8.0),
                 id="partition-loss"),
    pytest.param(get_scenario("large-overlay-512").base
                 .with_override("platform.n_hosts", 32)
                 .with_override("n_peers", 4),
                 id="deploy"),
    pytest.param(ScenarioSpec(
        name="tiny", kind="predict",
        platform=PlatformPlan(kind="cluster", n_hosts=4),
        workload=WorkloadPlan(app="heat", n=64, nit=30, level="O1"),
        n_peers=2), id="predict"),
])
def test_world_freed_by_refcount(spec, worlds):
    result = _assert_freed_by_refcount(spec, worlds)
    assert result.ok


def test_world_of_a_timed_out_point_freed(worlds):
    result = _assert_freed_by_refcount(
        FLAT.with_override("time_limit", 0.3), worlds)
    assert not result.ok and result.reason == "computation timed out"


def test_world_of_an_engine_error_freed(worlds, monkeypatch):
    _injected_engine_failure(monkeypatch)
    result = _assert_freed_by_refcount(FLAT, worlds)
    assert not result.ok and result.reason == "injected engine failure"


def test_execute_reference_keeps_its_world_open():
    dep, outcome = execute_reference(FLAT)
    assert outcome.ok
    assert dep.overlay.registry and dep.peers[0].overlay is dep.overlay


def test_close_leaves_the_deployment_template_intact():
    """Close must not touch what the next point of the same shape
    reuses: the platform, the zone plan and the route-intern dict."""
    ctx = RunContext()
    template = _deploy_template(FLAT, ctx)
    dep = _deploy(FLAT, ctx)
    routes = dict(template.route_intern)
    assert routes and dep.overlay.net._routes is template.route_intern
    dep.overlay.close()
    assert template.route_intern == routes
    assert template.platform.hosts and template.plan.zones
    assert run_scenario(FLAT, ctx) == run_scenario(FLAT, RunContext())


def test_serve_engine_holds_no_world_between_queries(tmp_path, worlds):
    engine = QueryEngine(cache_dir=tmp_path, ctx=RunContext())
    queries = [QuerySpec.from_dict({
        "deadline": 1.0, "percentile": 90.0, "pool": 1,
        "seed_base": 2000 + i, "n_peers": 2,
        "workload": {"app": "heat", "n": 64, "nit": 20, "level": "O1"},
        "platform": {"kind": "cluster", "n_hosts": 8},
    }) for i in range(20)]
    engine.answer(queries[0])  # warm: calibration, templates
    gc.collect()
    gc.disable()
    try:
        for query in queries[1:]:
            engine.answer(query)
            assert _alive(worlds) == []
        assert engine.stats.get("scenario_runs") == 20
        assert _repro_garbage() == []
    finally:
        gc.enable()


def test_serial_sweep_holds_no_world_between_points(worlds):
    points = get_scenario("churn-grid").points()[:10] \
        + get_scenario("partition-grid").points()[:10]
    clear_memo()  # every point a miss, so every point runs
    runner = SweepRunner(cache_dir=None, max_workers=1)
    runner.run(points[:1], parallel=False)  # warm
    gc.collect()
    alive_after = []
    gc.disable()
    try:
        runner.run(points[1:], parallel=False,
                   on_result=lambda spec, result:
                   alive_after.append(_alive(worlds)))
        assert len(alive_after) == 19
        assert alive_after == [[]] * 19
        assert _repro_garbage() == []
    finally:
        gc.enable()
        clear_memo()
