"""The benchmark's workloads: inputs from the seed, set-up, units and
output checks.

The program receives only the generated inputs (specs, queries); the
seed never reaches it as a seed of its own.  Each workload yields
:class:`~harness.Unit` objects; whatever a generator does between two
yields (clearing caches, restarting an engine) is untimed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
from typing import Any, Dict, Iterator, List, Optional, Tuple

from harness import Unit

#: The seed whose outputs are pinned in expected.json.
DEFAULT_SEED = 0
#: Processes that share a run's units, one after another, each with
#: its own set-up and probes (see ``Workload.parts``).
PROCESSES = 3
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_expected(name: str) -> Dict[str, Any]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh).get(name, {})


class Workload:
    """Base: one named workload at one seed."""

    name = ""
    why = ""
    #: Modules a user of this workload imports (timed in set-up).
    imports: Tuple[str, ...] = ()
    #: Units per second of ``--seconds`` on the reference host: the run
    #: is a fixed amount of work, so one seed and run length always
    #: gives the same inputs in the same order.
    units_per_second = 1.0
    #: A process's share is a whole number of these units.
    granule = 1
    #: The highest percentile ``unit_tail_ms`` may be (it also needs
    #: ``harness.TAIL_BEYOND`` units beyond it).
    tail_cap = 99.0

    def __init__(self, seed: int, work_dir: str, pin: bool = False) -> None:
        self.seed = seed
        self.work_dir = work_dir
        #: output key → output, what ``--pin`` writes to expected.json
        self.outputs: Dict[str, Any] = {}
        #: output key → pinned output the checks compare against
        self.expected: Dict[str, Any] = (
            {} if pin or seed != DEFAULT_SEED else load_expected(self.name))
        #: result stores of the engines the units answered through
        #: (serve-restart), for their sidecar counters
        self.stores: List[Any] = []

    def n_units(self, seconds: float) -> int:
        return max(1, round(seconds * self.units_per_second))

    def parts(self, n: int) -> List[Tuple[int, int]]:
        """``(first, count)`` of each process's share of a run's ``n``
        units.  The same code is ±7% faster or slower in one process
        than in the next (memory layout; the probe, with a layout of its
        own, cannot see it), so a run pools several processes."""
        granules = -(-n // self.granule)
        k = max(1, min(PROCESSES, granules))
        bounds = [min(n, granules * j // k * self.granule)
                  for j in range(k)] + [n]
        return [(a, b - a) for a, b in zip(bounds, bounds[1:])]

    def fixture(self) -> None:
        """Untimed input generation (before set-up is timed)."""

    def reset(self) -> None:
        """Drop what :meth:`prepare` built, so it can be timed again."""

    def prepare(self) -> None:
        """The one-time costs a user pays once per process."""

    def units(self, n: int, first: int = 0) -> Iterator[Unit]:
        """Units ``first`` to ``first + n - 1`` of the run's fixed
        sequence."""
        raise NotImplementedError

    def corrupt(self, output: Any) -> Any:
        """A wrong copy of a unit's output (self-test)."""
        return dataclasses.replace(output, t=output.t + 1.0)


def _clear_platforms() -> None:
    from repro.scenarios import platforms

    fn = platforms.build_platform
    while not hasattr(fn, "cache_clear"):  # under a tracer's wrapper
        fn = fn.__wrapped__
    fn.cache_clear()


def _digest(result) -> str:
    """A point's outcome without ``sim_events`` (reported as
    ``desim.events``, so a deliberate event-count re-pin is no
    failure)."""
    metrics = {k: v for k, v in result.metrics.items() if k != "sim_events"}
    blob = json.dumps({"t": result.t, "ok": result.ok,
                       "reason": result.reason, "metrics": metrics},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# sweep-recovery
# ---------------------------------------------------------------------------

class SweepRecovery(Workload):
    name = "sweep-recovery"
    why = ("the inner loop of every sweep, fleet worker and serve compute: "
           "106 reference points where desim, net, p2pdc and p2psap do the "
           "work and dPerf only calibrates in set-up")
    imports = ("repro.scenarios", "repro.p2pdc", "repro.net", "repro.desim",
               "repro.p2psap", "repro.dperf")
    GRIDS = ("coordinator-grid", "recovery-grid", "churn-grid",
             "partition-grid", "prediction-grid")
    units_per_second = 106 / 20
    #: A seed's 8 to 11 slowest points are partition-grid points under
    #: faults (240-680 ms), and the next ten fall steeply from there:
    #: the 11th-slowest spread 0.22 over five runs, the 16th-slowest
    #: 0.10 over ten.  The 22nd-slowest (p80) sits where they flatten.
    tail_cap = 80.0

    def __init__(self, seed: int, work_dir: str, pin: bool = False) -> None:
        super().__init__(seed, work_dir, pin)
        from repro.scenarios import get_scenario

        sheets = [get_scenario(g).points() for g in self.GRIDS]
        specs = []
        i = 0
        for sheet in sheets:
            for spec in sheet:
                specs.append(self._offset(spec, i))
                i += 1
        # round-robin over the grids, so any prefix of the run mixes
        # every grid (a short self-test run included)
        order: List[int] = []
        starts = [0]
        for sheet in sheets:
            starts.append(starts[-1] + len(sheet))
        for k in range(max(len(s) for s in sheets)):
            order += [starts[g] + k for g, s in enumerate(sheets)
                      if k < len(s)]
        self.points = [specs[j] for j in order]

    def _offset(self, spec, index: int):
        """Every seed field of point ``index`` moves by its own draw,
        so the churn, fault and error streams of different points stay
        independent (one shared offset moves every grid's completions
        together and spreads the run's work by ±10%)."""
        if self.seed == DEFAULT_SEED:
            return spec
        o = random.Random(f"{self.seed}:{index}").randrange(1, 1 << 20)
        for path, value in (("seed", spec.seed),
                            ("fault_plan.seed", spec.fault_plan.seed),
                            ("prediction_error.seed",
                             spec.prediction_error.seed)):
            spec = spec.with_override(path, value + o)
        return spec

    def reset(self) -> None:
        from repro.scenarios import workloads

        workloads.clear_caches()
        _clear_platforms()

    def prepare(self) -> None:
        from repro.scenarios import platforms, run_scenario, workloads

        for plan in {p.platform for p in self.points}:
            platforms.build_platform(plan)
        recipes = {(p.workload.app, p.n_peers, p.workload.level,
                    p.workload.n, p.workload.nit) for p in self.points}
        for recipe in sorted(recipes):
            workloads.traces(*recipe)
        # one point per deployment shape builds its template (zone
        # layout, route store) the way a sweep's first point would
        shapes = {}
        for p in self.points:
            shapes.setdefault((p.platform, p.deploy_peers or p.n_peers,
                               p.n_zones, p.tcp), p)
        for p in shapes.values():
            run_scenario(p)

    def units(self, n: int, first: int = 0) -> Iterator[Unit]:
        from repro.scenarios import SweepRunner
        from repro.scenarios.runner import clear_memo

        runner = SweepRunner(cache_dir=None)
        for i in range(first, first + n):
            spec = self.points[i % len(self.points)]
            clear_memo()  # every unit simulates its point afresh
            yield Unit(
                "point",
                lambda spec=spec: runner.run([spec], parallel=False)[0],
                lambda result, spec=spec: self.check(spec, result),
            )

    def check(self, spec, result) -> Optional[str]:
        if not result.ok:
            return f"{spec.name}: not ok ({result.reason})"
        if result.metrics.get("completed") != 1.0 and not result.reason:
            return f"{spec.name}: neither completed nor gave a reason"
        digest = _digest(result)
        self.outputs[spec.name] = digest
        want = self.expected.get(spec.name)
        if self.expected and want != digest:
            return f"{spec.name}: outcome digest {digest} != pinned {want}"
        return None


# ---------------------------------------------------------------------------
# predict-cold
# ---------------------------------------------------------------------------

class PredictCold(Workload):
    name = "predict-cold"
    why = ("the paper's product, one fresh dPerf prediction per unit: "
           "obstacle spends it in the calibration interpreter, heat at "
           "16-32 ranks in trace replay; p2pdc does no work")
    imports = ("repro.scenarios", "repro.dperf", "repro.simx", "repro.net",
               "repro.desim")
    #: (app, ranks, n, nit, platform kind, hosts, level).  One round of
    #: these is about 5 s on the reference host; a run repeats the
    #: round, so every unit is predicted again from cold.
    ROUND = (
        ("obstacle", 2, 256, 40, "cluster", 33, "O0"),
        ("heat", 16, 256, 40, "cluster", 33, "O2"),
        ("heat", 16, 512, 40, "lan", 64, "O0"),
        ("heat", 32, 256, 20, "cluster", 33, "O3"),
        ("heat", 16, 256, 40, "lan", 64, "O1"),
        ("heat", 32, 256, 20, "lan", 64, "Os"),
        ("heat", 16, 512, 40, "cluster", 33, "O3"),
        ("heat", 32, 256, 20, "cluster", 33, "O1"),
    )
    units_per_second = 8 / 5.0

    def __init__(self, seed: int, work_dir: str, pin: bool = False) -> None:
        super().__init__(seed, work_dir, pin)
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.spec import PlatformPlan, WorkloadPlan

        # The seed moves each spec's seed and the order of the round;
        # a prediction does not depend on either, so every seed runs
        # the same work and every prediction is checked against the
        # pinned value (levels and host policies drawn per seed spread
        # the work by 15% between seeds).
        rng = random.Random(f"{seed}:predict")
        self.specs = []
        for k, (app, ranks, n, nit, kind, hosts, level) in \
                enumerate(self.ROUND):
            self.specs.append(ScenarioSpec(
                name=f"predict-cold[{k}]", kind="predict",
                platform=PlatformPlan(kind=kind, n_hosts=hosts),
                workload=WorkloadPlan(app=app, n=n, nit=nit, level=level),
                n_peers=ranks, seed=2011 + rng.randrange(1 << 20),
            ))
        if seed != DEFAULT_SEED:
            rng.shuffle(self.specs)
        if not pin:
            self.expected = load_expected(self.name)

    def reset(self) -> None:
        _clear_platforms()

    def prepare(self) -> None:
        from repro.scenarios import platforms, workloads

        workloads.set_trace_cache_dir(None)  # the disk trace cache stays off
        for spec in self.specs:
            platforms.build_platform(spec.platform)

    def units(self, n: int, first: int = 0) -> Iterator[Unit]:
        from repro.scenarios import run_scenario, workloads

        for i in range(first, first + n):
            spec = self.specs[i % len(self.specs)]
            workloads.clear_caches()  # a fresh prediction every unit
            yield Unit("predict", lambda spec=spec: run_scenario(spec),
                       lambda result, spec=spec: self.check(spec, result))

    def check(self, spec, result) -> Optional[str]:
        t = result.t
        if not (result.ok and math.isfinite(t) and t > 0):
            return f"{spec.name}: bad prediction {t!r} ({result.reason})"
        seen = self.outputs.setdefault(spec.name, t)
        if seen != t:
            return f"{spec.name}: t_predicted {t!r} != earlier {seen!r}"
        want = self.expected.get(spec.name)
        if self.expected and want != t:
            return f"{spec.name}: t_predicted {t!r} != pinned {want!r}"
        return None


# ---------------------------------------------------------------------------
# serve-restart
# ---------------------------------------------------------------------------

class ServeRestart(Workload):
    name = "serve-restart"
    why = ("restarted SLO engines over a durable cache dir: answer-disk, "
           "memo, result-cache, store and a few simulate tiers, with "
           "writes beside reads")
    imports = ("repro.serve.engine", "repro.fleet.store", "repro.scenarios",
               "repro.p2pdc", "repro.net", "repro.desim", "repro.p2psap",
               "repro.dperf")
    N_KNOWN = 32   # pools a QueryEngine answered before the restart
    N_FRESH = 4    # known pools asked with a new percentile per cycle
    N_STORE = 2    # pools only a fleet recorded, in the result store
    N_NEW = 1      # pools nobody has simulated yet
    POOL = 4
    NEW_POOL = 2   # small, so simulation stays a minor share of a cycle
    #: Memo hits per cycle.  39 of a cycle's units read the answer tier
    #: and 7 go deeper, so 8 repeats put the run's median unit in the
    #: middle of the answer-disk reads.  With the median at their fast
    #: edge, its spread over eight runs was 0.10 against 0.03.
    REPEATS = 8
    PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
    #: Units of one cycle: known + repeats + new percentile + store +
    #: new pools, then the same three new kinds again after a restart.
    #: Each of those three creates files (1, 5 and 3), and on the ext4
    #: volume this was built on one create took 12 us or 400 us from
    #: one minute to the next, so they are few: at 16, 8 and 2 of them
    #: (62 creates; the tiers that create files took 70% of a cycle's
    #: time) the throughput of same-code runs spread 0.19.
    CYCLE_UNITS = N_KNOWN + REPEATS + 2 * (N_FRESH + N_STORE + N_NEW)
    units_per_second = CYCLE_UNITS * 20.0
    granule = CYCLE_UNITS

    def __init__(self, seed: int, work_dir: str, pin: bool = False) -> None:
        super().__init__(seed, work_dir, pin)
        from repro.scenarios.spec import PlatformPlan, WorkloadPlan
        from repro.serve.query import QuerySpec

        rng = random.Random(f"{seed}:serve")
        base = 2011 + (0 if seed == DEFAULT_SEED
                       else rng.randrange(1, 1 << 20))
        platform = PlatformPlan(kind="cluster", n_hosts=8)
        shapes = [WorkloadPlan(app="heat", n=64, nit=20, level=lvl)
                  for lvl in ("O1", "O3")]

        def query(i: int) -> QuerySpec:
            return QuerySpec(
                deadline=round(rng.uniform(0.005, 0.02), 6),
                percentile=rng.choice(self.PERCENTILES),
                pool=self.POOL if i < n_known else self.NEW_POOL,
                seed_base=base + i * self.POOL,
                workload=shapes[i % len(shapes)], platform=platform,
                n_peers=2,
            )

        n_known = self.N_KNOWN + self.N_STORE
        pools = [query(i) for i in range(n_known + self.N_NEW)]
        self.known = pools[:self.N_KNOWN]
        self.store_only = pools[self.N_KNOWN:self.N_KNOWN + self.N_STORE]
        self.new = pools[self.N_KNOWN + self.N_STORE:]
        self.base_dir = os.path.join(work_dir, "base")
        self.cycle_dir = self.base_dir
        self._cycles = 0
        #: spec hash → result of every pool member (for the checks)
        self.results: Dict[str, Any] = {}
        #: query hash → canonical answer each query must produce
        self._expected: Dict[str, str] = {}
        #: query hash → answer the fixture's engine gave before any
        #: restart
        self.pre_restart: Dict[str, str] = {}

    def n_units(self, seconds: float) -> int:
        cycles = max(1, round(seconds * self.units_per_second
                              / self.CYCLE_UNITS))
        return cycles * self.CYCLE_UNITS

    def fixture(self) -> None:
        """The cache dir a restarted engine finds: answers and results
        from a QueryEngine, store records from a fleet."""
        from repro.fleet.store import ResultStore
        from repro.scenarios import run_scenario
        from repro.scenarios.runner import clear_memo, memo_get
        from repro.serve.engine import QueryEngine

        engine = QueryEngine(self.base_dir)
        for q in self.known:
            self.pre_restart[q.query_hash()] = \
                engine.answer(q).canonical_json()
            for spec in q.scenario_specs():
                self.results[spec.spec_hash()] = memo_get(spec.spec_hash())
        store = ResultStore(self.base_dir)
        for q in self.store_only + self.known:
            for spec in q.scenario_specs():
                result = self.results.get(spec.spec_hash())
                if result is None:
                    result = self.results[spec.spec_hash()] = \
                        run_scenario(spec)
                store.record(spec, result, label="fleet-fixture",
                             scenario="serve-fixture")
        for q in self.new:
            for spec in q.scenario_specs():
                self.results[spec.spec_hash()] = run_scenario(spec)
        clear_memo()

    def reset(self) -> None:
        from repro.scenarios import workloads

        workloads.clear_caches()
        _clear_platforms()

    def prepare(self) -> None:
        from repro.serve.engine import QueryEngine

        engine = QueryEngine(self.base_dir)
        for q in self.known[:2]:  # one query per workload shape
            engine.warm_pool(q)

    def _fresh_dir(self) -> str:
        """A cache dir in the fixture's state, for one cycle: a new
        directory of hard links to the fixture's files.  The program
        replaces files (tempfile + rename) and never writes one in
        place during a cycle, so the fixture stays intact.  Cycle dirs
        are removed with the run's work dir, so no file is deleted or
        copied between cycles."""
        self._cycles += 1
        path = os.path.join(self.work_dir, f"cycle-{self._cycles}")
        shutil.copytree(self.base_dir, path, copy_function=os.link)
        return path

    def _restart(self, fresh_dir: bool):
        """A new process's view: no memo, no in-process caches, a new
        engine; ``fresh_dir`` also moves it to a fresh copy of the
        fixture's cache dir."""
        from repro.scenarios import workloads
        from repro.scenarios.runner import clear_memo
        from repro.serve.engine import QueryEngine

        if fresh_dir:
            self.cycle_dir = self._fresh_dir()
        clear_memo()
        workloads.clear_caches()
        engine = QueryEngine(self.cycle_dir)
        self.stores.append(engine.result_store)
        return engine

    def corrupt(self, output: Any) -> Any:
        return dataclasses.replace(output, completed=output.completed + 1)

    def answer_for(self, q) -> str:
        from repro.serve.query import compute_answer

        qh = q.query_hash()
        if qh not in self._expected:
            pool = [self.results[s.spec_hash()] for s in q.scenario_specs()]
            self._expected[qh] = compute_answer(q, pool).canonical_json()
        return self._expected[qh]

    def units(self, n: int, first: int = 0) -> Iterator[Unit]:
        c, made = first // self.CYCLE_UNITS, 0
        while made < n:
            for unit in self._cycle(c):
                if made == n:
                    return
                made += 1
                yield unit
            c += 1

    def _cycle(self, c: int) -> Iterator[Unit]:
        rng = random.Random(f"{self.seed}:serve:{c}")
        engine = self._restart(fresh_dir=True)
        fresh = []
        for q in rng.sample(self.known, self.N_FRESH):
            pct = rng.choice([p for p in self.PERCENTILES
                              if p != q.percentile])
            fresh.append(q.with_override("percentile", pct)
                         .with_override("deadline",
                                        round(rng.uniform(0.005, 0.02), 6)))
        again = [rng.choice(self.known) for _ in range(self.REPEATS)]
        first = rng.sample(self.known, len(self.known))
        stream = (first + again + fresh
                  + rng.sample(self.store_only, len(self.store_only))
                  + list(self.new))
        before = dict(self.pre_restart)
        for q in stream:
            yield self._unit(engine, q, before)
        engine = self._restart(fresh_dir=False)
        for q in fresh + self.store_only + self.new:
            yield self._unit(engine, q, before)

    def _unit(self, engine, q, before: Dict[str, str]) -> Unit:
        counters = engine.stats.snapshot()

        def check(answer) -> Optional[str]:
            moved = {k for k, v in engine.stats.snapshot().items()
                     if v != counters.get(k, 0)}
            unit.info["tier"] = tier_of(moved)
            got = answer.canonical_json()
            if got != self.answer_for(q):
                return f"query {q.query_hash()}: answer != compute_answer"
            qh = q.query_hash()
            if before.setdefault(qh, got) != got:
                return f"query {qh}: answer changed across a restart"
            return None

        unit = Unit("query", lambda: engine.answer(q), check)
        return unit  # check() fills unit.info


def tier_of(moved) -> str:
    """Which resolution tier answered, from the ServeStats counters
    that moved (the deepest one wins)."""
    for counter, tier in (("scenario_runs", "simulate"),
                          ("store_hits", "store"),
                          ("result_disk_hits", "result_disk"),
                          ("answer_disk_hits", "answer_disk"),
                          ("memo_hits", "memo")):
        if counter in moved:
            return tier
    return "scenario_memo"


WORKLOADS = {w.name: w for w in (SweepRecovery, PredictCold, ServeRestart)}
