"""The sweep cache stack: atomic writes, cache union, trace cache.

Concurrent shards share one cache directory, so every on-disk write
in the stack (results, manifests, traces) must be
tempfile-then-``os.replace`` atomic: a reader racing a writer sees
the old complete file or the new complete file, never a torn one.
"""

import json
import os

import pytest

from repro.scenarios import (
    ResultCache,
    ScenarioSpec,
    SweepRunner,
    run_scenario,
)
from repro.scenarios.runner import (
    DEFAULT_CONTEXT,
    JsonCache,
    LruMemo,
    RunContext,
    _deploy_template,
    atomic_write_text,
    clear_memo,
    lookup,
    memo_get,
    resolve,
    trace_dir,
)
from repro.scenarios.spec import PlatformPlan, WorkloadPlan
from repro.scenarios import workloads


def _spec(**over):
    over.setdefault("platform", PlatformPlan(kind="cluster", n_hosts=8))
    over.setdefault("n_peers", 4)
    return ScenarioSpec(name="cache-probe", kind="deploy", **over)


class TestAtomicWrites:
    def test_put_is_atomic_under_interrupted_replace(self, tmp_path,
                                                     monkeypatch):
        """A writer dying mid-put must leave the previous entry intact
        and no temp litter — the torn-JSON scenario of two shards on
        one cache directory."""
        cache = ResultCache(tmp_path)
        spec = _spec()
        result = run_scenario(spec)
        cache.put(spec, result)
        before = cache._path(spec.spec_hash()).read_text()

        real_replace = os.replace

        def dying_replace(src, dst):
            raise OSError("simulated crash mid-replace")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError):
            cache.put(spec, result)
        monkeypatch.setattr(os, "replace", real_replace)
        # old entry untouched, readable, and no .tmp residue
        assert cache._path(spec.spec_hash()).read_text() == before
        assert cache.get(spec) is not None
        assert list(tmp_path.glob("*.tmp")) == []

    def test_atomic_write_text_replaces_whole_file(self, tmp_path):
        path = tmp_path / "m.json"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second-longer-content")
        assert path.read_text() == "second-longer-content"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_torn_cache_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache._path(spec.spec_hash()).write_text('{"spec": {"trunc')
        assert cache.get(spec) is None  # miss, not a crash


class TestAbsorb:
    def test_union_is_a_file_copy(self, tmp_path):
        a, b = ResultCache(tmp_path / "a"), ResultCache(tmp_path / "b")
        spec_a, spec_b = _spec(seed=1), _spec(seed=2)
        a.put(spec_a, run_scenario(spec_a))
        b.put(spec_b, run_scenario(spec_b))
        copied = a.absorb(b.root)
        assert copied == 1
        assert a.get(spec_b) is not None
        # idempotent: existing entries are kept, not rewritten
        assert a.absorb(b.root) == 0

    def test_absorb_missing_dir_is_noop(self, tmp_path):
        assert ResultCache(tmp_path / "a").absorb(tmp_path / "nope") == 0

    def test_runner_absorbs_results_and_traces(self, tmp_path):
        """``SweepRunner.absorb`` (``sweep --from-cache``) unions both
        content-addressed stores of a cache dir; existing entries win."""
        source = ResultCache(tmp_path / "src")
        spec = _spec(seed=3)
        source.put(spec, run_scenario(spec))
        (source.root / "traces").mkdir()
        (source.root / "traces" / "k.json").write_text('{"k": 1}')
        # a leftover pickle from an older cache is not carried over
        (source.root / "traces" / "k.trace.pkl").write_bytes(b"blob")
        runner = SweepRunner(cache_dir=tmp_path / "dst")
        assert runner.absorb(source.root) == 1
        assert runner.cache.get(spec) is not None
        assert (tmp_path / "dst" / "traces" / "k.json").read_text() \
            == '{"k": 1}'
        assert not (tmp_path / "dst" / "traces" / "k.trace.pkl").exists()
        assert runner.absorb(source.root) == 0


RECIPE = ("heat", 2, "O1", 64, 20)


def _trace_entry(cache_dir):
    """The on-disk trace-cache file of :data:`RECIPE`."""
    key = workloads._trace_key(workloads._trace_recipe(*RECIPE))
    return cache_dir / f"{key}.json"


def _ref_spec(**over):
    """A cheap reference point whose traces are :data:`RECIPE`'s."""
    return ScenarioSpec(
        name="trace-probe", kind="reference",
        platform=PlatformPlan(kind="cluster", n_hosts=8),
        workload=WorkloadPlan(app="heat", n=64, nit=20, level="O1"),
        n_peers=2, **over,
    )


def _n_traces(cache_root):
    return len(list((cache_root / "traces").glob("*.json")))


class TestTraceCache:
    def test_disk_roundtrip_preserves_reference_results(self, tmp_path):
        """The trace-file path must be invisible: a reference run
        from disk-loaded traces is byte-identical to the computed one."""
        spec = _ref_spec()
        computed = run_scenario(spec, RunContext(), tmp_path)  # stores
        assert _trace_entry(tmp_path).is_file()
        loaded = run_scenario(spec, RunContext(), tmp_path)  # disk load
        assert loaded.canonical_json() == computed.canonical_json()

    def test_entry_is_recipe_plus_trace_text(self, tmp_path):
        computed = workloads.traces(*RECIPE, RunContext(), tmp_path)
        payload = json.loads(_trace_entry(tmp_path).read_text())
        assert payload["recipe"] == workloads._trace_recipe(*RECIPE)
        assert [text.splitlines()[0] for text in payload["ranks"]] \
            == ["# dperf-trace v1"] * 2
        loaded = workloads.traces(*RECIPE, RunContext(), tmp_path)
        assert [(t.rank, t.nprocs, t.app, t.meta, t.events)
                for t in loaded] \
            == [(t.rank, t.nprocs, t.app, t.meta, t.events)
                for t in computed]

    @pytest.mark.parametrize("payload", [
        '{"recipe": {"app": "obstacle"}, "ranks": []}',  # foreign recipe
        None,                                    # recipe ok, bad trace
        "torn {",                                # torn JSON
    ])
    def test_undecodable_entry_recomputes(self, tmp_path, payload):
        if payload is None:
            payload = json.dumps({
                "recipe": workloads._trace_recipe(*RECIPE),
                "ranks": ["not a trace"]})
        _trace_entry(tmp_path).write_text(payload)
        traces = workloads.traces(*RECIPE, RunContext(), tmp_path)
        assert [t.rank for t in traces] == [0, 1]  # recomputed
        # and the recomputed traces replaced the bad entry
        assert json.loads(_trace_entry(tmp_path).read_text())["recipe"] \
            == workloads._trace_recipe(*RECIPE)

    def test_planted_pickle_is_never_loaded(self, tmp_path):
        """A ``.trace.pkl`` left at the old entry name — here one whose
        unpickling would write a marker file — is never opened, nor
        copied by a cache union: the cache reads JSON only, so a
        writable cache dir runs no code."""
        import pickle

        marker = tmp_path / "pwned"

        class Plant:
            def __reduce__(self):
                return (marker.write_text, ("unpickled",))

        traces_dir = tmp_path / "cache" / "traces"
        traces_dir.mkdir(parents=True)
        key = workloads._trace_key(workloads._trace_recipe(*RECIPE))
        blob = pickle.dumps(Plant())
        (traces_dir / f"{key}.trace.pkl").write_bytes(blob)
        for _ in range(2):  # computed, then read back from the JSON entry
            assert workloads.traces(*RECIPE, RunContext(), traces_dir)
        runner = SweepRunner(cache_dir=tmp_path / "dst")
        runner.absorb(tmp_path / "cache")
        assert not (tmp_path / "dst" / "traces" / f"{key}.trace.pkl") \
            .exists()
        assert not marker.exists()
        pickle.loads(blob)  # the plant is live: loading it would fire
        assert marker.exists()

    def test_env_read_error_counts_then_reraises(self, tmp_path, caplog):
        """A directory where the entry should be is an environmental
        error, not a miss: ``JsonCache``'s policy applies — counted,
        logged once, tolerated once, re-raised on the second
        consecutive failure.  (Permission tricks don't work for root,
        which CI runs as.)"""
        ctx = RunContext()
        cache = ctx.trace_cache(tmp_path)
        _trace_entry(tmp_path).mkdir()
        with caplog.at_level("WARNING", logger="repro.scenarios.cache"):
            assert workloads.traces(*RECIPE, ctx, tmp_path)  # a miss
            assert cache.cache_read_errors == 1
            ctx.traces.clear()
            with pytest.raises(IsADirectoryError):
                workloads.traces(*RECIPE, ctx, tmp_path)
        assert cache.cache_read_errors == 2
        assert len(caplog.records) == 1
        assert "treating as a miss" in caplog.records[0].getMessage()

    def test_missing_and_torn_trace_entries_are_silent_misses(
            self, tmp_path):
        cache = RunContext().trace_cache(tmp_path)
        key = workloads._trace_key(workloads._trace_recipe(*RECIPE))
        for _ in range(2):
            assert cache.load(key) is None  # missing
        _trace_entry(tmp_path).write_text('{"recipe": ')
        for _ in range(2):
            assert cache.load(key) is None  # torn
        assert cache.cache_read_errors == 0

    def test_no_trace_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        workloads.set_trace_cache_dir(None)  # accepted: already off
        with pytest.raises(ValueError):
            workloads.set_trace_cache_dir(tmp_path)
        workloads.traces(*RECIPE, RunContext())
        assert not list(tmp_path.iterdir())

    def test_each_sweep_root_gets_the_traces_it_used(self, tmp_path):
        """Two sweeps into two cache roots: the second point's trace
        is an in-process memo hit, and still lands in its own root, so
        a copied shard cache never re-pays the calibration."""
        SweepRunner(cache_dir=tmp_path / "a").run([_ref_spec()])
        SweepRunner(cache_dir=tmp_path / "b").run([_ref_spec(seed=7)])
        assert _n_traces(tmp_path / "a") == _n_traces(tmp_path / "b") == 1

    def test_memo_hit_checks_each_root_once(self, tmp_path):
        """A memo hit stats a trace root at most once: the first hit on
        a new root writes the missing entry, later hits touch no disk."""
        ctx = RunContext()
        workloads.traces(*RECIPE, ctx, tmp_path / "a")  # computed, stored
        a, b = ctx.trace_cache(tmp_path / "a"), ctx.trace_cache(tmp_path / "b")
        io_a = (a.disk_reads, a.disk_writes)
        for _ in range(3):
            workloads.traces(*RECIPE, ctx, tmp_path / "a")
            workloads.traces(*RECIPE, ctx, tmp_path / "b")
        assert (a.disk_reads, a.disk_writes) == io_a
        assert (b.disk_reads, b.disk_writes) == (1, 1)
        assert len(list((tmp_path / "b").glob("*.json"))) == 1


class TestDeployTemplateCache:
    def test_same_shape_shares_one_template(self):
        a = _deploy_template(_spec(seed=1, selection_policy="random"))
        b = _deploy_template(_spec(seed=2, selection_policy="proximity"))
        assert a is b  # churn/policy/seed axes share the deployment shape

    def test_different_shape_gets_its_own_template(self):
        a = _deploy_template(_spec())
        b = _deploy_template(_spec(n_peers=6))
        c = _deploy_template(
            _spec(platform=PlatformPlan(kind="cluster", n_hosts=16)))
        assert a is not b and a is not c

    def test_template_reuse_is_invisible_to_results(self):
        # two runs of one spec through the shared template: identical
        spec = _spec(seed=7)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.canonical_json() == second.canonical_json()


class TestLruMemo:
    def test_evicts_least_recently_used_past_capacity(self):
        memo = LruMemo(2)
        assert memo.put("a", 1) == memo.put("b", 2) == 0
        assert memo.get("a") == 1  # refreshes "a"
        assert memo.put("c", 3) == 1  # drops "b", the least recent
        assert memo.get("b") is None
        assert (memo.get("a"), memo.get("c"), len(memo)) == (1, 3, 2)
        assert memo.put("a", 4) == 0  # a rewrite evicts nothing
        memo.clear()
        assert len(memo) == 0

    def test_concurrent_puts_and_gets_keep_the_bound(self):
        """Serve's request threads share the memos: threads putting and
        getting the same few keys, so a get often races the eviction of
        its key, never raise, and the bound holds once they stop."""
        import sys
        import threading

        memo, errors = LruMemo(2), []

        def hammer(offset):
            try:
                for i in range(5000):
                    memo.put((offset + i) % 5, i)
                    memo.get((offset + 3 * i) % 5)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(memo) == 2

    def test_every_operation_takes_the_lock(self):
        """Serve's request threads share the memos, so ``get`` (which
        reorders), ``put``, ``get_or_put`` and ``clear`` each hold the
        lock — recorded, not raced."""
        class RecordingLock:
            def __init__(self):
                self.held, self.entries = False, 0

            def __enter__(self):
                self.held = True
                self.entries += 1

            def __exit__(self, *exc):
                self.held = False

        memo = LruMemo(2)
        lock = memo._lock = RecordingLock()

        class Probe(dict):
            def move_to_end(self, key, last=True):
                assert lock.held, "reordered outside the lock"

            def popitem(self, last=True):
                assert lock.held, "evicted outside the lock"
                return dict.popitem(self)

        memo._data = Probe()
        for op in (lambda: memo.put("a", 1), lambda: memo.get("a"),
                   lambda: memo.get_or_put("b", lambda: 2),
                   lambda: memo.put("c", 3), memo.clear):
            before = lock.entries
            op()
            assert lock.entries > before and not lock.held

    def test_evicted_scenario_result_falls_back_to_disk(self, tmp_path):
        ctx = RunContext()
        ctx.memo = LruMemo(1)
        cache = ResultCache(tmp_path)
        first, second = _spec(seed=1), _spec(seed=2)
        assert resolve(first, cache, ctx=ctx)[1] == "simulate"
        assert resolve(second, cache, ctx=ctx)[1] == "simulate"  # evicts
        assert ctx.memo.get(first.spec_hash()) is None
        assert resolve(first, cache, ctx=ctx)[1] == "result_disk"
        assert resolve(first, cache, ctx=ctx)[1] == "memo"

    def test_templates_are_bounded(self):
        ctx = RunContext()
        ctx.templates = LruMemo(1)
        a = _deploy_template(_spec(), ctx)
        _deploy_template(_spec(n_peers=6), ctx)
        assert _deploy_template(_spec(), ctx) is not a  # rebuilt
        assert len(ctx.templates) == 1


class TestResolver:
    """``lookup``/``resolve``: the one memo → result cache → store →
    simulate path, and the trace directory that follows the cache."""

    def test_tiers_in_order(self, tmp_path):
        from repro.fleet.store import ResultStore

        ctx, spec = RunContext(), _spec()
        cache, store = ResultCache(tmp_path / "c"), ResultStore(tmp_path / "s")
        assert lookup(spec, cache, store, ctx) == (None, None)
        result, tier = resolve(spec, cache, ctx=ctx)
        assert tier == "simulate" and cache.get(spec) == result
        assert resolve(spec, cache, ctx=ctx) == (result, "memo")
        ctx.memo.clear()
        assert resolve(spec, cache, ctx=ctx) == (result, "result_disk")
        # a store-only result is promoted into the memo and the cache
        other = _spec(seed=5)
        store.record(other, run_scenario(other), label="l", scenario="s")
        assert cache.get(other) is None
        assert lookup(other, cache, store, ctx)[1] == "store"
        assert cache.get(other) is not None
        assert lookup(other, cache, store, ctx)[1] == "memo"

    def test_trace_dir_follows_the_cache_root(self, tmp_path):
        ctx = RunContext()
        cache = ResultCache(tmp_path / "c")
        resolve(_ref_spec(), cache, ctx=ctx)
        opened = ctx.trace_cache(trace_dir(cache))
        assert opened.root == tmp_path / "c" / "traces" and len(opened) == 1
        resolve(_ref_spec(seed=3), cache, ctx=ctx)
        assert ctx.trace_cache(trace_dir(cache)) is opened  # opened once
        resolve(_ref_spec(seed=4), ctx=ctx)  # no cache root, no traces
        assert len(ctx.trace_caches) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c"]

    def test_two_contexts_share_no_entry(self, tmp_path):
        a, b = RunContext(), RunContext()
        spec = _ref_spec()
        result, tier = resolve(spec, ctx=a)
        assert tier == "simulate"
        memos = ("memo", "templates", "predictors", "calibrations",
                 "traces", "residuals")
        sizes = {name: len(getattr(a, name)) for name in memos}
        assert all(sizes.values())
        assert resolve(spec, ctx=b)[1] == "simulate"
        assert {name: len(getattr(a, name)) for name in memos} == sizes
        assert a.memo.get(spec.spec_hash()) is result
        assert b.memo.get(spec.spec_hash()) is not result
        assert _deploy_template(spec, a) is not _deploy_template(spec, b)
        assert workloads.traces(*RECIPE, a) \
            is not workloads.traces(*RECIPE, b)
        assert workloads.predictor("heat", a) \
            is not workloads.predictor("heat", b)

    def test_delegates_reach_only_their_own_memos(self, tmp_path):
        """``clear_memo`` drops the default context's scenario memo,
        ``clear_caches`` its four dPerf memos; neither drops templates
        or trace caches."""
        ctx, spec = DEFAULT_CONTEXT, _ref_spec(seed=11)
        resolve(spec, ResultCache(tmp_path))
        assert memo_get(spec.spec_hash()) is not None
        dperf = ("predictors", "calibrations", "traces", "residuals")
        kept = {name: len(getattr(ctx, name))
                for name in ("templates", "trace_caches")}
        clear_memo()
        assert len(ctx.memo) == 0
        assert all(len(getattr(ctx, name)) for name in dperf)
        workloads.clear_caches()
        assert not any(len(getattr(ctx, name)) for name in dperf)
        assert all(kept.values())
        assert {name: len(getattr(ctx, name)) for name in kept} == kept


#: Module-level caches that stay outside :class:`RunContext`, each
#: with the reason it may.
ALLOWED_MODULE_CACHES = {
    "repro.scenarios.platforms.build_platform":
        "a built platform is immutable and pure in its plan, and the "
        "benchmark clears it by unwrapping to its cache_clear",
    "repro.experiments.stage1.run_stage1":
        "a paper-figure memo over one frozen config",
    "repro.experiments.stage2.run_stage2":
        "a paper-figure memo over one frozen config",
    "repro.experiments.table1.run_table1":
        "a paper-figure memo over one frozen config",
    "repro.experiments.heterogeneous.heterogeneous_grid":
        "a paper-figure memo over one frozen config",
    "repro.p2pdc.stats._msg_key":
        "interns one counter key per message type, a closed set",
}


def test_no_module_level_cache_outside_the_default_context():
    """Walk the globals of every ``repro`` module: no ``LruMemo``,
    ``JsonCache`` or ``lru_cache`` wrapper lives there except the
    allow-listed ones — every other in-process cache is a
    :class:`RunContext` attribute."""
    import functools
    import importlib
    import pkgutil

    import repro

    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if isinstance(obj, (LruMemo, JsonCache)):
                found.add(f"{info.name}.{name}")
            elif isinstance(obj, functools._lru_cache_wrapper):
                found.add(f"{obj.__module__}.{obj.__qualname__}")
    assert found == set(ALLOWED_MODULE_CACHES)
    assert isinstance(DEFAULT_CONTEXT, RunContext)


class TestReadErrorTaxonomy:
    """``JsonCache.load``'s error discipline: a missing or torn entry
    is a legitimate miss (concurrent writers produce those), but an
    *environmental* read error (permissions, I/O, a directory where a
    file should be) is counted, logged once per path, and re-raised on
    the second consecutive failure of the same entry — silent
    recompute storms must not masquerade as cache misses."""

    def _entry_as_directory(self, cache, spec):
        """Turn the entry into a directory: ``read_text`` then raises
        IsADirectoryError — an OSError that is *not* FileNotFoundError
        (chmod tricks don't work for root, which CI runs as)."""
        path = cache._path(spec.spec_hash())
        path.unlink()
        path.mkdir()
        return path

    def test_missing_entry_is_a_silent_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        for _ in range(3):
            assert cache.get(_spec()) is None
        assert cache.cache_read_errors == 0

    def test_torn_entry_is_a_silent_miss_forever(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache._path(spec.spec_hash()).write_text('{"torn": ')
        for _ in range(3):
            assert cache.get(spec) is None  # never escalates
        assert cache.cache_read_errors == 0

    def test_env_error_counts_then_reraises_on_second_failure(
            self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, run_scenario(spec))
        self._entry_as_directory(cache, spec)
        with caplog.at_level("WARNING", logger="repro.scenarios.cache"):
            assert cache.get(spec) is None  # first failure: a miss
        assert cache.cache_read_errors == 1
        assert len(caplog.records) == 1
        assert "treating as a miss" in caplog.records[0].getMessage()
        with caplog.at_level("WARNING", logger="repro.scenarios.cache"):
            with pytest.raises(OSError):
                cache.get(spec)  # second consecutive failure: raise
        assert cache.cache_read_errors == 2
        # the path is logged once, not once per failure
        assert len(caplog.records) == 1

    def test_successful_read_resets_the_failure_streak(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        result = run_scenario(spec)
        cache.put(spec, result)
        path = self._entry_as_directory(cache, spec)
        assert cache.get(spec) is None
        assert cache.cache_read_errors == 1
        # the entry heals (the flaky-mount scenario): a good read
        # resets the streak, so the next failure is "first" again
        path.rmdir()
        cache.put(spec, result)
        assert cache.get(spec) is not None
        self._entry_as_directory(cache, spec)
        assert cache.get(spec) is None  # a miss again, not a raise
        assert cache.cache_read_errors == 2
