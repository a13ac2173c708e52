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
from repro.scenarios import runner as runner_mod
from repro.scenarios.runner import (
    LruMemo,
    atomic_write_text,
    clear_memo,
    lookup,
    memo_get,
    resolve,
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


class TestTraceCache:
    @pytest.fixture(autouse=True)
    def _restore(self):
        yield
        workloads.set_trace_cache_dir(None)

    def test_disk_roundtrip_preserves_reference_results(self, tmp_path):
        """The trace-file path must be invisible: a reference run
        from disk-loaded traces is byte-identical to the computed one."""
        spec = ScenarioSpec(
            name="trace-probe", kind="reference",
            platform=PlatformPlan(kind="cluster", n_hosts=8),
            workload=WorkloadPlan(app="heat", n=64, nit=20, level="O1"),
            n_peers=2,
        )
        workloads.set_trace_cache_dir(tmp_path)
        workloads.clear_caches()
        computed = run_scenario(spec)  # computes, stores to disk
        assert _trace_entry(tmp_path).is_file()
        workloads.clear_caches()  # force the disk-load path
        loaded = run_scenario(spec)
        assert loaded.canonical_json() == computed.canonical_json()

    def test_entry_is_recipe_plus_trace_text(self, tmp_path):
        workloads.set_trace_cache_dir(tmp_path)
        workloads.clear_caches()
        computed = workloads.traces(*RECIPE)
        payload = json.loads(_trace_entry(tmp_path).read_text())
        assert payload["recipe"] == workloads._trace_recipe(*RECIPE)
        assert [text.splitlines()[0] for text in payload["ranks"]] \
            == ["# dperf-trace v1"] * 2
        workloads.clear_caches()
        loaded = workloads.traces(*RECIPE)
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
        workloads.set_trace_cache_dir(tmp_path)
        if payload is None:
            payload = json.dumps({
                "recipe": workloads._trace_recipe(*RECIPE),
                "ranks": ["not a trace"]})
        _trace_entry(tmp_path).write_text(payload)
        workloads.clear_caches()
        traces = workloads.traces(*RECIPE)  # recomputed
        assert [t.rank for t in traces] == [0, 1]
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
        workloads.set_trace_cache_dir(traces_dir)
        for _ in range(2):  # computed, then read back from the JSON entry
            workloads.clear_caches()
            assert workloads.traces(*RECIPE)
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
        workloads.set_trace_cache_dir(tmp_path)
        cache = workloads._TRACE_CACHE
        _trace_entry(tmp_path).mkdir()
        with caplog.at_level("WARNING", logger="repro.scenarios.cache"):
            workloads.clear_caches()
            assert workloads.traces(*RECIPE)  # first failure: a miss
            assert cache.cache_read_errors == 1
            workloads.clear_caches()
            with pytest.raises(IsADirectoryError):
                workloads.traces(*RECIPE)
        assert cache.cache_read_errors == 2
        assert len(caplog.records) == 1
        assert "treating as a miss" in caplog.records[0].getMessage()

    def test_missing_and_torn_trace_entries_are_silent_misses(
            self, tmp_path):
        workloads.set_trace_cache_dir(tmp_path)
        cache = workloads._TRACE_CACHE
        key = workloads._trace_key(workloads._trace_recipe(*RECIPE))
        for _ in range(2):
            assert cache.load(key) is None  # missing
        _trace_entry(tmp_path).write_text('{"recipe": ')
        for _ in range(2):
            assert cache.load(key) is None  # torn
        assert cache.cache_read_errors == 0

    def test_disabled_cache_writes_nothing(self, tmp_path):
        workloads.set_trace_cache_dir(None)
        workloads.clear_caches()
        workloads.traces(*RECIPE)
        assert not list(tmp_path.iterdir())


class TestDeployTemplateCache:
    def test_same_shape_shares_one_template(self):
        from repro.scenarios.runner import _deploy_template

        a = _deploy_template(_spec(seed=1, selection_policy="random"))
        b = _deploy_template(_spec(seed=2, selection_policy="proximity"))
        assert a is b  # churn/policy/seed axes share the deployment shape

    def test_different_shape_gets_its_own_template(self):
        from repro.scenarios.runner import _deploy_template

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

    def test_evicted_scenario_result_falls_back_to_disk(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(runner_mod, "_MEMO", LruMemo(1))
        cache = ResultCache(tmp_path)
        first, second = _spec(seed=1), _spec(seed=2)
        assert resolve(first, cache)[1] == "simulate"
        assert resolve(second, cache)[1] == "simulate"  # evicts first
        assert memo_get(first.spec_hash()) is None
        assert resolve(first, cache)[1] == "result_disk"
        assert resolve(first, cache)[1] == "memo"

    def test_templates_are_bounded(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_TEMPLATES", LruMemo(1))
        a = runner_mod._deploy_template(_spec())
        runner_mod._deploy_template(_spec(n_peers=6))
        assert runner_mod._deploy_template(_spec()) is not a  # rebuilt
        assert len(runner_mod._TEMPLATES) == 1


class TestResolver:
    """``lookup``/``resolve``: the one memo → result cache → store →
    simulate path, and the trace directory that follows the cache."""

    @pytest.fixture(autouse=True)
    def _isolate(self, monkeypatch):
        clear_memo()
        monkeypatch.setattr(workloads, "_TRACE_CACHE", workloads._TRACE_CACHE)
        yield
        clear_memo()

    def test_tiers_in_order(self, tmp_path):
        from repro.fleet.store import ResultStore

        spec = _spec()
        cache, store = ResultCache(tmp_path / "c"), ResultStore(tmp_path / "s")
        assert lookup(spec, cache, store) == (None, None)
        result, tier = resolve(spec, cache)
        assert tier == "simulate" and cache.get(spec) == result
        assert resolve(spec, cache) == (result, "memo")
        clear_memo()
        assert resolve(spec, cache) == (result, "result_disk")
        # a store-only result is promoted into the memo and the cache
        other = _spec(seed=5)
        store.record(other, run_scenario(other), label="l", scenario="s")
        assert cache.get(other) is None
        assert lookup(other, cache, store)[1] == "store"
        assert cache.get(other) is not None
        assert lookup(other, cache, store)[1] == "memo"

    def test_trace_dir_follows_the_cache_root(self, tmp_path):
        cache = ResultCache(tmp_path)
        resolve(_spec(), cache)
        opened = workloads._TRACE_CACHE
        assert opened.root == tmp_path / "traces"
        resolve(_spec(seed=3), cache)
        assert workloads._TRACE_CACHE is opened  # unchanged: not reopened
        resolve(_spec(seed=4))
        assert workloads._TRACE_CACHE is None  # no cache root, no traces
        assert resolve(_spec(), cache)[1] == "memo"  # a hit opens none
        assert workloads._TRACE_CACHE is None


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
