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
from repro.scenarios.runner import ReadGuard, atomic_write_text
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
        (source.root / "traces" / "k.trace.pkl").write_bytes(b"blob")
        runner = SweepRunner(cache_dir=tmp_path / "dst")
        assert runner.absorb(source.root) == 1
        assert runner.cache.get(spec) is not None
        assert (tmp_path / "dst" / "traces" / "k.trace.pkl").read_bytes() \
            == b"blob"
        assert runner.absorb(source.root) == 0


class TestTraceCache:
    @pytest.fixture(autouse=True)
    def _restore(self):
        yield
        workloads.set_trace_cache_dir(None)

    def test_disk_roundtrip_preserves_reference_results(self, tmp_path):
        """The pickled-trace path must be invisible: a reference run
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
        assert list(tmp_path.glob("*.trace.pkl"))
        workloads.clear_caches()  # force the disk-load path
        loaded = run_scenario(spec)
        assert loaded.canonical_json() == computed.canonical_json()

    def test_torn_trace_entry_recomputes(self, tmp_path):
        workloads.set_trace_cache_dir(tmp_path)
        key = workloads._trace_key("heat", 2, "O1", 64, 20)
        (tmp_path / f"{key}.trace.pkl").write_bytes(b"torn pickle")
        workloads.clear_caches()
        assert workloads.traces("heat", 2, "O1", 64, 20)  # recomputed

    def test_env_read_error_counts_then_reraises(self, tmp_path,
                                                 monkeypatch, caplog):
        """A directory where the pickle should be is an environmental
        error, not a miss: ``JsonCache``'s policy applies — counted,
        logged once, tolerated once, re-raised on the second
        consecutive failure.  (Permission tricks don't work for root,
        which CI runs as.)"""
        guard = ReadGuard()
        monkeypatch.setattr(workloads, "_TRACE_READS", guard)
        workloads.set_trace_cache_dir(tmp_path)
        key = workloads._trace_key("heat", 2, "O1", 64, 20)
        (tmp_path / f"{key}.trace.pkl").mkdir()
        with caplog.at_level("WARNING", logger="repro.scenarios.cache"):
            assert workloads._trace_cache_load(key) is None
            assert guard.errors == 1
            with pytest.raises(IsADirectoryError):
                workloads._trace_cache_load(key)
        assert guard.errors == 2
        assert len(caplog.records) == 1
        assert "treating as a miss" in caplog.records[0].getMessage()

    def test_missing_and_torn_trace_entries_are_silent_misses(
            self, tmp_path, monkeypatch):
        guard = ReadGuard()
        monkeypatch.setattr(workloads, "_TRACE_READS", guard)
        workloads.set_trace_cache_dir(tmp_path)
        key = workloads._trace_key("heat", 2, "O1", 64, 20)
        for _ in range(2):
            assert workloads._trace_cache_load(key) is None  # missing
        (tmp_path / f"{key}.trace.pkl").write_bytes(b"torn pickle")
        for _ in range(2):
            assert workloads._trace_cache_load(key) is None  # torn
        assert guard.errors == 0

    def test_disabled_cache_writes_nothing(self, tmp_path):
        workloads.set_trace_cache_dir(None)
        workloads.clear_caches()
        workloads.traces("heat", 2, "O1", 64, 20)
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
