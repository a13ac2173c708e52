"""Sharded sweeps: a deterministic partition, reassembled by re-running.

The contract of docs/sharding.md: every machine derives the same
shard split from the grid alone (partitioning is by spec hash — no
coordination), a shard writes only cache entries (no manifest), a
killed shard resumes from its cache, and re-running the unsharded
sweep with ``--from-cache`` per shard cache serves every point from
the union and writes a manifest byte-identical to the unsharded
serial sweep's.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import SCENARIOS, expand_grid, shard_indices
from repro.scenarios.cli import main
from repro.scenarios.runner import clear_memo


#: A cheap all-deploy grid: no workload calibration, each point only
#: builds and settles a small overlay (~tens of ms).
DEPLOY_ARGS = [
    "--set", "platform.n_hosts=32", "--set", "n_peers=4,6,8",
    "--set", "n_zones=1,2", "--set", "seed=2011,2013",
]
DEPLOY_GRID = {
    "platform.n_hosts": (32,), "n_peers": (4, 6, 8),
    "n_zones": (1, 2), "seed": (2011, 2013),
}


def _sweep(cache: Path, *extra: str) -> int:
    return main(["sweep", "large-overlay-512", "--workers", "1",
                 "--label", "g", "--cache-dir", str(cache)]
                + DEPLOY_ARGS + list(extra))


def _manifest(cache: Path, name: str = "g.json") -> Path:
    return cache / "sweeps" / name


def _from_caches(*caches: Path) -> list:
    return [arg for c in caches for arg in ("--from-cache", str(c))]


class TestShardIndices:
    def _specs(self):
        return expand_grid(SCENARIOS["large-overlay-512"].base, DEPLOY_GRID)

    def test_partition_is_disjoint_and_complete(self):
        specs = self._specs()
        seen = []
        for i in range(3):
            seen.extend(shard_indices(specs, i, 3))
        assert sorted(seen) == list(range(len(specs)))

    def test_partition_is_stable_under_relabelling(self):
        # the split is a pure function of each point, not of the list
        specs = self._specs()
        renamed = [s.with_override("name", f"other-{i}")
                   for i, s in enumerate(specs)]
        for i in range(3):
            assert shard_indices(specs, i, 3) == shard_indices(renamed, i, 3)

    def test_single_shard_is_identity(self):
        specs = self._specs()
        assert shard_indices(specs, 0, 1) == list(range(len(specs)))

    def test_bad_geometry_rejected(self):
        specs = self._specs()
        with pytest.raises(ValueError):
            shard_indices(specs, 3, 3)
        with pytest.raises(ValueError):
            shard_indices(specs, -1, 3)
        with pytest.raises(ValueError):
            shard_indices(specs, 0, 0)


class TestShardedCli:
    def test_union_rerun_is_byte_identical(self, tmp_path, capsys):
        """Three shards, each in its own cache dir; one sweep with
        ``--from-cache`` per shard into a fresh dir executes nothing
        and writes the unsharded serial sweep's manifest, byte for
        byte."""
        clear_memo()
        plain = tmp_path / "plain"
        assert _sweep(plain) == 0
        caches = [tmp_path / f"m{i}" for i in range(3)]
        for i, cache in enumerate(caches):
            clear_memo()
            assert _sweep(cache, "--shard", f"{i}/3") == 0
        clear_memo()  # the re-run must be served from disk, not memo
        capsys.readouterr()
        merged = tmp_path / "merged"
        assert _sweep(merged, *_from_caches(*caches)) == 0
        out = capsys.readouterr().out
        assert "# absorbed 12 cached results from 3 caches" in out
        assert "12 points: 12 from cache, 0 executed" in out
        assert (_manifest(merged).read_bytes()
                == _manifest(plain).read_bytes())

    def test_shard_writes_no_manifest(self, tmp_path, capsys):
        clear_memo()
        cache = tmp_path / "c"
        assert _sweep(cache, "--shard", "1/3") == 0
        out = capsys.readouterr().out
        assert "# shard 1/3:" in out and "of 12 points" in out
        assert not (cache / "sweeps").exists()
        assert "sweep manifest" not in out
        # its output is the cache entries of its slice
        assert len(list(cache.glob("*.json"))) == len(shard_indices(
            expand_grid(SCENARIOS["large-overlay-512"].base, DEPLOY_GRID),
            1, 3))

    def test_missing_shard_is_computed_by_the_rerun(self, tmp_path,
                                                    capsys):
        """A shard that never ran is no refusal: the re-run computes
        its points and reports them as executed (the resume contract
        of a killed sweep)."""
        clear_memo()
        caches = [tmp_path / f"m{i}" for i in range(2)]
        for i, cache in enumerate(caches):
            assert _sweep(cache, "--shard", f"{i}/3") == 0
        missing = len(shard_indices(
            expand_grid(SCENARIOS["large-overlay-512"].base, DEPLOY_GRID),
            2, 3))
        clear_memo()
        capsys.readouterr()
        merged = tmp_path / "merged"
        assert _sweep(merged, *_from_caches(*caches)) == 0
        out = capsys.readouterr().out
        assert (f"12 points: {12 - missing} from cache, "
                f"{missing} executed") in out
        assert len(json.loads(_manifest(merged).read_text())["points"]) == 12

    def test_killed_shard_resumes_from_its_cache(self, tmp_path, capsys,
                                                 monkeypatch):
        """Resume comes from the cache: every serially computed point
        is persisted as it lands, so a shard killed mid-flight reruns
        only the remainder."""
        from repro.scenarios import runner as runner_mod

        clear_memo()
        cache = tmp_path / "c"
        original = runner_mod.run_scenario
        calls = []

        def dies_on_third(spec, *context):
            if len(calls) == 2:
                raise KeyboardInterrupt  # the shard is killed
            calls.append(spec)
            return original(spec, *context)

        with monkeypatch.context() as patch:
            patch.setattr(runner_mod, "run_scenario", dies_on_third)
            with pytest.raises(KeyboardInterrupt):
                _sweep(cache, "--shard", "0/2")
        assert len(list(cache.glob("*.json"))) == 2
        clear_memo()
        capsys.readouterr()
        assert _sweep(cache, "--shard", "0/2") == 0
        assert "2 from cache" in capsys.readouterr().out

    def test_from_cache_with_no_cache_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "large-overlay-512", "--no-cache",
                     "--from-cache", str(tmp_path)] + DEPLOY_ARGS) == 2
        assert "--from-cache" in capsys.readouterr().err

    def test_from_cache_missing_dir_is_usage_error(self, tmp_path, capsys):
        assert _sweep(tmp_path / "c", "--from-cache",
                      str(tmp_path / "nope")) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_bad_shard_argument_is_usage_error(self, tmp_path, capsys):
        cache = tmp_path / "c"
        assert _sweep(cache, "--shard", "3/3") == 2
        assert "--shard expects" in capsys.readouterr().err
        assert _sweep(cache, "--shard", "nonsense") == 2

    def test_compare_rejects_partial_manifest(self, tmp_path, capsys):
        """A killed sweep leaves `"partial": true` at the label path;
        compare must refuse it rather than report over a fragment."""
        clear_memo()
        cache = tmp_path / "c"
        assert _sweep(cache) == 0
        path = _manifest(cache)
        payload = json.loads(path.read_text())
        payload["partial"] = True
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        assert main(["compare", "g", "g", "--cache-dir", str(cache)]) == 2
        assert "partial manifest" in capsys.readouterr().err

    def test_incremental_manifest_marks_progress(self, tmp_path,
                                                 monkeypatch):
        """A cold sweep writes its manifest twice: partial with no
        points before computing, complete after.  A sweep with
        nothing to compute writes it once."""
        clear_memo()
        cache = tmp_path / "c"
        stages = []
        from repro.scenarios import manifest

        real_dump = manifest.dump_manifest

        def spy(payload, path):
            stages.append((payload.get("partial", False),
                           len(payload["points"])))
            real_dump(payload, path)

        monkeypatch.setattr(manifest, "dump_manifest", spy)
        assert _sweep(cache) == 0
        assert stages == [(True, 0), (False, 12)]
        assert "partial" not in json.loads(_manifest(cache).read_text())
        stages.clear()
        clear_memo()
        assert _sweep(cache) == 0
        assert stages == [(False, 12)]

    def test_sweep_killed_at_first_miss_leaves_partial_manifest(
            self, tmp_path, monkeypatch, capsys):
        """A sweep that dies before it computes anything must not
        leave the label's older complete manifest in place: the label
        holds a partial manifest of the cached points, and compare
        refuses it."""
        clear_memo()
        cache = tmp_path / "c"
        assert main(["sweep", "large-overlay-512", "--workers", "1",
                     "--label", "g", "--cache-dir", str(cache),
                     "--set", "platform.n_hosts=32", "--set", "n_peers=4",
                     "--set", "n_zones=1,2", "--set", "seed=2011"]) == 0
        assert "partial" not in json.loads(_manifest(cache).read_text())

        def killed(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.scenarios.runner.run_scenario", killed)
        clear_memo()
        with pytest.raises(KeyboardInterrupt):
            _sweep(cache)
        payload = json.loads(_manifest(cache).read_text())
        assert payload["partial"] is True
        assert len(payload["points"]) == 2
        capsys.readouterr()
        assert main(["compare", "g", "g", "--cache-dir", str(cache)]) == 2
        assert "partial manifest" in capsys.readouterr().err
