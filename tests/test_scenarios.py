"""Tests for the scenario engine: specs, registry, runner, cache, CLI.

The sweep-runner tests use tiny heat-app predict scenarios so a full
parallel/serial/cache matrix stays cheap — the engine is the subject
here, not the workload.
"""

import dataclasses
import json

import pytest

from repro.scenarios import (
    SCENARIOS,
    ResultCache,
    ScenarioResult,
    ScenarioSpec,
    SweepRunner,
    expand_grid,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.runner import clear_memo
from repro.scenarios.spec import (
    SUB_PLANS,
    ChurnEventSpec,
    PlatformPlan,
    ProtocolPlan,
    WorkloadPlan,
)


def tiny_spec(**overrides) -> ScenarioSpec:
    """A fast predict scenario (small heat instance, 4-host cluster)."""
    defaults = dict(
        name="tiny",
        kind="predict",
        platform=PlatformPlan(kind="cluster", n_hosts=4),
        workload=WorkloadPlan(app="heat", n=64, nit=30, level="O1"),
        n_peers=2,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts with an empty in-process memo."""
    clear_memo()
    yield
    clear_memo()


class TestSpec:
    def test_hash_is_stable_across_processes(self):
        """The hash is content-derived: a hard-coded value pins it so
        accidental hash-scheme changes (which would orphan every
        on-disk cache) are caught.  If this fails because you bumped
        SCHEMA_VERSION or repro.__version__, updating the constant is
        the deliberate acknowledgment that existing caches invalidate.
        """
        spec = ScenarioSpec(name="x")
        assert spec.spec_hash() == "5c8dd843d1a1a33f"
        rebuilt = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_name_excluded_from_hash(self):
        a = tiny_spec(name="a")
        b = tiny_spec(name="completely-different")
        assert a.spec_hash() == b.spec_hash()

    def test_any_field_change_changes_hash(self):
        from repro.scenarios.spec import (
            ChurnProfile,
            RecoveryPlan,
            TcpPlan,
            TimerPlan,
        )

        base = tiny_spec()
        variants = [
            tiny_spec(n_peers=4),
            tiny_spec(seed=1),
            tiny_spec(workload=WorkloadPlan(app="heat", n=64, nit=31,
                                            level="O1")),
            tiny_spec(platform=PlatformPlan(kind="cluster", n_hosts=5)),
            tiny_spec(protocol=ProtocolPlan(cmax=8)),
            tiny_spec(churn=(ChurnEventSpec(1.0, "server-down"),)),
            tiny_spec(host_policy="spread"),
            tiny_spec(tcp=TcpPlan(window=65536.0)),
            tiny_spec(timers=TimerPlan(peer_expiry=90.0)),
            tiny_spec(churn_profile=ChurnProfile(rate=0.5)),
            tiny_spec(churn_profile=ChurnProfile(rate=0.5, rejoin_rate=1.0)),
            tiny_spec(churn_profile=ChurnProfile(tracker_churn_rate=0.1)),
            tiny_spec(churn_profile=ChurnProfile(
                coordinator_churn_rate=0.4)),
            tiny_spec(churn_profile=ChurnProfile(rejoin_rate=1.0),
                      recovery=RecoveryPlan(election=True)),
            tiny_spec(selection_policy="failure_aware"),
            tiny_spec(time_limit=100.0),
        ]
        hashes = {base.spec_hash()} | {v.spec_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_round_trip_through_dict(self):
        spec = tiny_spec(
            churn=(ChurnEventSpec(2.0, "tracker", "tracker-0"),),
            protocol=ProtocolPlan(scheme="async", grouping="random"),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_is_strict(self):
        """Unknown fields and malformed sub-plans are ValueErrors, not
        TypeErrors or KeyErrors: wire parsers report them as bad
        requests."""
        payload = tiny_spec().to_dict()
        with pytest.raises(ValueError, match="unknown scenario field"):
            ScenarioSpec.from_dict(dict(payload, n_peer=2))
        with pytest.raises(ValueError, match="must be an object"):
            ScenarioSpec.from_dict(dict(payload, workload="heat"))
        with pytest.raises(ValueError, match="bad 'platform' payload"):
            ScenarioSpec.from_dict(dict(payload, platform={"n_hostz": 4}))
        with pytest.raises(ValueError, match="'churn'"):
            ScenarioSpec.from_dict(dict(payload, churn={"time": 1.0}))
        with pytest.raises(ValueError, match="'churn'"):
            ScenarioSpec.from_dict(dict(payload, churn=[{"when": 1.0}]))
        with pytest.raises(ValueError, match="must be an object"):
            ScenarioSpec.from_dict([payload])
        without_name = dict(payload)
        del without_name["name"]
        with pytest.raises(ValueError, match="bad scenario payload"):
            ScenarioSpec.from_dict(without_name)

    def test_from_dict_defaults_absent_sub_plans(self):
        """Payloads older than a sub-plan (prediction_error in v5,
        fault_plan in v6, ...) parse to that sub-plan's default."""
        spec = tiny_spec()
        payload = spec.to_dict()
        for name in ("tcp", "timers", "churn", "churn_profile",
                     "recovery", "prediction_error", "fault_plan",
                     "failure_history"):
            del payload[name]
        assert ScenarioSpec.from_dict(payload) == spec
        assert ScenarioSpec.from_dict({"name": "bare"}) == \
            ScenarioSpec(name="bare")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_registry_base_specs_round_trip(self, name):
        # fleet tasks and sweep pool runs ship specs in this form
        spec = SCENARIOS[name].base
        wire = json.loads(json.dumps(spec.to_dict()))
        rebuilt = ScenarioSpec.from_dict(wire)
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec(name="x", kind="dream")
        with pytest.raises(ValueError, match="app"):
            WorkloadPlan(app="tetris")
        with pytest.raises(ValueError, match="speed_min"):
            PlatformPlan(speed_min=1.0, speed_max=0.5)

    def test_int_fields_reject_floats_and_bools(self):
        """Every ``int``-annotated field of the spec and its sub-plans
        takes ints only: ``2.0`` or ``True`` would simulate like ``2``
        or ``1`` but hash apart, so one run got two cache entries."""
        checked = 0
        for plan in (ScenarioSpec, *SUB_PLANS.values()):
            base = {"name": "x"} if plan is ScenarioSpec else {}
            for f in dataclasses.fields(plan):
                if f.type != "int":
                    continue
                for bad in (2.0, True):
                    with pytest.raises(ValueError,
                                       match=f"^{f.name} must be an int"):
                        plan(**base, **{f.name: bad})
                checked += 1
        assert checked == 16
        with pytest.raises(ValueError, match="n_peers"):
            ScenarioSpec.from_dict({"name": "x", "n_peers": 2.0})
        with pytest.raises(ValueError, match="n_hosts"):
            ScenarioSpec.from_dict({"name": "x",
                                    "platform": {"n_hosts": 8.0}})
        with pytest.raises(ValueError, match="n_peers"):
            tiny_spec().with_override("n_peers", 4.0)
        assert ScenarioSpec(name="x", n_peers=2).n_peers == 2

    def test_with_override_dotted(self):
        spec = tiny_spec()
        assert spec.with_override("workload.level", "O3").workload.level == "O3"
        assert spec.with_override("n_peers", 8).n_peers == 8
        with pytest.raises(KeyError):
            spec.with_override("workload.flavour", 1)
        with pytest.raises(KeyError):
            spec.with_override("nonsense", 1)


class TestRegistry:
    def test_at_least_ten_named_scenarios(self):
        assert len(SCENARIOS) >= 10

    def test_every_entry_expands_and_hashes(self):
        for name in scenario_names():
            entry = get_scenario(name)
            points = entry.points()
            assert len(points) == entry.n_points >= 1
            hashes = {p.spec_hash() for p in points}
            assert len(hashes) == len(points), f"{name}: duplicate points"

    def test_covers_all_kinds_and_both_apps(self):
        kinds = {e.base.kind for e in SCENARIOS.values()}
        assert kinds == {"reference", "predict", "deploy"}
        apps = {e.base.workload.app for e in SCENARIOS.values()}
        assert apps == {"obstacle", "heat"}

    def test_unknown_name_helpful_error(self):
        with pytest.raises(KeyError, match="fig9-cluster-o0"):
            get_scenario("nope")

    def test_experiment_specs_share_registry_cache_keys(self):
        """The stage runners and the registry draw from one spec space:
        the same (platform, workload, peers) point must hash to the
        same cache entry wherever it is built."""
        from repro.experiments import heterogeneous, stage1, stage2

        fig10 = SCENARIOS["fig10-cluster-o3"].points()
        assert (stage1.prediction_spec(2, "O3").spec_hash()
                == fig10[0].spec_hash())
        fig11_xdsl = SCENARIOS["fig11-xdsl-o0"].points()
        assert (stage2.prediction_spec("xdsl", 4, "O0").spec_hash()
                == fig11_xdsl[1].spec_hash())
        hetero = SCENARIOS["hetero-fastest"].points()
        assert (heterogeneous.prediction_spec(8, "O0", "fastest").spec_hash()
                == hetero[2].spec_hash())


class TestExpandGrid:
    def test_cartesian_product_and_names(self):
        base = tiny_spec(name="base")
        specs = expand_grid(
            base, {"n_peers": (2, 4), "workload.level": ("O0", "O1")}
        )
        assert len(specs) == 4
        assert specs[0].name == "base[n_peers=2,workload.level=O0]"
        assert {(s.n_peers, s.workload.level) for s in specs} == {
            (2, "O0"), (2, "O1"), (4, "O0"), (4, "O1"),
        }

    def test_empty_grid_is_base(self):
        base = tiny_spec()
        assert expand_grid(base, {}) == [base]


class TestRunnerAndCache:
    def grid_specs(self, n_levels=3):
        return expand_grid(
            tiny_spec(), {"n_peers": (2, 4), "workload.level":
                          ("O0", "O1", "O2", "O3")[:n_levels]}
        )

    def test_cache_hit_miss_accounting(self, tmp_path):
        specs = self.grid_specs(2)  # 4 points
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run(specs, parallel=False)
        assert (runner.hits, runner.misses) == (0, 4)
        assert len(runner.cache) == 4

        # same process, fresh runner: memo serves everything
        second = SweepRunner(cache_dir=tmp_path)
        second.run(specs, parallel=False)
        assert (second.hits, second.misses) == (4, 0)

        # cold process simulated: memo cleared, disk serves everything
        clear_memo()
        third = SweepRunner(cache_dir=tmp_path)
        third.run(specs, parallel=False)
        assert (third.hits, third.misses) == (4, 0)
        assert third.cache_ratio == 1.0

    def test_cached_result_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        fresh = run_scenario(spec).canonical_json()
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run([spec], parallel=False)
        clear_memo()
        from_disk = SweepRunner(cache_dir=tmp_path).run(
            [spec], parallel=False
        )[0]
        assert from_disk.canonical_json() == fresh

    def test_hash_payload_built_once_per_spec(self, tmp_path, monkeypatch):
        """spec_hash, a cache put and a cache get share one payload
        walk, and callers still get a fresh dict they may mutate."""
        walks = []
        to_dict = ScenarioSpec.to_dict

        def counting(self):
            walks.append(self)
            return to_dict(self)

        monkeypatch.setattr(ScenarioSpec, "to_dict", counting)
        spec = tiny_spec(seed=77)
        result = ScenarioResult(name=spec.name, spec_hash=spec.spec_hash(),
                                kind=spec.kind, t=1.0)
        cache = ResultCache(tmp_path)
        assert cache.get(spec) is None
        cache.put(spec, result)
        assert cache.get(spec) == result
        assert len(walks) == 1
        payload = spec.hash_payload()
        payload["seed"] = 0
        assert spec.hash_payload()["seed"] == 77
        assert cache.get(spec) == result

    def test_cache_payload_check_is_strict(self, tmp_path):
        """An entry whose stored spec differs from the asking spec's
        payload, under the same hash, is a miss."""
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        cache.put(spec, run_scenario(spec))
        path = tmp_path / f"{spec.spec_hash()}.json"
        entry = json.loads(path.read_text())
        entry["spec"]["n_peers"] = 4
        path.write_text(json.dumps(entry))
        assert cache.get(spec) is None

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        (tmp_path / f"{spec.spec_hash()}.json").write_text("{not json")
        assert cache.get(spec) is None

    def test_duplicate_specs_computed_once(self, tmp_path):
        spec = tiny_spec()
        runner = SweepRunner(cache_dir=tmp_path)
        results = runner.run([spec, spec, spec], parallel=False)
        assert len(results) == 3
        assert runner.misses == 1  # one computation serves all slots
        assert results[0].canonical_json() == results[2].canonical_json()

    def test_parallel_equals_serial(self, tmp_path):
        """The acceptance contract: a parallel sweep returns exactly
        the serial results, point for point."""
        specs = self.grid_specs(3)  # 6 points
        serial = [run_scenario(s) for s in specs]

        clear_memo()
        runner = SweepRunner(cache_dir=tmp_path / "par", max_workers=4)
        parallel = runner.run(specs, parallel=True)
        assert runner.misses == len(specs)

        assert [r.canonical_json() for r in parallel] == [
            r.canonical_json() for r in serial
        ]

    def test_second_sweep_served_from_disk(self, tmp_path):
        """≥90% of a repeated 12-point sweep comes from the cache (here:
        all of it)."""
        specs = expand_grid(
            tiny_spec(),
            {"n_peers": (2, 4), "workload.level": ("O0", "O1", "O2"),
             "workload.nit": (30, 40)},
        )
        assert len(specs) == 12
        first = SweepRunner(cache_dir=tmp_path, max_workers=4)
        first.run(specs)
        clear_memo()
        again = SweepRunner(cache_dir=tmp_path, max_workers=4)
        again.run(specs)
        assert again.cache_ratio >= 0.9
        assert again.misses == 0


class TestScenarioExecution:
    def test_deploy_scenario_reports_overlay_metrics(self):
        spec = ScenarioSpec(
            name="deploy-tiny", kind="deploy",
            platform=PlatformPlan(kind="cluster", n_hosts=8), n_peers=8,
            n_zones=2,
        )
        result = run_scenario(spec)
        assert result.ok
        assert result.metrics["n_peers"] == 8
        assert result.metrics["control_messages"] > 0

    def test_oversubscribed_fails_gracefully(self):
        result = run_scenario(SCENARIOS["oversubscribed-allocation"].base)
        assert not result.ok
        assert "collected only" in result.reason

    def test_churn_under_load_completes(self):
        result = run_scenario(SCENARIOS["churn-under-load"].base)
        assert result.ok, result.reason
        assert result.t > 2.0  # churn events at 0.5/1.0/2.0 land mid-run

    def test_random_grouping_slower_than_proximity(self):
        prox = run_scenario(SCENARIOS["heterogeneous-multisite"].base)
        rand = run_scenario(SCENARIOS["random-grouping"].base)
        assert prox.ok and rand.ok
        assert rand.metrics["makespan"] > prox.metrics["makespan"]


class TestCli:
    def test_list_names_every_scenario(self, capsys):
        from repro.scenarios.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_show_dumps_spec_json(self, capsys):
        from repro.scenarios.cli import main

        assert main(["show", "fig10-cluster-o3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["base"]["kind"] == "predict"
        assert len(payload["points"]) == 5

    def test_sweep_runs_grid_with_cache(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        argv = [
            "sweep", "xdsl-daisy-chain",
            "--set", "n_peers=2",
            "--set", "workload.n=64", "--set", "workload.nit=30",
            "--cache-dir", str(tmp_path), "--workers", "1",
        ]
        assert main(argv) == 0
        assert "1 executed" in capsys.readouterr().out
        clear_memo()
        assert main(argv) == 0
        assert "1 from cache" in capsys.readouterr().out

    def test_sweep_then_compare_round_trip(self, tmp_path, capsys):
        """Two CLI sweeps, one compare: the documented churn workflow."""
        from repro.scenarios.cli import main

        common = [
            "sweep", "xdsl-daisy-chain",
            "--set", "workload.n=64", "--set", "workload.nit=30",
            "--cache-dir", str(tmp_path), "--workers", "1",
        ]
        assert main(common + ["--set", "n_peers=2",
                              "--label", "two"]) == 0
        assert main(common + ["--set", "n_peers=2,4",
                              "--label", "scale"]) == 0
        capsys.readouterr()
        assert main(["compare", "two", "scale",
                     "--cache-dir", str(tmp_path)]) == 0
        report = capsys.readouterr().out
        assert "`two` vs `scale`" in report
        assert "n_peers=2" in report and "n_peers=4" in report

        out = tmp_path / "diff.json"
        assert main(["compare", "two", "scale", "--format", "json",
                     "--out", str(out),
                     "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(out.read_text())
        assert "n_peers" in payload["shared_axes"]
        assert len(payload["rows"]) == 2

    def test_compare_unknown_label_is_usage_error(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        assert main(["compare", "nope", "also-nope",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "no sweep manifest" in capsys.readouterr().err

    def test_bad_label_rejected_before_running(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        assert main(["run", "flat-allocation", "--cache-dir",
                     str(tmp_path), "--label", "a/b"]) == 2
        assert "--label" in capsys.readouterr().err

    def test_label_with_no_cache_rejected(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        assert main(["run", "flat-allocation", "--no-cache",
                     "--label", "x"]) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_compare_label_not_shadowed_by_cwd_file(
        self, tmp_path, capsys, monkeypatch
    ):
        """A stray same-named file in the cwd must not shadow a
        recorded sweep, and a non-manifest path is a clean error."""
        from repro.scenarios.cli import main

        argv = [
            "sweep", "xdsl-daisy-chain",
            "--set", "n_peers=2", "--set", "workload.n=64",
            "--set", "workload.nit=30",
            "--cache-dir", str(tmp_path), "--workers", "1", "--label", "lbl",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        (workdir / "lbl").write_text("not json")
        monkeypatch.chdir(workdir)
        assert main(["compare", "lbl", "lbl",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "`lbl` vs `lbl`" in capsys.readouterr().out
        assert main(["compare", str(workdir / "lbl"), "lbl",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "not a sweep manifest" in capsys.readouterr().err

    def test_labelless_manifest_is_usage_error(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        bad = tmp_path / "foo.json"
        bad.write_text('{"points": []}')
        assert main(["compare", str(bad), str(bad),
                     "--cache-dir", str(tmp_path)]) == 2
        assert "not a sweep manifest" in capsys.readouterr().err
