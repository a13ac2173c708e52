"""Prediction-guided scheduling: the ``predicted`` policy and its
omniscient-oracle ablation harness.

Four invariant families over the ``prediction-grid`` base:

* **consistency** — at zero error the predicted ordering coincides
  with the oracle ordering on contention-free uniform-latency
  platforms (unit level), and the full-scale reference runs agree to
  the last float (the registry's hetero LAN *is* such a platform);
* **headline** — at zero error ``predicted`` achieves strictly lower
  makespan than ``proximity`` and ``random`` on the heterogeneous
  platform, at every grid seed;
* **robustness** — under the worst degradation (``flip`` at level
  1.0, the exact ranking inversion) completion probability under
  churn is no worse than ``random``'s;
* **regression** — pre-v5 spec dicts parse (policy off), the guard
  pair rejects ``prediction_error`` without the ``predicted`` policy
  at parse *and* deploy time, and serial/parallel execution stays
  byte-identical.

Plus the failure-history seeding round-trip (the reputation store
rides the spec across runs and demonstrably changes first-selection
order) and the gap-report monotonicity headline.
"""

import json

import pytest

from repro.p2pdc import prediction as prediction_mod
from repro.p2pdc import (
    PREDICTION_ERROR_KINDS,
    PredictionError,
    candidate_groups,
    oracle_makespan,
    peer_score,
    predict_makespan,
)
from repro.p2pdc.overlay import OverlayConfig
from repro.scenarios import SCENARIOS, SweepRunner, run_scenario
from repro.scenarios.runner import clear_memo, execute_reference
from repro.scenarios import spec as spec_mod
from repro.scenarios.spec import PredictionErrorPlan, ScenarioSpec
from repro.analysis import SweepData, prediction_gap


PREDICTION_GRID = SCENARIOS["prediction-grid"]


def grid_point(policy: str, seed: int = 2011, **overrides) -> ScenarioSpec:
    spec = PREDICTION_GRID.base.with_override("selection_policy", policy)
    spec = spec.with_override("seed", seed)
    for path, value in overrides.items():
        spec = spec.with_override(path.replace("__", "."), value)
    return spec


class _Workload:
    """The three attributes the makespan model reads, nothing else."""

    def __init__(self, reference_speed=2.0, nit=10.0, per_rank=None):
        self.reference_speed = reference_speed
        self._nit = nit
        self._per_rank = per_rank

    def iteration_time(self, rank, n):
        if self._per_rank is None:
            return 1.0
        return self._per_rank[min(rank, len(self._per_rank) - 1)]

    def effective_nit(self):
        return self._nit


class TestConstantsMirror:
    def test_error_kinds_mirrored_in_spec_layer(self):
        assert spec_mod.PREDICTION_ERROR_KINDS == PREDICTION_ERROR_KINDS

    def test_prediction_policies_registered(self):
        from repro.p2pdc.overlay import SELECTION_POLICIES

        assert "predicted" in SELECTION_POLICIES
        assert "oracle" in SELECTION_POLICIES
        assert SELECTION_POLICIES == spec_mod.SELECTION_POLICIES


class TestPredictionError:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            PredictionError(kind="gremlins")
        with pytest.raises(ValueError, match="level"):
            PredictionError(level=-0.1)
        with pytest.raises(ValueError, match="kind"):
            PredictionErrorPlan(kind="gremlins")
        with pytest.raises(ValueError, match="level"):
            PredictionErrorPlan(level=-0.1)

    def test_level_zero_is_inert(self):
        error = PredictionError(kind="flip", level=0.0)
        assert not error.active
        assert error.corrupt(3.0, "a|b") == 3.0
        assert error.skewed_speed(1.5, 3.0) == 1.5

    def test_corruption_is_a_pure_function_of_seed_and_key(self):
        error = PredictionError(kind="noise", level=0.5, seed=7)
        first = error.corrupt(3.0, "a|b")
        assert error.corrupt(3.0, "a|b") == first  # order-independent
        assert error.corrupt(3.0, "a|c") != first
        assert PredictionError(kind="noise", level=0.5,
                               seed=8).corrupt(3.0, "a|b") != first

    def test_flip_at_one_inverts_every_score(self):
        error = PredictionError(kind="flip", level=1.0)
        for key in ("a", "b", "a|b|c"):
            assert error.corrupt(2.5, key) == -2.5

    def test_stale_pulls_speeds_toward_reference(self):
        full = PredictionError(kind="stale", level=1.0)
        assert full.skewed_speed(1.0, 3.0) == pytest.approx(3.0)
        half = PredictionError(kind="stale", level=0.5)
        assert half.skewed_speed(1.0, 4.0) == pytest.approx(2.0)  # sqrt
        # stale never corrupts the score itself
        assert full.corrupt(2.5, "a") == 2.5


class TestCandidateGroups:
    def test_validation_and_small_pools(self):
        with pytest.raises(ValueError, match="group size"):
            candidate_groups(["a", "b"], 0)
        assert candidate_groups(["a", "b"], 2) == [("a", "b")]
        assert candidate_groups(["a"], 3) == [("a",)]

    def test_exhaustive_under_the_cap(self):
        pool = list("abcdef")
        groups = candidate_groups(pool, 3)
        assert len(groups) == 20  # C(6, 3)
        assert len(set(groups)) == 20

    def test_windowed_fallback_keeps_the_best_group_first(self):
        pool = [f"p{i}" for i in range(40)]
        groups = candidate_groups(pool, 8, cap=100)
        assert len(groups) == 40 - 8 + 1
        # window 0 is the individually-best prefix — the argmin group
        # under the max-based model
        assert groups[0] == tuple(pool[:8])

    def test_registry_pool_stays_exhaustive(self):
        import math

        base = PREDICTION_GRID.base
        pool = base.n_peers + base.spares
        assert math.comb(pool, base.n_peers) <= prediction_mod.CANDIDATE_CAP


class TestMakespanModel:
    def test_slowest_member_prices_the_group(self):
        w = _Workload(reference_speed=2.0, nit=10.0)
        members = (("a", 2.0), ("b", 1.0), ("c", 4.0))
        # bursts: 1.0, 2.0, 0.5 — lock-step pays the slowest
        assert predict_makespan(w, members) == pytest.approx(20.0)

    def test_reference_free_model_keeps_the_ordering(self):
        w = _Workload(reference_speed=0.0)
        fast = predict_makespan(w, (("a", 4.0),))
        slow = predict_makespan(w, (("a", 1.0),))
        assert fast < slow

    def test_peer_score_is_the_single_member_makespan(self):
        w = _Workload()
        assert peer_score(w, "a", 1.0) == predict_makespan(w, (("a", 1.0),))
        # defensive fallback without a workload: bare inverse speed
        assert peer_score(None, "a", 4.0) == pytest.approx(0.25)

    def test_oracle_adds_the_halo_coupling_term(self):
        w = _Workload(reference_speed=2.0, nit=10.0)
        members = (("a", 2.0), ("b", 2.0))

        assert oracle_makespan(w, members, lambda x, y: 0.0) == (
            pytest.approx(predict_makespan(w, members)))
        coupled = oracle_makespan(w, members, lambda x, y: 0.5)
        assert coupled == pytest.approx(10.0 * (1.0 + 0.5))

    def test_consistency_uniform_latency_orderings_coincide(self):
        """The consistency property at unit level: on a uniform-latency
        platform the coupling term is a constant offset, so zero-error
        predicted ordering equals oracle ordering over every candidate
        group."""
        w = _Workload(reference_speed=2.0, nit=5.0)
        speeds = {"a": 0.9, "b": 1.4, "c": 2.0, "d": 2.6, "e": 3.1}
        pool = sorted(speeds, key=lambda n: peer_score(w, n, speeds[n]))
        groups = candidate_groups(pool, 3)
        sketch = lambda g: tuple((n, speeds[n]) for n in sorted(g))
        by_predicted = sorted(
            groups, key=lambda g: (predict_makespan(w, sketch(g)), g))
        by_oracle = sorted(
            groups,
            key=lambda g: (oracle_makespan(w, sketch(g),
                                           lambda x, y: 0.125), g))
        assert by_predicted == by_oracle

    def test_nonuniform_latency_can_reorder_the_oracle(self):
        """The property above is *not* vacuous: give one pair a WAN
        link and the oracle disagrees with the compute-only model."""
        w = _Workload(reference_speed=2.0, nit=5.0)
        wan = lambda x, y: 9.0 if {x, y} == {"a", "b"} else 0.0
        near = (("a", 2.0), ("b", 2.0))       # fast but WAN-coupled
        far = (("c", 1.8), ("d", 1.8))        # slower, co-located
        assert predict_makespan(w, near) < predict_makespan(w, far)
        assert oracle_makespan(w, near, wan) > oracle_makespan(w, far, wan)


class TestGuards:
    """Satellite: ``prediction_error`` without the ``predicted``
    policy is rejected at spec parse AND deploy time (the
    election-without-rejoin pattern)."""

    ERROR = dict(kind="flip", level=1.0)

    def test_spec_parse_rejects_error_without_predicted(self):
        with pytest.raises(ValueError, match="prediction_error requires"):
            ScenarioSpec(name="x", selection_policy="proximity",
                         prediction_error=PredictionErrorPlan(**self.ERROR))

    def test_from_dict_goes_through_the_same_guard(self):
        payload = ScenarioSpec(name="x").to_dict()
        payload["prediction_error"] = dict(self.ERROR, seed=2011)
        payload["selection_policy"] = "random"
        with pytest.raises(ValueError, match="prediction_error requires"):
            ScenarioSpec.from_dict(payload)

    def test_deploy_config_rejects_error_without_predicted(self):
        with pytest.raises(ValueError, match="prediction_error requires"):
            OverlayConfig(selection_policy="oracle",
                          prediction_error=PredictionError(**self.ERROR))

    def test_predicted_policy_accepts_the_error(self):
        spec = ScenarioSpec(name="x", selection_policy="predicted",
                            prediction_error=PredictionErrorPlan(
                                **self.ERROR))
        assert spec.prediction_error.active
        cfg = OverlayConfig(selection_policy="predicted",
                            prediction_error=PredictionError(**self.ERROR))
        assert cfg.prediction_error.active

    def test_level_zero_error_is_legal_everywhere(self):
        for policy in ("proximity", "random", "oracle"):
            assert not ScenarioSpec(
                name="x", selection_policy=policy,
            ).prediction_error.active
            OverlayConfig(selection_policy=policy)  # must not raise


class TestSpecRegression:
    def test_pre_v5_dict_parses_with_the_policy_off(self):
        """A v4 manifest dict has neither prediction_error nor
        failure_history; it must parse to the inert defaults."""
        payload = ScenarioSpec(name="x").to_dict()
        payload.pop("prediction_error", None)
        payload.pop("failure_history", None)
        spec = ScenarioSpec.from_dict(payload)
        assert not spec.prediction_error.active
        assert spec.failure_history == ()

    def test_failure_history_round_trips_through_json(self):
        spec = ScenarioSpec(
            name="x", selection_policy="failure_aware",
            failure_history=(("p-1-0", 3), ("p-1-1", 1)),
        )
        rebuilt = ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec
        assert rebuilt.failure_history == (("p-1-0", 3), ("p-1-1", 1))

    def test_failure_history_canonicalized_and_validated(self):
        spec = ScenarioSpec(name="x",
                            failure_history=[["p-0-0", 2.0]])
        assert spec.failure_history == (("p-0-0", 2),)
        with pytest.raises(ValueError, match="failure_history"):
            ScenarioSpec(name="x", failure_history=(("p-0-0", -1),))

    def test_new_fields_change_the_spec_hash(self):
        base = ScenarioSpec(name="x")
        variants = [
            ScenarioSpec(name="x", selection_policy="predicted"),
            ScenarioSpec(name="x", selection_policy="oracle"),
            ScenarioSpec(name="x", selection_policy="predicted",
                         prediction_error=PredictionErrorPlan(
                             kind="noise", level=0.5)),
            ScenarioSpec(name="x", selection_policy="predicted",
                         prediction_error=PredictionErrorPlan(
                             kind="noise", level=0.5, seed=99)),
            ScenarioSpec(name="x", failure_history=(("p-0-0", 1),)),
        ]
        hashes = {base.spec_hash()} | {v.spec_hash() for v in variants}
        assert len(hashes) == len(variants) + 1


class TestRegisteredGrid:
    def test_shape_and_sheets(self):
        assert PREDICTION_GRID.n_points == 30
        points = PREDICTION_GRID.points()
        assert len(points) == 30
        assert len({p.spec_hash() for p in points}) == 30
        assert {p.selection_policy for p in points} == {
            "predicted", "oracle", "proximity", "random"}
        # the error sheets only ever corrupt the predicted policy —
        # every other combination is rejected at parse time
        for p in points:
            if p.prediction_error.active:
                assert p.selection_policy == "predicted"
        kinds = {p.prediction_error.kind for p in points
                 if p.prediction_error.active}
        assert kinds == set(PREDICTION_ERROR_KINDS)

    def test_platform_is_heterogeneous_lan(self):
        plan = PREDICTION_GRID.base.platform
        assert plan.speed_min < plan.speed_max  # real clock spread
        assert plan.kind == "lan"  # uniform latency: consistency holds


class TestHeadline:
    """The acceptance headline on the heterogeneous platform, pinned
    at both grid seeds: predicted strictly beats proximity and random
    at zero error, and agrees with the oracle exactly."""

    SEEDS = (2011, 2013)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_predicted_strictly_beats_blind_policies(self, seed):
        makespans = {
            policy: run_scenario(grid_point(policy, seed)).metrics["makespan"]
            for policy in ("predicted", "proximity", "random")
        }
        assert makespans["predicted"] < makespans["proximity"]
        assert makespans["predicted"] < makespans["random"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zero_error_predicted_equals_oracle(self, seed):
        """The full-scale consistency pin: the registry platform has
        uniform link latency, so the compute-only predictor and the
        omniscient oracle choose the same group."""
        predicted = run_scenario(grid_point("predicted", seed))
        oracle = run_scenario(grid_point("oracle", seed))
        assert predicted.metrics["makespan"] == oracle.metrics["makespan"]

    def test_pinned_reference_numbers(self):
        """Hard-coded values: a silent change to the prediction model,
        the hetero speed draw, or the reference-speed scaling moves
        these and must be acknowledged here."""
        predicted = run_scenario(grid_point("predicted", 2011))
        assert predicted.metrics["makespan"] == pytest.approx(
            3.5593, abs=1e-3)
        assert predicted.metrics["prediction_candidates"] == 495.0
        random_ = run_scenario(grid_point("random", 2011))
        assert random_.metrics["makespan"] == pytest.approx(
            4.4246, abs=1e-3)
        assert "prediction_candidates" not in random_.metrics

    def test_oracle_group_survives_in_the_outcome(self):
        dep, outcome = execute_reference(grid_point("predicted", 2011))
        assert outcome.ok
        assert len(outcome.ranks) == PREDICTION_GRID.base.n_peers
        assert dep.overlay.stats.counters["prediction_candidates"] == 495


class TestRobustness:
    """Under the worst degradation — flip at level 1.0, the exact
    ranking inversion — completion probability under churn is no worse
    than the random policy's."""

    SEEDS = (2011, 2013)

    def _probability(self, policy, **overrides):
        done = [
            run_scenario(grid_point(
                policy, seed, churn_profile__rate=1.2, **overrides,
            )).metrics["completed"]
            for seed in self.SEEDS
        ]
        return sum(done) / len(done)

    def test_worst_case_error_completes_no_worse_than_random(self):
        worst = self._probability(
            "predicted",
            prediction_error__kind="flip", prediction_error__level=1.0,
        )
        blind = self._probability("random")
        assert worst >= blind
        assert worst == 1.0  # the grid's churn wave is survivable

    def test_flipped_ranking_still_yields_a_finite_makespan(self):
        result = run_scenario(grid_point(
            "predicted", 2011, churn_profile__rate=1.2,
            prediction_error__kind="flip", prediction_error__level=1.0,
        ))
        assert result.ok
        assert result.metrics["makespan"] < PREDICTION_GRID.base.time_limit


class TestFailureHistorySeeding:
    """Satellite: the reputation store rides the spec across runs —
    seeding it demonstrably changes the first selection."""

    def _history(self):
        # the submitter sits in the last zone, so collection reaches
        # the p-1-* peers first: penalizing them forces a different
        # first pick
        return tuple((f"p-1-{k}", 3) for k in range(8))

    def test_seeded_history_changes_first_selection_order(self):
        base = grid_point("failure_aware")
        dep_a, outcome_a = execute_reference(base)
        dep_b, outcome_b = execute_reference(
            base.with_override("failure_history", self._history()))
        assert outcome_a.ok and outcome_b.ok
        names_a = {r.name for r in outcome_a.ranks}
        names_b = {r.name for r in outcome_b.ranks}
        assert names_a != names_b
        # the penalized peers were demoted, not merely reshuffled
        penalized = {name for name, _count in self._history()}
        assert len(names_b & penalized) < len(names_a & penalized)

    def test_two_run_regression_through_the_cached_runner(self, tmp_path):
        """The seeded spec hashes differently, runs differently, and
        rehydrates identically from its manifest dict — the round trip
        a cross-run reputation store depends on."""
        base = grid_point("failure_aware")
        seeded = base.with_override("failure_history", self._history())
        assert seeded.spec_hash() != base.spec_hash()
        runner = SweepRunner(cache_dir=tmp_path)
        first, second = runner.run([base, seeded], parallel=False)
        assert first.metrics["makespan"] != second.metrics["makespan"]
        rebuilt = ScenarioSpec.from_dict(
            json.loads(json.dumps(seeded.to_dict())))
        assert rebuilt.spec_hash() == seeded.spec_hash()


def _manifest_point(policy, makespan, seed="2011", rate="0.0", error=None):
    label = f"selection_policy={policy}"
    if error is not None:
        kind, level = error
        label += (f",prediction_error.kind={kind}"
                  f",prediction_error.level={level}")
    label += f",churn_profile.rate={rate},seed={seed}"
    return {
        "name": f"prediction-grid[{label}]",
        "result": {"ok": True,
                   "metrics": {"makespan": makespan, "completed": 1.0}},
    }


def _gap_manifest():
    """The measured prediction-grid numbers as a sweep manifest."""
    points = [
        _manifest_point("predicted", 3.5593),
        _manifest_point("predicted", 3.5589, seed="2013"),
        _manifest_point("oracle", 3.5593),
        _manifest_point("oracle", 3.5589, seed="2013"),
        _manifest_point("proximity", 4.4309),
        _manifest_point("proximity", 4.4350, seed="2013"),
        _manifest_point("random", 4.4246),
        _manifest_point("random", 4.4105, seed="2013"),
    ]
    for kind, level, a, b in (
        ("noise", "0.5", 3.8120, 3.8117), ("noise", "1.0", 3.8120, 3.8117),
        ("flip", "0.5", 4.4244, 4.4195), ("flip", "1.0", 4.4243, 4.4194),
        ("stale", "0.5", 3.5593, 3.5589), ("stale", "1.0", 4.4243, 4.4194),
    ):
        points.append(_manifest_point("predicted", a, error=(kind, level)))
        points.append(_manifest_point("predicted", b, seed="2013",
                                      error=(kind, level)))
    return SweepData(label="prediction-grid", points=points)


class TestGapReport:
    """Satellite: the ``gap`` monotonicity headline — predicted's gap
    to the oracle widens with the error level; random's does not."""

    def test_gap_widens_with_error_level(self):
        report = prediction_gap(
            _gap_manifest(), over=("seed", "prediction_error.kind"))
        gaps = {
            row.key["prediction_error.level"]: row.gap
            for row in report.rows
            if row.key["selection_policy"] == "predicted"
        }
        # "" is the zero-error main sheet (no error axis in its label)
        assert gaps[""] == pytest.approx(1.0)
        assert gaps[""] < gaps["0.5"] < gaps["1"]

    def test_blind_policies_carry_no_error_axis(self):
        report = prediction_gap(
            _gap_manifest(), over=("seed", "prediction_error.kind"))
        random_rows = [row for row in report.rows
                       if row.key["selection_policy"] == "random"]
        assert len(random_rows) == 1  # one cell: no level axis to widen
        assert random_rows[0].key["prediction_error.level"] == ""
        assert random_rows[0].gap > 1.0

    def test_error_cells_broadcast_against_the_same_oracle_cell(self):
        report = prediction_gap(_gap_manifest())
        oracle_mean = next(
            row.mean for row in report.rows
            if row.key["selection_policy"] == "oracle")
        for row in report.rows:
            assert row.baseline_mean == pytest.approx(oracle_mean)

    def test_unknown_axes_are_loud(self):
        data = _gap_manifest()
        with pytest.raises(ValueError, match="--over axis"):
            prediction_gap(data, over=("sedd",))
        with pytest.raises(ValueError, match="no 'selection_policy'"):
            prediction_gap(SweepData(label="x", points=[
                {"name": "x[seed=1]",
                 "result": {"ok": True, "metrics": {}}}]), over=())

    def test_markdown_and_json_render(self):
        report = prediction_gap(_gap_manifest())
        md = report.to_markdown()
        assert "Prediction gap" in md and "oracle" in md
        payload = json.loads(report.to_json())
        assert payload["baseline"] == "oracle"
        assert len(payload["rows"]) == len(report.rows)


class TestDeterminism:
    def test_serial_parallel_rerun_byte_identical(self, tmp_path):
        """Prediction-guided selection through the pooled runner
        returns exactly the serial results — group enumeration,
        corruption draws and all."""
        specs = [
            grid_point("predicted"),
            grid_point("oracle"),
            grid_point("predicted",
                       prediction_error__kind="noise",
                       prediction_error__level=0.5),
        ]
        serial = [run_scenario(s).canonical_json() for s in specs]
        rerun = [run_scenario(s).canonical_json() for s in specs]
        assert rerun == serial

        clear_memo()
        runner = SweepRunner(cache_dir=tmp_path, max_workers=2)
        parallel = runner.run(specs, parallel=True)
        assert runner.misses == len(specs)
        assert [r.canonical_json() for r in parallel] == serial


class TestCli:
    def test_sweep_then_gap_renders_the_table(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        code = main([
            "sweep", "prediction-grid", "--workers", "1",
            "--cache-dir", str(tmp_path),
            "--set", "selection_policy=predicted,oracle,random",
            "--set", "seed=2011,2013",
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["gap", "prediction-grid",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Prediction gap" in out
        assert "selection_policy=oracle" in out

    def test_gap_missing_label_is_a_usage_error(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        assert main(["gap", "no-such-sweep",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "no sweep manifest" in capsys.readouterr().err

    def test_show_lists_the_extra_grid_sheets(self, capsys):
        from repro.scenarios.cli import main

        assert main(["show", "prediction-grid"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 30
        assert len(payload["extra_grids"]) == 2
        assert "prediction_error.kind" in payload["extra_grids"][0]
