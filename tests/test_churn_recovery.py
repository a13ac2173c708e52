"""Property-test harness for the churn recovery subsystem.

Three invariant families over a seeded grid of (crash rate, rejoin
rate, selection policy) points:

* **conservation** — every subtask completes exactly once, or the run
  reports non-completion; never a double completion;
* **monotonicity** — completion probability is non-decreasing in the
  rejoin rate at a fixed crash rate (aggregated over seeds);
* **determinism** — byte-identical results for serial vs parallel
  ``recovery-grid`` execution and for reruns of the same seed.

Plus the regression pins: with ``rejoin_rate=0`` the subsystem is off
and the pre-recovery (SCHEMA_VERSION 2) churn-grid dynamics reproduce
exactly, and the spec-parse error paths for the new fields.

The grid points reuse the registered ``churn-grid``/``recovery-grid``
base (same app/peers/level instance), so the in-process calibration
cache is shared with the other churn tests.
"""

import pytest

from repro.desim.rng import derive_seed
from repro.p2pdc import ChurnEvent, poisson_peer_failures, rejoin_events
from repro.p2pdc.overlay import OverlayConfig
from repro.scenarios import SCENARIOS, SweepRunner, run_scenario
from repro.scenarios.runner import clear_memo, execute_reference
from repro.scenarios.spec import ChurnProfile, ScenarioSpec


RECOVERY_GRID = SCENARIOS["recovery-grid"]


def recovery_point(rate: float, rejoin: float, seed: int = 2011,
                   **overrides) -> ScenarioSpec:
    spec = RECOVERY_GRID.base.with_override("churn_profile.rate", rate)
    spec = spec.with_override("churn_profile.rejoin_rate", rejoin)
    spec = spec.with_override("seed", seed)
    for path, value in overrides.items():
        spec = spec.with_override(path.replace("__", "."), value)
    return spec


class TestRejoinSchedule:
    CRASHES = [
        ChurnEvent(time=1.0, kind="peer", target="p-0"),
        ChurnEvent(time=2.5, kind="peer", target="p-1"),
        ChurnEvent(time=0.5, kind="tracker", target="tracker-0"),
    ]

    def test_pure_function_of_inputs(self):
        a = rejoin_events(self.CRASHES, 2.0, seed=7)
        b = rejoin_events(self.CRASHES, 2.0, seed=7)
        assert a == b
        assert rejoin_events(self.CRASHES, 2.0, seed=8) != a

    def test_one_rejoin_per_peer_crash_after_it(self):
        out = rejoin_events(self.CRASHES, 2.0, seed=7, delay=0.25)
        assert [e.target for e in out] == ["p-0", "p-1"]  # no tracker
        assert all(e.kind == "peer-rejoin" for e in out)
        crash_at = {e.target: e.time for e in self.CRASHES}
        for e in out:
            assert e.time > crash_at[e.target] + 0.25

    def test_rejoin_seed_independent_of_crash_seed(self):
        """The recovery-grid contract: sweeping the rejoin rate never
        changes who crashes when."""
        targets = tuple(f"p-{i}" for i in range(12))
        crashes = poisson_peer_failures(1.0, targets, seed=3, horizon=8.0)
        again = poisson_peer_failures(1.0, targets, seed=3, horizon=8.0)
        assert crashes == again  # rejoin drawing never touched this
        slow = rejoin_events(crashes, 0.5, seed=derive_seed(3, "rejoin"))
        fast = rejoin_events(crashes, 4.0, seed=derive_seed(3, "rejoin"))
        assert [e.target for e in slow] == [e.target for e in fast]

    def test_validation(self):
        with pytest.raises(ValueError, match="rejoin rate"):
            rejoin_events(self.CRASHES, 0.0, seed=1)
        with pytest.raises(ValueError, match="rejoin delay"):
            rejoin_events(self.CRASHES, 1.0, seed=1, delay=-0.1)


class TestInjectionValidation:
    """The spec-parse and draw-time error paths for churn fields."""

    def test_poisson_rejects_negative_start(self):
        with pytest.raises(ValueError, match="start"):
            poisson_peer_failures(1.0, ("p-0",), seed=1, start=-1.0)

    def test_poisson_rejects_bad_rate_horizon_cap_kind(self):
        with pytest.raises(ValueError, match="rate"):
            poisson_peer_failures(-0.5, ("p-0",), seed=1)
        with pytest.raises(ValueError, match="horizon"):
            poisson_peer_failures(1.0, ("p-0",), seed=1, horizon=0.0)
        with pytest.raises(ValueError, match="max_failures"):
            poisson_peer_failures(1.0, ("p-0",), seed=1, max_failures=-1)
        with pytest.raises(ValueError, match="kind"):
            poisson_peer_failures(1.0, ("p-0",), seed=1, kind="server")

    def test_profile_rejects_bad_recovery_fields(self):
        with pytest.raises(ValueError, match="rejoin_rate"):
            ChurnProfile(rejoin_rate=-1.0)
        with pytest.raises(ValueError, match="rejoin_delay"):
            ChurnProfile(rejoin_delay=-0.5)
        with pytest.raises(ValueError, match="tracker_churn_rate"):
            ChurnProfile(tracker_churn_rate=-0.1)
        with pytest.raises(ValueError, match="start"):
            ChurnProfile(start=-1.0)

    def test_spec_rejects_unknown_selection_policy(self):
        with pytest.raises(ValueError, match="selection policy"):
            ScenarioSpec(name="x", selection_policy="psychic")
        with pytest.raises(ValueError, match="selection_policy"):
            OverlayConfig(selection_policy="psychic")

    def test_overlay_config_ping_validation(self):
        with pytest.raises(ValueError, match="compute_ping_interval"):
            OverlayConfig(compute_ping_interval=0.0)
        with pytest.raises(ValueError, match="compute_ping_timeout"):
            OverlayConfig(compute_ping_interval=5.0,
                          compute_ping_timeout=4.0)


#: The seeded grid the conservation property walks: baseline, a
#: recovered wave, a heavy wave, and each selection policy.
CONSERVATION_POINTS = (
    dict(rate=0.0, rejoin=0.0, seed=2011),
    dict(rate=1.2, rejoin=0.0, seed=2013),
    dict(rate=1.2, rejoin=1.0, seed=2011),
    dict(rate=1.2, rejoin=1.0, seed=2013),
    dict(rate=2.0, rejoin=1.0, seed=2017),
    dict(rate=1.2, rejoin=1.0, seed=2013, selection_policy="random"),
    dict(rate=1.2, rejoin=1.0, seed=2013, selection_policy="failure_aware"),
)


class TestConservation:
    """Every subtask completes exactly once, or the run says it did
    not complete — never a double completion."""

    @pytest.mark.parametrize(
        "point", CONSERVATION_POINTS,
        ids=lambda p: ",".join(f"{k}={v}" for k, v in p.items()),
    )
    def test_exactly_once_or_reported_failure(self, point):
        point = dict(point)
        spec = recovery_point(point.pop("rate"), point.pop("rejoin"),
                              point.pop("seed"), **point)
        dep, outcome = execute_reference(spec)
        n = spec.n_peers
        ranks = [r.rank for r in outcome.results]
        # never double-completed, regardless of outcome
        assert len(ranks) == len(set(ranks)), "a rank completed twice"
        if outcome.ok:
            assert sorted(ranks) == list(range(n))
        else:
            # non-completion is reported, with the reason preserved
            assert outcome.reason
            assert len(ranks) < n
        # coordinator-side dedup never fired more than the protocol
        # allows: any duplicate result was counted and dropped
        duplicates = dep.overlay.stats.counters.get("duplicate_results", 0)
        assert duplicates == 0, "a duplicate result reached a coordinator"

    def test_recovered_run_attributes_completions_to_live_peers(self):
        """After a re-dispatch the completing peer of the lost rank is
        the replacement (or a rejoined peer), never the dead one still
        counted as busy."""
        spec = recovery_point(1.2, 1.0, 2011)
        dep, outcome = execute_reference(spec)
        assert outcome.ok
        redispatched = dep.overlay.stats.counters.get(
            "redispatched_subtasks", 0)
        assert redispatched > 0, "this seed must exercise re-dispatch"
        completers = {}
        for peer in dep.peers:
            for result in peer.completed_subtasks:
                completers.setdefault(result.rank, peer)
        for rank, peer in completers.items():
            assert peer.alive or peer.rejoin_count > 0


class TestMonotonicity:
    """Completion probability is non-decreasing in the rejoin rate at
    a fixed crash rate (aggregated over the seeded grid)."""

    SEEDS = (2011, 2013, 2019)

    @pytest.mark.parametrize("rate", (1.2,))
    def test_completion_probability_monotone_in_rejoin_rate(self, rate):
        probabilities = []
        for rejoin in (0.0, 0.5, 2.0):
            done = [
                run_scenario(recovery_point(rate, rejoin, seed))
                .metrics["completed"]
                for seed in self.SEEDS
            ]
            probabilities.append(sum(done) / len(done))
        assert probabilities == sorted(probabilities), probabilities
        assert probabilities[0] < probabilities[-1], (
            "recovery must strictly beat the no-rejoin baseline at a "
            "rate that kills baseline runs"
        )

    def test_recovered_makespan_degrades_but_is_finite(self):
        """The acceptance headline: recovery completes where the
        baseline died, and survivors pay a real, finite makespan
        penalty (detection + re-dispatch + recompute)."""
        baseline = run_scenario(recovery_point(0.0, 0.0, 2011))
        recovered = run_scenario(recovery_point(1.2, 1.0, 2011))
        assert baseline.metrics["completed"] == 1.0
        assert recovered.metrics["completed"] == 1.0
        assert recovered.metrics["redispatched_subtasks"] > 0
        ratio = recovered.metrics["makespan"] / baseline.metrics["makespan"]
        assert 1.0 < ratio < 1e3, f"degradation ratio {ratio}"


class TestDeterminism:
    def test_serial_parallel_rerun_byte_identical(self, tmp_path):
        """A recovery-grid subset through the pooled runner returns
        exactly the serial results, re-dispatch dynamics included."""
        specs = [recovery_point(1.2, rejoin, seed)
                 for rejoin in (0.0, 1.0) for seed in (2011, 2013)]
        serial = [run_scenario(s).canonical_json() for s in specs]
        rerun = [run_scenario(s).canonical_json() for s in specs]
        assert rerun == serial

        clear_memo()
        runner = SweepRunner(cache_dir=tmp_path, max_workers=2)
        parallel = runner.run(specs, parallel=True)
        assert runner.misses == len(specs)
        assert [r.canonical_json() for r in parallel] == serial

    def test_registered_grid_shape(self):
        assert RECOVERY_GRID.n_points == 18
        points = RECOVERY_GRID.points()
        assert len({p.spec_hash() for p in points}) == len(points)
        assert {p.selection_policy for p in points} == {
            "proximity", "random", "failure_aware"}
        assert {p.churn_profile.rejoin_rate for p in points} == {0.0, 0.5, 2.0}
        # every point keeps the same crash process: the rejoin axis is
        # the only recovery lever
        assert {p.churn_profile.rate for p in points} == {1.2}


#: Pre-recovery (SCHEMA_VERSION 2) churn-grid dynamics, captured on
#: the cluster platform before the recovery subsystem landed.  With
#: rejoin_rate=0 the new code must reproduce them exactly — the
#: regression pin for "no behavior drift at the default".
V2_PINS = {
    (0.0, 2011): dict(t=2.5270921080617823, ok=True, reason="",
                      completed=1.0, churn_failures=0.0,
                      makespan=2.5285193776269996, sim_events=12367.0),
    (0.0, 2013): dict(t=2.52690690387282, ok=True, reason="",
                      completed=1.0, churn_failures=0.0,
                      makespan=2.5283341734380373, sim_events=12386.0),
    (0.6, 2011): dict(t=2.5270921080617823, ok=True, reason="",
                      completed=1.0, churn_failures=1.0,
                      makespan=2.5285193776269996, sim_events=12367.0),
    (0.6, 2013): dict(t=2.52690690387282, ok=True, reason="",
                      completed=1.0, churn_failures=3.0,
                      makespan=2.5283341734380373, sim_events=12388.0),
    (1.2, 2011): dict(t=0.0, ok=True, reason="computation timed out",
                      completed=0.0, churn_failures=3.0,
                      sim_events=10969.0),
    (1.2, 2013): dict(t=0.0, ok=True, reason="computation timed out",
                      completed=0.0, churn_failures=7.0,
                      sim_events=9051.0),
}


class TestNoDriftAtRejoinZero:
    """The spare-patching path of PR 2 is untouched when recovery is
    off: churn-grid points with rejoin_rate=0 reproduce the recorded
    pre-recovery dynamics bit for bit."""

    CHURN_GRID_BASE = SCENARIOS["churn-grid"].base

    @pytest.mark.parametrize("rate,seed", sorted(V2_PINS))
    def test_v2_dynamics_reproduced(self, rate, seed):
        spec = (self.CHURN_GRID_BASE
                .with_override("churn_profile.rate", rate)
                .with_override("seed", seed))
        assert spec.churn_profile.rejoin_rate == 0.0
        result = run_scenario(spec)
        pin = V2_PINS[(rate, seed)]
        assert result.t == pin["t"]
        assert result.ok == pin["ok"]
        assert result.reason == pin["reason"]
        for key in ("completed", "churn_failures", "makespan",
                    "sim_events"):
            if key in pin:
                assert result.metrics[key] == pin[key], key
        # the new recovery counters exist and are exactly zero
        assert result.metrics["rejoined_peers"] == 0.0
        assert result.metrics["redispatched_subtasks"] == 0.0


class TestCompareWorkflow:
    """The acceptance headline, end to end through the CLI: a
    rejoin=0 vs rejoin>0 `compare` shows strictly higher completion
    probability and a finite, nonzero survivors' makespan-degradation
    ratio."""

    def test_rejoin_compare_headline(self, tmp_path, capsys):
        import json

        from repro.scenarios.cli import main

        # rate 0.8 is a mixed-outcome wave on these seeds: the
        # baseline completes at 2017 and dies at 2011, so the
        # seed-aggregated row has both a completion jump and a
        # defined makespan on each side.
        common = [
            "sweep", "recovery-grid",
            "--set", "churn_profile.rate=0.8",
            "--cache-dir", str(tmp_path), "--workers", "1",
        ]
        assert main(common + ["--set", "seed=2011,2017",
                              "--label", "norejoin"]) == 0
        assert main(common + ["--set", "churn_profile.rejoin_rate=2.0",
                              "--set", "seed=2011,2017",
                              "--label", "rejoin"]) == 0
        out = tmp_path / "diff.json"
        assert main(["compare", "norejoin", "rejoin",
                     "--metric", "makespan", "--over", "seed",
                     "--format", "json", "--out", str(out),
                     "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(out.read_text())
        assert payload["shared_axes"] == ["churn_profile.rate"]
        (row,) = payload["rows"]
        assert row["completion_b"] > row["completion_a"]
        assert row["completion_b"] == 1.0
        ratio = row["ratio"]  # survivors' makespan degradation (B/A)
        assert ratio is not None and 1.0 < ratio < 1e3
        capsys.readouterr()


class TestCoordinatorMonitorEdgeCases:
    """Unit-level checks of the loss-detection corner cases, on a
    settled deployment (no computation running)."""

    @staticmethod
    def _deployment():
        from repro.scenarios.runner import _deploy

        return _deploy(recovery_point(0.0, 1.0))  # recovery enabled

    @staticmethod
    def _duty(dep, coord, member, task_id=999):
        from repro.p2pdc import GroupDuty

        duty = GroupDuty(task_id=task_id, group_index=0,
                         submitter=dep.submitter.ref,
                         peers=[member.ref], reserved=[member.ref])
        duty.last_heard = {member.ref.name: -100.0}  # long silent
        coord._duties[task_id] = duty
        return duty

    def test_loss_deferred_until_rank_known(self):
        """A member that dies between reservation and dispatch stays
        under watch; the loss is reported once the relay names its
        rank — never silently dropped."""
        dep = self._deployment()
        coord, member = dep.peers[0], dep.peers[1]
        duty = self._duty(dep, coord, member)
        coord.timer_compute_monitor(999)
        assert duty.reserved == [member.ref], "dropped without a rank"
        duty.rank_of[member.ref.name] = 3
        coord.timer_compute_monitor(999)
        assert duty.reserved == []
        assert dep.overlay.stats.counters["subtasks_lost"] == 1

    def test_rank_update_ignored_by_foreign_coordinator(self):
        """A coordinator that receives RankUpdate as a mere halo
        neighbour of another group must not adopt the replacement."""
        from repro.p2pdc.messages import RankUpdate

        dep = self._deployment()
        coord, member, other = dep.peers[0], dep.peers[1], dep.peers[2]
        duty = self._duty(dep, coord, member)
        duty.rank_of[member.ref.name] = 3
        duty.ranks.add(3)
        # rank 7 belongs to some other group: no bookkeeping here
        coord.handle_RankUpdate(RankUpdate(
            dep.submitter.ref, task_id=999, rank=7, new_ref=other.ref))
        assert duty.reserved == [member.ref]
        assert other.ref.name not in duty.rank_of
        # rank 3 is ours: the replacement is adopted
        coord.handle_RankUpdate(RankUpdate(
            dep.submitter.ref, task_id=999, rank=3, new_ref=other.ref))
        assert [r.name for r in duty.reserved] == [other.ref.name]
        assert duty.rank_of[other.ref.name] == 3

    def test_reserve_cancel_releases_only_idle_reservations(self):
        from repro.p2pdc.messages import ReserveCancel

        dep = self._deployment()
        peer = dep.peers[1]
        peer.busy = True
        peer.current_task = 999
        peer.handle_ReserveCancel(ReserveCancel(dep.submitter.ref,
                                                task_id=998))
        assert peer.busy, "cancel for another task must not release"
        peer._executions[999] = object()
        peer.handle_ReserveCancel(ReserveCancel(dep.submitter.ref,
                                                task_id=999))
        assert peer.busy, "a computing peer must not release"
        peer._executions.clear()
        peer.handle_ReserveCancel(ReserveCancel(dep.submitter.ref,
                                                task_id=999))
        assert not peer.busy and peer.current_task is None

    def test_selection_policy_constants_agree(self):
        from repro.p2pdc.overlay import SELECTION_POLICIES as overlay_p
        from repro.scenarios.spec import SELECTION_POLICIES as spec_p

        assert tuple(overlay_p) == tuple(spec_p)


class TestPolicyAndTrackerChurnWiring:
    def test_selection_policy_reaches_overlay_config(self):
        from repro.scenarios.runner import _deploy

        spec = recovery_point(0.0, 0.0,
                              selection_policy="failure_aware")
        dep = _deploy(spec)
        assert dep.overlay.config.selection_policy == "failure_aware"
        assert dep.overlay.config.recovery is False
        hot = recovery_point(0.0, 1.0)
        assert _deploy(hot).overlay.config.recovery is True

    def test_policies_change_dynamics_but_not_validity(self):
        results = {
            policy: run_scenario(
                recovery_point(1.2, 1.0, 2013, selection_policy=policy)
            )
            for policy in ("proximity", "random", "failure_aware")
        }
        assert all(r.ok for r in results.values())
        hashes = {p: r.spec_hash for p, r in results.items()}
        assert len(set(hashes.values())) == 3, "policies share a hash"

    def test_tracker_churn_crashes_trackers_and_overlay_survives(self):
        from repro.scenarios.runner import _deploy

        spec = recovery_point(0.0, 0.0).with_override(
            "churn_profile.tracker_churn_rate", 0.5)
        dep = _deploy(spec)
        tracker_events = [e for e in dep.churn_events
                          if e.kind == "tracker"]
        assert tracker_events, "rate 0.5 over 4s must draw a crash"
        assert {e.target for e in tracker_events} <= {
            t.name for t in dep.trackers}
        result = run_scenario(spec)
        assert result.ok, result.reason  # line repair + failover held

    def test_rejoined_peer_reregisters_with_a_tracker(self):
        spec = recovery_point(1.2, 1.0, 2011)
        dep, outcome = execute_reference(spec)
        assert outcome.ok
        rejoined = [p for p in dep.peers
                    if p.rejoin_count > 0 and p.alive]
        assert rejoined, "this seed rejoins peers"
        for peer in rejoined:
            assert peer.joined and peer.tracker is not None
