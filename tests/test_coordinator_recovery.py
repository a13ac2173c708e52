"""Adversarial crash-matrix harness for coordinator recovery.

The matrix crashes {coordinator, member, both, tracker} at
{pre-dispatch, mid-compute, during re-dispatch, during election} over
two seeds, with the stand-in election enabled, and asserts the
*conservation* invariant on every cell: each subtask completes exactly
once, or the run reports non-completion — never a double completion.

On top of the matrix:

* **headline** — with election enabled, the ``coordinator-grid``
  completion probability is strictly greater than with election
  disabled at every nonzero coordinator churn rate on the documented
  seeds (the acceptance criterion);
* **determinism** — serial and parallel execution of matrix cells are
  byte-identical;
* **v3 pin** — with election off, the pre-election (SCHEMA_VERSION 3)
  recovery-grid dynamics reproduce bit for bit;
* **long memory** — ``failure_history`` persists across tasks within
  one overlay session, so the failure-aware policy separates from
  proximity on the first selection of a second task;
* the parse-time and draw-time error paths for the new fields.

The matrix reuses the registered ``coordinator-grid`` base (same
app/peers/level instance as the other churn grids), so the in-process
calibration cache is shared across the churn test files.
"""

import pytest

from repro.p2pdc.churn import ChurnPlan, CoordinatorChurn
from repro.p2pdc.messages import DutyCheckpoint, NodeRef
from repro.p2pdc.overlay import OverlayConfig
from repro.scenarios import SCENARIOS, SweepRunner, run_scenario
from repro.scenarios.runner import _deploy, clear_memo, execute_reference
from repro.scenarios.spec import (
    ChurnEventSpec,
    ChurnProfile,
    RecoveryPlan,
    ScenarioSpec,
)

COORD_GRID = SCENARIOS["coordinator-grid"]

# -- the discovered anatomy of a coordinator-grid baseline run ------------
# (deterministic: the overlay layout and proximity grouping do not
# depend on the seed; TestMatrixAnatomy pins it so the hard-coded
# crash targets below can never silently drift)
COORD0, COORD1 = "p-1-0", "p-1-4"        # the two group coordinators
STANDIN0 = "p-1-1"                        # first stand-in of group 0
MEMBER0, MEMBER1 = "p-1-3", "p-1-6"       # plain computing members
TRACKER = "tracker-1"                     # zone tracker of the peers
T_PRE = 0.0015      # mid-reservation (collected ~0.0010, dispatch ~0.0020)
T_MID = 1.0         # mid-compute (window ~0.002 .. ~2.53)
T_REDISPATCH = 6.05  # just after the ~6.0 loss report of a T_MID crash
T_ELECTION = 6.1     # just after the ~6.0 stand-in claim


def grid_point(rate: float = 0.0, seed: int = 2011,
               election: bool = True, **overrides) -> ScenarioSpec:
    spec = COORD_GRID.base.with_override(
        "churn_profile.coordinator_churn_rate", rate)
    spec = spec.with_override("seed", seed)
    spec = spec.with_override("recovery.election", election)
    for path, value in overrides.items():
        spec = spec.with_override(path.replace("__", "."), value)
    return spec


ROLES = ("coordinator", "member", "both", "tracker")
PHASES = ("pre-dispatch", "mid-compute", "during-redispatch",
          "during-election")
SEEDS = (2011, 2013)


def matrix_events(role: str, phase: str):
    """The scripted crash schedule of one matrix cell."""
    events = []
    if phase == "pre-dispatch":
        t = T_PRE
    elif phase == "mid-compute":
        t = T_MID
    elif phase == "during-redispatch":
        # a member loss whose re-dispatch is in flight at the crash
        events.append(ChurnEventSpec(time=T_MID, kind="peer",
                                     target=MEMBER0))
        t = T_REDISPATCH
    else:  # during-election
        # a coordinator loss whose election resolves at ~6.0
        events.append(ChurnEventSpec(time=T_MID, kind="coordinator",
                                     target=COORD0))
        t = T_ELECTION
    coord_target = COORD1 if phase == "during-election" else COORD0
    if role in ("coordinator", "both"):
        events.append(ChurnEventSpec(time=t, kind="coordinator",
                                     target=coord_target))
    if role in ("member", "both"):
        if phase == "during-election":
            member_target = STANDIN0   # kill the freshly elected stand-in
        elif phase == "during-redispatch":
            member_target = MEMBER1
        else:
            member_target = MEMBER0
        member_t = t + 0.05 if role == "both" else t
        events.append(ChurnEventSpec(time=member_t, kind="peer",
                                     target=member_target))
    if role == "tracker":
        events.append(ChurnEventSpec(time=t, kind="tracker",
                                     target=TRACKER))
    return tuple(events)


def matrix_point(role: str, phase: str, seed: int) -> ScenarioSpec:
    return grid_point(seed=seed).with_override(
        "churn", matrix_events(role, phase))


class TestMatrixAnatomy:
    """Pin the allocation anatomy the hard-coded crash targets assume."""

    def test_baseline_layout(self):
        dep, outcome = execute_reference(grid_point())
        assert outcome.ok
        assert [c.name for c in outcome.coordinators] == [COORD0, COORD1]
        groups = [[r.name for r in g] for g in outcome.groups]
        assert STANDIN0 in groups[0] and MEMBER0 in groups[0]
        assert MEMBER1 in groups[1]
        assert TRACKER in {t.name for t in dep.trackers}
        timings = outcome.timings
        # the phase instants really land in their protocol phases
        assert timings.collected_at < T_PRE < timings.compute_started_at
        assert timings.compute_started_at < T_MID < timings.completed_at


class TestCrashMatrix:
    """Conservation on every cell: exactly once, or reported failure."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("role", ROLES)
    def test_exactly_once_or_reported_failure(self, role, phase, seed):
        spec = matrix_point(role, phase, seed)
        dep, outcome = execute_reference(spec)
        n = spec.n_peers
        ranks = [r.rank for r in outcome.results]
        assert len(ranks) == len(set(ranks)), "a rank completed twice"
        if outcome.ok:
            assert sorted(ranks) == list(range(n))
        else:
            assert outcome.reason
            assert len(ranks) < n
        # whatever the cell did, the submitter never accepted a rank
        # twice across batches (the coordinator-side dedup may fire —
        # that is the mechanism working, not a violation)
        accepted = [r.rank for r in outcome.results]
        assert len(accepted) == len(set(accepted))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_coordinator_mid_compute_recovers(self, seed):
        """The cell the whole subsystem exists for: a coordinator crash
        mid-computation completes via a stand-in — the v3 known
        limitation, closed."""
        dep, outcome = execute_reference(
            matrix_point("coordinator", "mid-compute", seed))
        assert outcome.ok, outcome.reason
        counters = dep.overlay.stats.counters
        assert counters.get("coordinator_elections", 0) >= 1
        assert counters.get("coordinator_handoffs", 0) >= 1
        # the dead coordinator's own rank was recovered too
        assert counters.get("redispatched_subtasks", 0) >= 1
        standin = dep.overlay.registry[STANDIN0]
        assert 1 in standin._duties or standin.completed_subtasks

    @pytest.mark.parametrize("seed", SEEDS)
    def test_election_crash_triggers_second_election(self, seed):
        """Killing the freshly elected stand-in forces a second
        election — and the group still converges."""
        dep, outcome = execute_reference(
            matrix_point("member", "during-election", seed))
        counters = dep.overlay.stats.counters
        assert counters.get("coordinator_elections", 0) >= 2
        assert outcome.ok, outcome.reason

    def test_matrix_without_election_reports_failure(self):
        """The same coordinator crash with election off is the pinned
        v3 behaviour: the group dies and the run reports it."""
        spec = matrix_point("coordinator", "mid-compute", 2011)
        spec = spec.with_override("recovery.election", False)
        dep, outcome = execute_reference(spec)
        assert not outcome.ok
        assert outcome.reason
        assert dep.overlay.stats.counters.get("coordinator_elections",
                                              0) == 0


class TestCrossFaultMatrix:
    """Crash matrix × network faults: the recovery subsystem must hold
    its conservation guarantee when the control plane itself is lossy.

    Two adversarial compositions on the matrix anatomy:

    * a coordinator crash whose *election runs inside a partition
      window* — checkpoint broadcasts, stand-in claims and hand-off
      traffic all cross the partition and must survive on retries;
    * a tracker crash *under message loss* — the line-repair and
      re-registration traffic rides the same reliable envelopes.
    """

    # opens at the mid-compute crash, heals well before the time limit;
    # the ~6.0 election lands inside the window
    FAULT_PARTITION = (
        ("fault_plan.partition_start", T_MID),
        ("fault_plan.partition_duration", 8.0),
    )
    FAULT_LOSS = (("fault_plan.loss", 0.02),)

    def _cell(self, role, phase, seed, fault_overrides):
        spec = matrix_point(role, phase, seed)
        for path, value in fault_overrides:
            spec = spec.with_override(path, value)
        return execute_reference(spec)

    def _assert_conserved(self, spec_n, outcome):
        ranks = [r.rank for r in outcome.results]
        assert len(ranks) == len(set(ranks)), "a rank completed twice"
        assert outcome.ok, outcome.reason
        assert sorted(ranks) == list(range(spec_n))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_election_during_partition(self, seed):
        dep, outcome = self._cell("coordinator", "mid-compute", seed,
                                  self.FAULT_PARTITION)
        self._assert_conserved(COORD_GRID.base.n_peers, outcome)
        counters = dep.overlay.stats.counters
        assert counters.get("coordinator_elections", 0) >= 1
        # the partition really severed traffic mid-election, and the
        # hardening re-sent through it rather than deadlocking (sends
        # to the *crashed* coordinator legitimately exhaust their
        # bounded retries and are abandoned — that is the backoff cap
        # working, and the run completes regardless)
        assert dep.overlay.faults.stats.partition_blocked > 0
        assert counters.get("reliable_retries", 0) > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tracker_crash_under_loss(self, seed):
        dep, outcome = self._cell("tracker", "mid-compute", seed,
                                  self.FAULT_LOSS)
        self._assert_conserved(COORD_GRID.base.n_peers, outcome)
        assert dep.overlay.faults.stats.messages_lost > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_double_crash_under_loss_stays_conserved(self, seed):
        """The hardest composition: coordinator and member die together
        while the network drops messages — exactly-once still holds
        (completion is allowed to fail; double-completion never is)."""
        spec = matrix_point("both", "mid-compute", seed)
        for path, value in self.FAULT_LOSS:
            spec = spec.with_override(path, value)
        dep, outcome = execute_reference(spec)
        ranks = [r.rank for r in outcome.results]
        assert len(ranks) == len(set(ranks)), "a rank completed twice"
        if not outcome.ok:
            assert outcome.reason
            assert len(ranks) < COORD_GRID.base.n_peers


class TestElectionHeadline:
    """The acceptance criterion, on the registered grid's own axes."""

    RATES = COORD_GRID.grid_dict()["churn_profile.coordinator_churn_rate"]
    GRID_SEEDS = COORD_GRID.grid_dict()["seed"]

    def _probability(self, rate, election):
        done = [
            run_scenario(grid_point(rate, seed, election))
            .metrics["completed"]
            for seed in self.GRID_SEEDS
        ]
        return sum(done) / len(done)

    @pytest.mark.parametrize(
        "rate", [r for r in RATES if r > 0])
    def test_election_strictly_beats_no_election(self, rate):
        p_on = self._probability(rate, True)
        p_off = self._probability(rate, False)
        assert p_on > p_off, (rate, p_on, p_off)

    def test_rate_zero_is_equal_and_complete(self):
        assert self._probability(0.0, True) == 1.0
        assert self._probability(0.0, False) == 1.0

    def test_election_metrics_surface(self):
        rate = max(self.RATES)
        result = run_scenario(grid_point(rate, self.GRID_SEEDS[0]))
        m = result.metrics
        assert m["coordinator_crashes"] >= 1
        assert m["elections"] >= 1
        # the blackout spans at least the detection timeout
        assert m["handoff_latency"] > OverlayConfig().coord_ping_timeout
        assert m["completed"] == 1.0
        off = run_scenario(grid_point(rate, self.GRID_SEEDS[0],
                                      election=False))
        assert off.metrics["elections"] == 0.0
        # no election ⇒ no latency datum (absent, never a diluting 0.0)
        assert "handoff_latency" not in off.metrics
        assert off.metrics["coordinator_crashes"] >= 1

    def test_registered_grid_shape(self):
        assert COORD_GRID.n_points == 18
        points = COORD_GRID.points()
        assert len({p.spec_hash() for p in points}) == len(points)
        assert all(p.recovery.election for p in points)
        assert {p.churn_profile.coordinator_churn_rate for p in points} \
            == set(self.RATES)
        assert {p.selection_policy for p in points} == {
            "proximity", "random", "failure_aware"}
        # member churn stays off: the axis targets coordinators only
        assert {p.churn_profile.rate for p in points} == {0.0}


class TestDeterminism:
    def test_serial_parallel_matrix_byte_identical(self, tmp_path):
        """Matrix cells through the pooled runner return exactly the
        serial results — election and hand-off dynamics included."""
        specs = [matrix_point("coordinator", "mid-compute", seed)
                 for seed in SEEDS]
        specs += [matrix_point("both", "during-election", seed)
                  for seed in SEEDS]
        serial = [run_scenario(s).canonical_json() for s in specs]
        rerun = [run_scenario(s).canonical_json() for s in specs]
        assert rerun == serial

        clear_memo()
        runner = SweepRunner(cache_dir=tmp_path, max_workers=2)
        parallel = runner.run(specs, parallel=True)
        assert runner.misses == len(specs)
        assert [r.canonical_json() for r in parallel] == serial


#: Pre-election (SCHEMA_VERSION 3) recovery-grid dynamics, captured on
#: the cluster platform before the election subsystem landed.  With
#: election off the new code must reproduce them exactly — the
#: regression pin for "no behavior drift at the default".  Keys are
#: (rejoin_rate, selection_policy, seed).
V3_PINS = {
    (0.0, "proximity", 2011): dict(
        t=0.0, ok=True, reason="computation timed out", completed=0.0,
        churn_failures=3.0, rejoined_peers=0.0, redispatched_subtasks=0.0,
        sim_events=10969.0),
    (0.0, "proximity", 2013): dict(
        t=0.0, ok=True, reason="computation timed out", completed=0.0,
        churn_failures=7.0, rejoined_peers=0.0, redispatched_subtasks=0.0,
        sim_events=9051.0),
    (0.5, "proximity", 2011): dict(
        t=23.484804239272478, ok=True, reason="", completed=1.0,
        churn_failures=3.0, rejoined_peers=3.0, redispatched_subtasks=2.0,
        makespan=23.486231508837694, sim_events=14256.0),
    (0.5, "proximity", 2013): dict(
        t=38.49204597885735, ok=True, reason="", completed=1.0,
        churn_failures=7.0, rejoined_peers=7.0, redispatched_subtasks=2.0,
        makespan=38.49347324842257, sim_events=14605.0),
    (2.0, "proximity", 2011): dict(
        t=23.484804239272478, ok=True, reason="", completed=1.0,
        churn_failures=3.0, rejoined_peers=3.0, redispatched_subtasks=2.0,
        makespan=23.486231508837694, sim_events=14257.0),
    (2.0, "proximity", 2013): dict(
        t=38.49204597885735, ok=True, reason="", completed=1.0,
        churn_failures=7.0, rejoined_peers=7.0, redispatched_subtasks=2.0,
        makespan=38.49347324842257, sim_events=14605.0),
    (2.0, "random", 2011): dict(
        t=10.463101952380287, ok=True, reason="", completed=1.0,
        churn_failures=3.0, rejoined_peers=3.0, redispatched_subtasks=1.0,
        makespan=10.464111134988983, sim_events=13785.0),
    (2.0, "random", 2013): dict(
        t=8.490576870524656, ok=True, reason="", completed=1.0,
        churn_failures=7.0, rejoined_peers=7.0, redispatched_subtasks=2.0,
        makespan=8.491591896611613, sim_events=12404.0),
    (2.0, "failure_aware", 2011): dict(
        t=23.484804239272478, ok=True, reason="", completed=1.0,
        churn_failures=3.0, rejoined_peers=3.0, redispatched_subtasks=2.0,
        makespan=23.486231508837694, sim_events=14257.0),
    (2.0, "failure_aware", 2013): dict(
        t=38.49204597885735, ok=True, reason="", completed=1.0,
        churn_failures=7.0, rejoined_peers=7.0, redispatched_subtasks=2.0,
        makespan=38.49347324842257, sim_events=14605.0),
}


class TestNoDriftWithElectionOff:
    """Election off ⇒ v3 recovery-grid manifests reproduce bit for bit
    (sim_events equality is the strongest practical byte-identity
    signal: one extra message or timer would shift it)."""

    RECOVERY_BASE = SCENARIOS["recovery-grid"].base

    @pytest.mark.parametrize("rejoin,policy,seed", sorted(V3_PINS))
    def test_v3_dynamics_reproduced(self, rejoin, policy, seed):
        spec = (self.RECOVERY_BASE
                .with_override("churn_profile.rejoin_rate", rejoin)
                .with_override("selection_policy", policy)
                .with_override("seed", seed))
        assert spec.recovery.election is False
        result = run_scenario(spec)
        pin = V3_PINS[(rejoin, policy, seed)]
        assert result.t == pin["t"]
        assert result.ok == pin["ok"]
        assert result.reason == pin["reason"]
        for key in ("completed", "churn_failures", "rejoined_peers",
                    "redispatched_subtasks", "makespan", "sim_events"):
            if key in pin:
                assert result.metrics[key] == pin[key], key
        # the election metrics exist and are exactly zero (latency is
        # absent: no election ran, so there is no blackout datum)
        assert result.metrics["coordinator_crashes"] == 0.0
        assert result.metrics["elections"] == 0.0
        assert "handoff_latency" not in result.metrics


class TestFailureHistoryLongMemory:
    """The ROADMAP "longer memory" item: failure_history persists
    across tasks within one overlay session, so failure_aware
    separates from proximity on the *first* selection of a second
    task."""

    CRASH_TARGET = "p-1-2"

    def _two_task_session(self, policy):
        from repro.p2pdc import TaskSpec
        from repro.p2psap import Scheme
        from repro.scenarios import workloads

        spec = grid_point(selection_policy=policy).with_override(
            "churn",
            (ChurnEventSpec(time=0.5, kind="peer",
                            target=self.CRASH_TARGET),),
        )
        dep = _deploy(spec)
        workload = workloads.make_workload(spec.workload, spec.n_peers,
                                           Scheme.SYNC)
        outcomes = []
        for _ in range(2):
            task = TaskSpec(workload=workload, n_peers=spec.n_peers,
                            spares=spec.spares, task_timeout=600.0)
            sig = dep.submitter.submit(task)
            dep.overlay.run_until(sig, limit=1e7)
            outcomes.append(sig.value)
        return dep, outcomes

    @pytest.mark.parametrize("policy", ("proximity", "failure_aware"))
    def test_history_survives_into_the_second_task(self, policy):
        dep, (first, second) = self._two_task_session(policy)
        assert first.ok and second.ok
        # the overlay session remembers the task-1 crash at task 2
        assert dep.overlay.failure_history.get(self.CRASH_TARGET, 0) >= 1
        chosen = {r.name for r in second.ranks}
        if policy == "failure_aware":
            # the once-crashed peer sorts behind every clean candidate:
            # it is demoted to spare on the first selection of task 2
            assert self.CRASH_TARGET not in chosen
        else:
            # proximity keeps collection order and picks it again —
            # the separation the failure-aware policy exists to give
            assert self.CRASH_TARGET in chosen


class TestElectionUnits:
    """Unit-level checks of the election building blocks."""

    @staticmethod
    def _deployment(policy="proximity"):
        return _deploy(grid_point(selection_policy=policy))

    @staticmethod
    def _checkpoint(refs, rank_of=None):
        return DutyCheckpoint(
            refs[0], task_id=99, group_index=0, submitter=refs[0],
            reserved=list(refs), rank_of=dict(rank_of or {}),
            expected_results=len(refs), version=1)

    def test_election_order_lowest_rank_alive(self):
        dep = self._deployment()
        peers = dep.peers[:4]
        refs = [p.ref for p in peers]
        rank_of = {r.name: i for i, r in enumerate(refs)}
        cp = self._checkpoint(refs, rank_of)
        order = peers[1]._election_order(cp, {refs[0].name})
        assert [r.name for r in order] == [r.name for r in refs[1:]]

    def test_election_order_failure_history_tie_break(self):
        dep = self._deployment(policy="failure_aware")
        peers = dep.peers[:4]
        refs = [p.ref for p in peers]
        rank_of = {r.name: i for i, r in enumerate(refs)}
        dep.overlay.failure_history[refs[1].name] = 2
        cp = self._checkpoint(refs, rank_of)
        order = peers[2]._election_order(cp, {refs[0].name})
        # the crashed-twice candidate drops to the back of the line
        assert [r.name for r in order] == [
            refs[2].name, refs[3].name, refs[1].name]

    def test_unranked_candidates_order_by_ip(self):
        dep = self._deployment()
        peers = dep.peers[:3]
        refs = [p.ref for p in peers]
        cp = self._checkpoint(refs, rank_of={})
        order = peers[0]._election_order(cp, set())
        assert [r.name for r in order] == sorted(
            (r.name for r in refs),
            key=lambda n: int(next(x.ip for x in refs if x.name == n)))

    def test_checkpoint_versions_monotone_and_piggybacked(self):
        """A coordinator broadcasts a fresh checkpoint only when the
        duty actually changed since the last one."""
        from repro.p2pdc import GroupDuty

        dep = self._deployment()
        coord, member = dep.peers[0], dep.peers[1]
        duty = GroupDuty(task_id=7, group_index=0,
                         submitter=dep.submitter.ref,
                         peers=[member.ref], reserved=[member.ref])
        duty.last_heard = {member.ref.name: dep.overlay.now}
        coord._duties[7] = duty
        duty.version += 1
        coord._broadcast_checkpoint(duty)
        assert duty.checkpointed == duty.version
        before = dep.overlay.stats.counters.get("msg:DutyCheckpoint", 0)
        coord.timer_compute_monitor(7)  # unchanged: no new checkpoint
        after = dep.overlay.stats.counters.get("msg:DutyCheckpoint", 0)
        assert after == before

    def test_duplicate_dispatch_is_ignored(self):
        from repro.p2pdc.messages import SubtaskMsg

        dep = self._deployment()
        peer = dep.peers[1]
        sentinel = object()
        peer._executions[42] = sentinel
        peer.handle_SubtaskMsg(SubtaskMsg(
            dep.submitter.ref, task_id=42, rank=0,
            final_dst=peer.ref, spec=None))
        assert peer._executions[42] is sentinel, "duplicate replaced it"
        assert len(peer._compute_procs) == 0

    def test_dispatch_for_already_computed_rank_resends_result(self):
        """A re-dispatch that lands on the peer that already computed
        exactly that rank (in a previous incarnation) re-sends the
        stored result and frees the reservation — never recomputes,
        never silently drops into a reserved-but-idle deadlock."""
        from repro.p2pdc.computation import WorkAssignment
        from repro.p2pdc.messages import SubtaskMsg, SubtaskResult

        dep = self._deployment()
        peer, coord = dep.peers[1], dep.peers[2]
        done = SubtaskResult(peer.ref, task_id=5, rank=2, checksum=2.0)
        peer.completed_subtasks.append(done)
        peer.busy, peer.current_task = True, 5
        assignment = WorkAssignment(
            task_id=5, rank=2, nranks=4, workload=None,
            coordinator=coord.ref, submitter=dep.submitter.ref)
        peer.handle_SubtaskMsg(SubtaskMsg(
            dep.submitter.ref, task_id=5, rank=2, final_dst=peer.ref,
            spec=assignment))
        counters = dep.overlay.stats.counters
        assert counters.get("resent_completed_results", 0) == 1
        assert 5 not in peer._executions
        assert not peer.busy and peer.current_task is None
        # a *different* rank of the same task is a fresh legitimate
        # dispatch, not a duplicate (it proceeds past the dedup)
        assert counters.get("msg:SubtaskResult", 0) >= 1


class TestValidation:
    """Parse- and draw-time error paths for the new fields."""

    def test_profile_rejects_negative_coordinator_rate(self):
        with pytest.raises(ValueError, match="coordinator_churn_rate"):
            ChurnProfile(coordinator_churn_rate=-0.1)

    def test_spec_rejects_election_without_recovery(self):
        with pytest.raises(ValueError, match="rejoin_rate"):
            ScenarioSpec(name="x", recovery=RecoveryPlan(election=True))
        # with the recovery subsystem on it parses fine
        ScenarioSpec(name="x", recovery=RecoveryPlan(election=True),
                     churn_profile=ChurnProfile(rejoin_rate=1.0))

    def test_recovery_plan_rejects_non_bool(self):
        with pytest.raises(ValueError, match="election"):
            RecoveryPlan(election="yes")

    def test_overlay_config_rejects_election_without_recovery(self):
        with pytest.raises(ValueError, match="election"):
            OverlayConfig(election=True, recovery=False)
        OverlayConfig(election=True, recovery=True)

    def test_overlay_config_coord_ping_validation(self):
        with pytest.raises(ValueError, match="coord_ping_interval"):
            OverlayConfig(coord_ping_interval=0.0)
        with pytest.raises(ValueError, match="coord_ping_timeout"):
            OverlayConfig(coord_ping_interval=5.0, coord_ping_timeout=4.0)
        with pytest.raises(ValueError, match="election_backoff"):
            OverlayConfig(election_backoff=0.0)

    def test_coordinator_churn_draw_time_validation(self):
        from repro.p2pdc import poisson_peer_failures

        with pytest.raises(ValueError, match="rate"):
            CoordinatorChurn(rate=-1.0, seed=1)
        with pytest.raises(ValueError, match="kind"):
            poisson_peer_failures(1.0, ("c",), seed=1, kind="server")
        events = poisson_peer_failures(5.0, ("c0", "c1"), seed=1,
                                       kind="coordinator")
        assert events and all(e.kind == "coordinator" for e in events)

    def test_cli_parses_booleans(self):
        from repro.scenarios.cli import _parse_value

        assert _parse_value("true") is True
        assert _parse_value("False") is False
        assert _parse_value("0.5") == 0.5
        assert _parse_value("proximity") == "proximity"

    def test_coordinator_churn_reaches_overlay(self):
        dep = _deploy(grid_point(rate=0.7, seed=2011))
        churn = dep.overlay.coordinator_churn
        assert churn is not None and churn.rate == 0.7
        assert _deploy(grid_point(rate=0.0)).overlay.coordinator_churn \
            is None

    def test_armed_coordinator_events_count_as_crash_events(self):
        from repro.p2pdc.churn import ChurnEvent

        dep = _deploy(grid_point())
        plan = ChurnPlan(events=[
            ChurnEvent(time=1.0, kind="coordinator", target=COORD0)])
        plan.arm(dep.overlay)
        kinds = [e.kind for e in dep.crash_events]
        assert kinds.count("coordinator") == 1


class TestCompareWorkflow:
    """The coordinator-grid headline end to end through the CLI."""

    def test_election_compare_headline(self, tmp_path, capsys):
        import json

        from repro.scenarios.cli import main

        common = [
            "sweep", "coordinator-grid",
            "--set", "churn_profile.coordinator_churn_rate=1.5",
            "--set", "seed=2011,2013",
            "--cache-dir", str(tmp_path), "--workers", "1",
        ]
        assert main(common + ["--set", "recovery.election=false",
                              "--label", "noelection"]) == 0
        assert main(common + ["--label", "election"]) == 0
        out = tmp_path / "diff.json"
        assert main(["compare", "noelection", "election",
                     "--metric", "makespan", "--over", "seed",
                     "--format", "json", "--out", str(out),
                     "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(out.read_text())
        assert payload["shared_axes"] == [
            "churn_profile.coordinator_churn_rate"]
        (row,) = payload["rows"]
        assert row["completion_b"] > row["completion_a"]
        assert row["completion_b"] == 1.0
        capsys.readouterr()
