"""Task submission and hierarchical allocation (paper §III-C).

The :class:`Submitter` drives the full task lifecycle:

1. join the overlay;
2. collect peers zone-by-zone along the tracker line (§III-B);
3. group them by proximity (≤ Cmax per group) and appoint one
   coordinator per group;
4. coordinators reserve their peers in parallel ("reverse" messages)
   while subtasks flow submitter → coordinator → peer;
5. the computation runs with convergence checks through the
   hierarchy; results flow back peer → coordinator → submitter.

A *flat* allocation baseline (submitter talks to every peer directly,
the pre-decentralization behaviour) is provided for the ablation
benchmarks: it exhibits exactly the serialization and submitter
bottleneck the hierarchy removes.

Churn recovery (``OverlayConfig.recovery``): coordinators monitor
their computing members and report a silent member's rank as
:class:`~repro.p2pdc.messages.SubtaskLost`; the submitter keeps the
current rank map, collects a replacement (leftover spares and rejoined
peers are free at their trackers), reserves it, and re-dispatches the
subtask with ``catch_up=True`` while rewiring the halo neighbours via
``RankUpdate``.  Candidates are ordered by the configured
``selection_policy`` — ``proximity`` (collection order, the v2
behaviour), ``random`` (seeded shuffle), ``failure_aware`` (fewest
observed failures first, Dubey & Tokekar 2012), or the
prediction-guided pair: ``predicted`` enumerates candidate groups and
ranks them by dPerf-priced makespan (optionally corrupted by the
configured prediction error — the ablation axis), ``oracle`` ranks by
the true simulated makespan (see :mod:`repro.p2pdc.prediction`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..desim import AnyOf, Signal
from .churn import ChurnPlan, poisson_peer_failures
from .collection import CollectionLog, collect_peers
from .computation import WorkAssignment, WorkloadSpec
from .groups import (
    assign_ranks,
    group_by_proximity,
    group_randomly,
    pick_coordinator,
)
from .messages import (
    ConvergenceDecision,
    CoordHandoff,
    DispatchGap,
    GroupAssign,
    GroupConvergence,
    GroupReady,
    NodeRef,
    RankUpdate,
    Reserve,
    ReserveCancel,
    ResultBatch,
    SubtaskLost,
    SubtaskMsg,
    SubtaskResult,
)
from .peer import Peer, all_or_timeout
from .prediction import (
    candidate_groups,
    oracle_makespan,
    peer_score,
    predict_makespan,
)
from .stats import TaskTimings

_task_ids = iter(range(1, 1_000_000))


@dataclass
class TaskSpec:
    """A computation to submit to the environment."""

    workload: WorkloadSpec
    n_peers: int
    requirements: Dict[str, float] = field(default_factory=dict)
    spares: int = 2
    task_timeout: float = 1e6


@dataclass
class TaskOutcome:
    task_id: int
    ok: bool
    reason: str = ""
    #: rank → peer; under recovery, re-dispatch updates entries in
    #: place, so this names the peer that finally computed each rank
    #: (groups/coordinators keep the initial allocation structure)
    ranks: List[NodeRef] = field(default_factory=list)
    groups: List[List[NodeRef]] = field(default_factory=list)
    coordinators: List[NodeRef] = field(default_factory=list)
    results: List[SubtaskResult] = field(default_factory=list)
    timings: TaskTimings = field(default_factory=TaskTimings)
    collection: CollectionLog = field(default_factory=CollectionLog)

    @property
    def makespan(self) -> Optional[float]:
        return self.timings.total_time


class Submitter(Peer):
    """A peer that can submit tasks."""

    role = "peer"

    def __init__(self, overlay, name, ip, host, resources=None) -> None:
        super().__init__(overlay, name, ip, host, resources)
        self._group_ready: Dict[tuple, Signal] = {}
        self._task_results: Dict[int, Signal] = {}
        self._batches: Dict[int, List[ResultBatch]] = {}
        self._expected_groups: Dict[int, int] = {}
        self._convergence: Dict[tuple, Dict[int, float]] = {}
        self._task_coordinators: Dict[int, List[NodeRef]] = {}
        self._task_tol: Dict[int, float] = {}
        # -- recovery state (subtask re-dispatch) -------------------------
        self._active_tasks: Set[int] = set()
        self._task_spec: Dict[int, TaskSpec] = {}
        self._task_ranks: Dict[int, List[NodeRef]] = {}
        self._task_members: Dict[int, Set[str]] = {}
        self._recovery_pending: Dict[int, Deque[Tuple[int, NodeRef]]] = {}
        self._recovery_kick: Dict[int, Signal] = {}
        self._recovery_procs: Dict[int, object] = {}
        # -- coordinator recovery (stand-in hand-offs) --------------------
        #: Verdict of every decided convergence check, so a stand-in
        #: re-reporting a check its predecessor already carried gets
        #: the recorded decision replayed instead of a stalled bucket.
        self._decided_checks: Dict[int, Dict[int, bool]] = {}
        #: (task, group) → the global ranks that group owns; used to
        #: re-relay dispatches that died in flight with a coordinator.
        self._task_group_ranks: Dict[Tuple[int, int], List[int]] = {}
        #: (task, old coordinator name) → its elected stand-in, so
        #: in-flight re-dispatch hunts resolve to the live coordinator.
        self._coord_successor: Dict[Tuple[int, str], NodeRef] = {}
        #: Dispatch-time coordinator-churn draws made so far: later
        #: tasks in one overlay session derive fresh seeds so their
        #: schedules are independent samples, not replays of task 1's.
        self._coord_churn_draws = 0

    # -- subtask dispatch (single constructor for every dispatch path) ------
    def _send_subtask(self, task_id: int, rank: int,
                      ranks: List[NodeRef], workload: WorkloadSpec,
                      coord: NodeRef, ref: NodeRef,
                      catch_up: bool = False,
                      via: Optional[NodeRef] = None) -> None:
        """Build and send one subtask dispatch: the assignment wires
        the halo neighbours from the current rank map, the message
        travels ``via`` (the relaying coordinator by default) toward
        ``ref``.  Initial dispatch, flat dispatch, re-dispatch and
        DispatchGap re-relay all construct through here, so the wiring
        can never drift between paths."""
        n = len(ranks)
        assignment = WorkAssignment(
            task_id=task_id, rank=rank, nranks=n, workload=workload,
            coordinator=coord, submitter=self.ref,
            left=ranks[rank - 1] if rank > 0 else None,
            right=ranks[rank + 1] if rank < n - 1 else None,
            catch_up=catch_up,
        )
        self.send_critical(via if via is not None else coord, SubtaskMsg(
            self.ref, task_id=task_id, rank=rank, final_dst=ref,
            payload_bytes=workload.subtask_bytes, spec=assignment,
        ))

    # -- peer-selection policy ----------------------------------------------
    def _policy_order(self, refs: List[NodeRef],
                      workload: Optional[WorkloadSpec] = None
                      ) -> List[NodeRef]:
        """Candidates ordered by ``config.selection_policy``.

        ``proximity`` keeps collection order (nearest zones were
        queried first — the pre-recovery behaviour, bit for bit);
        ``random`` shuffles with the seeded ``selection`` stream;
        ``failure_aware`` prefers peers with the fewest observed
        crashes (stable within equal scores); ``predicted``/``oracle``
        sort by individual predicted cost (re-dispatch hunts and the
        flat baseline score peers one at a time — group enumeration
        only happens in :meth:`_prediction_select`).
        """
        policy = self.overlay.config.selection_policy
        out = list(refs)
        if policy == "random":
            self.overlay.rng.stream("selection").shuffle(out)
        elif policy == "failure_aware":
            history = self.overlay.failure_history
            out.sort(key=lambda r: history.get(r.name, 0))
        elif policy in ("predicted", "oracle"):
            error = self._prediction_error() if policy == "predicted" else None
            out.sort(key=lambda r: peer_score(
                workload, r.name, self._declared_speed(r), error
            ))
        return out

    def _prediction_error(self):
        """The configured corruption, or None when inactive — level 0
        is the pure predictor, not a degenerate noise model."""
        error = self.overlay.config.prediction_error
        return error if error.active else None

    def _declared_speed(self, ref: NodeRef) -> float:
        """A candidate's declared clock speed.  Peers publish it in
        their resource vector at join time, so reading it back models
        the tracker-collected resource declaration, not an
        out-of-band measurement."""
        actor = self.overlay.actor(ref)
        if actor is None:
            return self.host.speed
        return float(getattr(actor, "resources", {}).get(
            "speed", actor.host.speed
        ))

    def _route_latency(self, name_a: str, name_b: str) -> float:
        """True route latency between two peers' hosts — the oracle's
        halo-coupling term (omniscient by construction)."""
        a = self.overlay.registry.get(name_a)
        b = self.overlay.registry.get(name_b)
        if a is None or b is None:
            return 0.0
        return self.overlay.net.topology.route_latency(a.host, b.host)

    def _select_peers(self, collected: List[NodeRef], task: TaskSpec
                      ) -> Tuple[List[NodeRef], List[NodeRef]]:
        """Split the collected pool into computing peers and spares.

        Classic policies order the whole pool and cut at ``n_peers``
        (exactly the pre-prediction behaviour); the prediction-guided
        policies enumerate candidate groups instead.
        """
        if self.overlay.config.selection_policy in ("predicted", "oracle"):
            return self._prediction_select(collected, task)
        ordered = self._policy_order(collected)
        return ordered[:task.n_peers], ordered[task.n_peers:]

    def _prediction_select(self, collected: List[NodeRef], task: TaskSpec
                           ) -> Tuple[List[NodeRef], List[NodeRef]]:
        """Prediction-guided group choice (``predicted`` / ``oracle``).

        Every candidate group is a deployment sketch: members in IP
        order (the exact rank numbering ``assign_ranks`` will give
        them) with their declared speeds, priced through the warm
        trace caches.  ``predicted`` ranks sketches by predicted
        makespan, corrupted by the configured prediction error if any;
        ``oracle`` ranks by the true simulated makespan (true speeds
        plus halo coupling, never corrupted) — the upper bound the
        ablation measures against.  Spares keep individual-score order
        so re-dispatch replacements follow the same preference.
        """
        policy = self.overlay.config.selection_policy
        workload = task.workload
        error = self._prediction_error() if policy == "predicted" else None
        speeds = {r.name: self._declared_speed(r) for r in collected}

        # best-individual-first pool: the windowed enumeration
        # fallback and the spare ordering both want it (IP tie-break
        # keeps equal-speed pools deterministic)
        pool = sorted(collected, key=lambda r: (
            peer_score(workload, r.name, speeds[r.name], error), int(r.ip)
        ))

        def sketch(group) -> tuple:
            ranked = sorted(group, key=lambda r: int(r.ip))
            return tuple((r.name, speeds[r.name]) for r in ranked)

        def score(group) -> float:
            if policy == "oracle":
                return oracle_makespan(workload, sketch(group),
                                       self._route_latency)
            return predict_makespan(workload, sketch(group), error)

        candidates = candidate_groups(pool, task.n_peers)
        best = min(candidates, key=lambda g: (
            score(g), tuple(sorted(r.name for r in g))
        ))
        chosen = sorted(best, key=lambda r: int(r.ip))
        taken = {r.name for r in chosen}
        spares = [r for r in pool if r.name not in taken]
        self.overlay.stats.count("prediction_candidates", len(candidates))
        return chosen, spares

    # -- public API -----------------------------------------------------------
    def submit(self, task: TaskSpec) -> Signal:
        """Submit a task; the returned signal yields a TaskOutcome."""
        done = Signal(f"{self.name}:task-outcome")
        self.start()
        self.sim.process(self._submit_process(task, done),
                         name=f"{self.name}:submit")
        return done

    def submit_flat(self, task: TaskSpec) -> Signal:
        """Baseline without coordinators (ablation A1)."""
        done = Signal(f"{self.name}:task-outcome-flat")
        self.start()
        self.sim.process(self._submit_flat_process(task, done),
                         name=f"{self.name}:submit-flat")
        return done

    # -- hierarchical path ------------------------------------------------------
    def _submit_process(self, task: TaskSpec, done: Signal):
        task_id = next(_task_ids)
        timings = TaskTimings(submitted_at=self.sim.now)
        outcome = TaskOutcome(task_id=task_id, ok=False, timings=timings)

        if not self.joined:
            yield self.join_overlay()

        # Phase 1: peers collection
        collected = yield from collect_peers(
            self, task.n_peers + task.spares, task.requirements, task_id,
            outcome.collection,
        )
        if len(collected) < task.n_peers:
            outcome.reason = (
                f"collected only {len(collected)}/{task.n_peers} peers"
            )
            done.succeed(outcome)
            return
        timings.collected_at = self.sim.now
        chosen, spares = self._select_peers(collected, task)

        # Phase 2: proximity groups + coordinators (random grouping is
        # the ablation control — a seeded stream keeps runs replayable)
        if self.overlay.config.grouping == "random":
            groups = group_randomly(
                chosen, self.overlay.config.cmax,
                self.overlay.rng.stream("grouping"),
            )
        else:
            groups = group_by_proximity(chosen, self.overlay.config.cmax)
        coordinators = [pick_coordinator(g) for g in groups]
        outcome.groups = groups
        outcome.coordinators = coordinators
        self._task_coordinators[task_id] = coordinators
        self._task_tol[task_id] = task.workload.tol
        self._expected_groups[task_id] = len(groups)
        self._batches[task_id] = []
        results_sig = Signal(f"{self.name}:results:{task_id}")
        self._task_results[task_id] = results_sig

        # Phase 3: parallel reservation through coordinators; on
        # failures, patch the groups with spares and re-assign (the
        # coordinator re-reserves — already-reserved peers re-ack).
        # With election enabled, a group whose coordinator never
        # answers gets a new coordinator appointed from its own
        # members — the pre-dispatch dual of the stand-in election.
        reserved_groups: List[List[NodeRef]] = []
        assign_lists = [list(g) for g in groups]
        tried_coords = [{coord.name} for coord in coordinators]
        for attempt in range(3):
            ready_sigs = []
            for gi, (group, coord) in enumerate(zip(assign_lists, coordinators)):
                sig = Signal(f"{self.name}:ready:{task_id}:{gi}:{attempt}")
                self._group_ready[(task_id, gi)] = sig
                ready_sigs.append(sig)
                self.send_critical(coord,
                                   GroupAssign(self.ref, task_id=task_id,
                                               group_index=gi, peers=group))
            readies = yield all_or_timeout(
                self.sim, ready_sigs, self.overlay.config.reserve_timeout * 3
            )
            if readies == "timeout":
                missing = [gi for gi, sig in enumerate(ready_sigs)
                           if not sig.triggered]
                replaced = 0
                if self.overlay.config.election and attempt < 2:
                    for gi in missing:
                        candidates = [r for r in assign_lists[gi]
                                      if r.name not in tried_coords[gi]]
                        if candidates:
                            old = coordinators[gi]
                            coordinators[gi] = pick_coordinator(candidates)
                            tried_coords[gi].add(coordinators[gi].name)
                            replaced += 1
                            # stand the replaced coordinator down: if
                            # it was merely slow (not dead) it drops
                            # its duty and rejoins as a plain member
                            self.send_critical(old, CoordHandoff(
                                self.ref, task_id=task_id, group_index=gi,
                                old=old, new=coordinators[gi],
                                demoted=True,
                            ))
                if not replaced:
                    outcome.reason = "group reservation timed out"
                    done.succeed(outcome)
                    return
                self.overlay.stats.count("coordinator_reappointments",
                                         replaced)
                continue
            readies = sorted(readies, key=lambda m: m.group_index)
            failed = [ref for msg in readies for ref in msg.failed]
            reserved_groups = [list(msg.reserved) for msg in readies]
            if not failed:
                break
            if len(spares) < len(failed) or attempt == 2:
                outcome.reason = (
                    f"{len(failed)} peers failed reservation, "
                    f"{len(spares)} spares available"
                )
                done.succeed(outcome)
                return
            # patch: reserved members + one spare per failure, rebalanced
            self.overlay.stats.count("reservation_replacements", len(failed))
            replacements = spares[:len(failed)]
            spares = spares[len(failed):]
            assign_lists = [list(g) for g in reserved_groups]
            for ref in replacements:
                min(assign_lists, key=len).append(ref)
            for g in assign_lists:
                g.sort(key=lambda r: int(r.ip))
        timings.allocated_at = self.sim.now

        # Phase 4: rank assignment + subtask dispatch via coordinators
        ranks = assign_ranks(reserved_groups)
        outcome.ranks = ranks
        n = len(ranks)
        rank_of = {ref.name: i for i, ref in enumerate(ranks)}
        if self.overlay.config.recovery:
            self._task_spec[task_id] = task
            # the same list object as outcome.ranks: re-dispatch swaps
            # propagate, so the outcome credits the peer that actually
            # computed each rank
            self._task_ranks[task_id] = ranks
            self._task_members[task_id] = {r.name for r in ranks}
            self._active_tasks.add(task_id)
        timings.compute_started_at = self.sim.now
        for gi, (group, coord) in enumerate(zip(reserved_groups, coordinators)):
            if self.overlay.config.recovery:
                self._task_group_ranks[(task_id, gi)] = sorted(
                    rank_of[ref.name] for ref in group
                )
            for ref in group:
                self._send_subtask(task_id, rank_of[ref.name], ranks,
                                   task.workload, coord, ref)
        self._arm_coordinator_churn(coordinators)

        # Phase 5: await all result batches (convergence handled by handlers)
        res = yield AnyOf([results_sig,
                           self.sim.timeout(task.task_timeout, "timeout")])
        if res[1] == "timeout":
            self._finish_task(task_id)
            outcome.reason = "computation timed out"
            done.succeed(outcome)
            return
        self._finish_task(task_id)
        outcome.results = sorted(
            (r for batch in self._batches.pop(task_id) for r in batch.results),
            key=lambda r: r.rank,
        )
        timings.completed_at = self.sim.now
        outcome.ok = len(outcome.results) == n
        if not outcome.ok:
            outcome.reason = f"{n - len(outcome.results)} results missing"
        done.succeed(outcome)

    # -- flat baseline -------------------------------------------------------------
    def _submit_flat_process(self, task: TaskSpec, done: Signal):
        task_id = next(_task_ids)
        timings = TaskTimings(submitted_at=self.sim.now)
        outcome = TaskOutcome(task_id=task_id, ok=False, timings=timings)
        if not self.joined:
            yield self.join_overlay()
        collected = yield from collect_peers(
            self, task.n_peers, task.requirements, task_id, outcome.collection
        )
        if len(collected) < task.n_peers:
            outcome.reason = "not enough peers"
            done.succeed(outcome)
            return
        timings.collected_at = self.sim.now
        ranks = sorted(
            self._policy_order(collected, task.workload)[:task.n_peers],
            key=lambda r: int(r.ip),
        )
        outcome.ranks = ranks
        n = len(ranks)
        # serial reservation: connect to every peer in succession
        for ref in ranks:
            sig = Signal(f"{self.name}:flatrsv:{ref.name}")
            self._reserve_sigs[(task_id, ref.name)] = sig
            self.send_critical(ref, Reserve(self.ref, task_id=task_id,
                                            coordinator=self.ref))
            result = yield AnyOf([
                sig,
                self.sim.timeout(self.overlay.config.reserve_timeout, "t/o"),
            ])
            if result[1] is not True:
                outcome.reason = f"peer {ref.name} failed reservation"
                done.succeed(outcome)
                return
        timings.allocated_at = self.sim.now
        # submitter is the single coordinator for everything
        self._expected_groups[task_id] = 1
        self._batches[task_id] = []
        results_sig = Signal(f"{self.name}:results:{task_id}")
        self._task_results[task_id] = results_sig
        self._task_coordinators[task_id] = [self.ref]
        self._task_tol[task_id] = task.workload.tol
        from .peer import GroupDuty

        duty = GroupDuty(task_id=task_id, group_index=0, submitter=self.ref,
                         peers=list(ranks), reserved=list(ranks),
                         expected_results=n)
        self._duties[task_id] = duty
        timings.compute_started_at = self.sim.now
        for r, ref in enumerate(ranks):
            # no coordinator tier: the submitter dispatches directly
            self._send_subtask(task_id, r, ranks, task.workload,
                               self.ref, ref, via=ref)
        res = yield AnyOf([results_sig,
                           self.sim.timeout(task.task_timeout, "timeout")])
        if res[1] == "timeout":
            outcome.reason = "computation timed out"
            done.succeed(outcome)
            return
        outcome.results = sorted(
            (r for batch in self._batches.pop(task_id) for r in batch.results),
            key=lambda r: r.rank,
        )
        timings.completed_at = self.sim.now
        outcome.ok = len(outcome.results) == n
        done.succeed(outcome)

    # -- handlers -------------------------------------------------------------------
    def handle_PeerListReply(self, msg) -> None:
        self.resolve_request(msg.req_id, msg)

    def handle_MoreTrackersReply(self, msg) -> None:
        self.resolve_request(msg.req_id, msg)

    def handle_GroupReady(self, msg: GroupReady) -> None:
        coords = self._task_coordinators.get(msg.task_id)
        if (coords is not None and msg.group_index < len(coords)
                and coords[msg.group_index].name != msg.sender.name):
            # a late GroupReady from a coordinator this group no longer
            # uses (re-appointed away while its reservation dragged):
            # accepting it would leave two live coordinators owning
            # the same group
            return
        sig = self._group_ready.pop((msg.task_id, msg.group_index), None)
        if sig is not None and not sig.triggered:
            sig.succeed(msg)

    def handle_GroupConvergence(self, msg: GroupConvergence) -> None:
        decided = self._decided_checks.setdefault(msg.task_id, {})
        verdict = decided.get(msg.check_index)
        if verdict is not None:
            # a stand-in coordinator re-reporting a check its
            # predecessor already carried: replay the recorded verdict
            # to it directly instead of waiting on a stalled bucket
            self.send_critical(msg.sender, ConvergenceDecision(
                self.ref, task_id=msg.task_id, check_index=msg.check_index,
                stop=verdict, final_dst=None,
            ))
            return
        key = (msg.task_id, msg.check_index)
        bucket = self._convergence.setdefault(key, {})
        bucket[msg.group_index] = msg.residual
        if len(bucket) < self._expected_groups.get(msg.task_id, 0):
            return
        del self._convergence[key]
        tol = self._task_tol.get(msg.task_id, 0.0)
        stop = tol > 0.0 and max(bucket.values()) <= tol
        decided[msg.check_index] = stop
        for coord in self._task_coordinators.get(msg.task_id, []):
            if coord.name == self.name:
                # flat mode: we are the coordinator — fan out directly
                duty = self._duties.get(msg.task_id)
                if duty is not None:
                    for ref in duty.reserved:
                        self.send_critical(ref, ConvergenceDecision(
                            self.ref, task_id=msg.task_id,
                            check_index=msg.check_index, stop=stop,
                            final_dst=ref,
                        ))
            else:
                self.send_critical(coord, ConvergenceDecision(
                    self.ref, task_id=msg.task_id,
                    check_index=msg.check_index, stop=stop, final_dst=None,
                ))

    def handle_ResultBatch(self, msg: ResultBatch) -> None:
        batches = self._batches.get(msg.task_id)
        if batches is None:
            return
        batches.append(msg)
        if len(batches) >= self._expected_groups.get(msg.task_id, 0):
            sig = self._task_results.pop(msg.task_id, None)
            if sig is not None and not sig.triggered:
                sig.succeed(True)

    # -- coordinator recovery: hand-offs and dispatch gaps --------------------------
    def _arm_coordinator_churn(self, coordinators: List[NodeRef]) -> None:
        """Draw and arm the coordinator-targeted Poisson crash schedule
        (configured by the scenario runner) over the coordinators just
        appointed — they only exist from dispatch time on."""
        churn = self.overlay.coordinator_churn
        if churn is None or churn.rate <= 0:
            return
        from ..desim.rng import derive_seed

        targets: List[str] = []
        for ref in coordinators:
            if ref.name != self.name and ref.name not in targets:
                targets.append(ref.name)
        # the first task draws straight from the configured seed; each
        # later task in the same overlay session derives a fresh one,
        # so its schedule is an independent sample, not a replay of
        # task 1's offsets.  (A per-submitter counter, never the
        # process-global task id: the draw must stay a pure function
        # of the spec for the result cache to be sound.)
        self._coord_churn_draws += 1
        seed = (churn.seed if self._coord_churn_draws == 1
                else derive_seed(churn.seed,
                                 f"task-{self._coord_churn_draws}"))
        events = poisson_peer_failures(
            churn.rate, targets, seed,
            start=self.sim.now + churn.start, horizon=churn.horizon,
            max_failures=churn.max_failures, kind="coordinator",
        )
        if events:
            ChurnPlan(events=events).arm(self.overlay)

    def handle_CoordHandoff(self, msg: CoordHandoff) -> None:
        """A stand-in coordinator took over a group: route every future
        decision, re-dispatch and rank update to it."""
        coords = self._task_coordinators.get(msg.task_id)
        if coords is None:
            return
        old_name = msg.old.name if msg.old is not None else None
        for i, ref in enumerate(coords):
            if ref.name == old_name:
                coords[i] = msg.new
        if old_name is not None:
            self._coord_successor[(msg.task_id, old_name)] = msg.new
        # the new coordinator is current: a stale entry naming a
        # successor *for it* (e.g. from a duel it later re-won) would
        # close a cycle and resolve hunts to a dead node
        self._coord_successor.pop((msg.task_id, msg.new.name), None)
        pending = self._recovery_pending.get(msg.task_id)
        if pending:
            refreshed = [(rank, msg.new if coord.name == old_name else coord)
                         for rank, coord in pending]
            pending.clear()
            pending.extend(refreshed)
        # the verdict history died with the old coordinator: replay it,
        # so catch-up subtasks sailing through already-decided checks
        # get instant decisions instead of stalling a bucket forever
        for check_index, stop in sorted(
                self._decided_checks.get(msg.task_id, {}).items()):
            self.send_critical(msg.new, ConvergenceDecision(
                self.ref, task_id=msg.task_id, check_index=check_index,
                stop=stop, final_dst=None,
            ))
        self.overlay.stats.count("coordinator_handoffs")

    def _live_coordinator(self, task_id: int, coord: NodeRef) -> NodeRef:
        """Resolve a coordinator ref through the hand-off successor
        chain (identity when no hand-off happened)."""
        seen = set()
        while coord.name not in seen:
            seen.add(coord.name)
            successor = self._coord_successor.get((task_id, coord.name))
            if successor is None:
                return coord
            coord = successor
        return coord

    def handle_DispatchGap(self, msg: DispatchGap) -> None:
        """A stand-in found group ranks with no known computer — their
        dispatch died in flight with the old coordinator.  Re-relay
        those subtasks (catch-up mode) through the stand-in."""
        task_id = msg.task_id
        if task_id not in self._active_tasks:
            return
        group_ranks = self._task_group_ranks.get((task_id, msg.group_index))
        task = self._task_spec.get(task_id)
        ranks = self._task_ranks.get(task_id)
        if group_ranks is None or task is None or ranks is None:
            return
        known = set(msg.known_ranks)
        for rank in group_ranks:
            if rank in known:
                continue
            self._send_subtask(task_id, rank, ranks, task.workload,
                               msg.sender, ranks[rank], catch_up=True)
            self.overlay.stats.count("gap_redispatches")

    # -- mid-computation recovery: subtask re-dispatch ------------------------------
    def handle_SubtaskLost(self, msg: SubtaskLost) -> None:
        """A coordinator reports a silent member: queue the rank for
        re-dispatch and (re)start the per-task recovery worker."""
        task_id = msg.task_id
        if task_id not in self._active_tasks:
            return
        pending = self._recovery_pending.setdefault(task_id, deque())
        if any(rank == msg.rank for rank, _coord in pending):
            return
        members = self._task_members.get(task_id)
        if members is not None:
            # the dead peer leaves the task; if it rejoins it becomes
            # an ordinary (free) re-dispatch candidate again
            members.discard(msg.peer.name)
        pending.append((msg.rank, msg.sender))
        self.overlay.stats.count("subtask_loss_reports")
        kick = self._recovery_kick.get(task_id)
        if kick is not None and not kick.triggered:
            kick.succeed(None)
        worker = self._recovery_procs.get(task_id)
        if worker is None or not worker.alive:
            self._recovery_procs[task_id] = self.sim.process(
                self._recovery_worker(task_id),
                name=f"{self.name}:recovery:{task_id}",
            )

    def _recovery_worker(self, task_id: int):
        """Serial re-dispatch loop: one replacement hunt at a time, so
        two lost ranks never race for the same candidate."""
        while task_id in self._active_tasks:
            pending = self._recovery_pending.get(task_id)
            if not pending:
                kick = Signal(f"{self.name}:recovery-kick:{task_id}")
                self._recovery_kick[task_id] = kick
                yield kick
                continue
            rank, coord = pending.popleft()
            yield from self._redispatch(task_id, rank, coord)

    def _redispatch(self, task_id: int, rank: int, coord: NodeRef):
        """Find, reserve and re-dispatch a replacement for ``rank``.

        Leftover spares were never reserved and rejoined peers
        re-registered as free, so a fresh collection round finds both;
        candidates are policy-ordered.  While nobody is available the
        hunt retries every ``reserve_timeout`` (a crashed peer may
        still rejoin) until the task completes or times out.
        """
        cfg = self.overlay.config
        while task_id in self._active_tasks:
            # a hand-off may have replaced the reporting coordinator
            # while this hunt was collecting or waiting: re-resolve
            coord = self._live_coordinator(task_id, coord)
            task = self._task_spec.get(task_id)
            members = self._task_members.get(task_id)
            if task is None or members is None:
                return
            collected = yield from collect_peers(
                self, 2, task.requirements, task_id, CollectionLog()
            )
            pool = self._policy_order(
                [r for r in collected if r.name not in members],
                task.workload,
            )
            for ref in pool:
                if task_id not in self._active_tasks:
                    return  # task ended mid-hunt: stop reserving
                sig = Signal(f"{self.name}:redsv:{task_id}:{rank}:{ref.name}")
                self._reserve_sigs[(task_id, ref.name)] = sig
                self.send_critical(ref, Reserve(self.ref, task_id=task_id,
                                                coordinator=coord))
                result = yield AnyOf([
                    sig, self.sim.timeout(cfg.reserve_timeout, "timeout"),
                ])
                if result[1] is True:
                    self._reserve_sigs.pop((task_id, ref.name), None)
                    if task_id in self._active_tasks:
                        self._dispatch_replacement(task_id, rank, coord, ref)
                        return
                    # reserved, but the task ended while we waited: undo
                    self.send_critical(ref,
                                       ReserveCancel(self.ref,
                                                     task_id=task_id))
                    return
                elif result[1] == "timeout":
                    # leave the signal registered: a positive ack past
                    # the timeout still reserved the peer, so release
                    # it the moment the ack lands instead of leaking a
                    # busy peer for the rest of the run
                    sig._subscribe(
                        lambda s, ref=ref: self._cancel_late_reserve(
                            task_id, ref, s)
                    )
                else:
                    self._reserve_sigs.pop((task_id, ref.name), None)
            yield self.sim.timeout(cfg.reserve_timeout)

    def _cancel_late_reserve(self, task_id: int, ref: NodeRef,
                             sig: Signal) -> None:
        """A reservation ack that arrived after the hunt gave up: the
        peer is reserved for nothing — tell it to release.  If a later
        hunt re-registered this (task, peer) key with a fresh signal,
        that hunt owns the ack and no cancel is sent."""
        if self._reserve_sigs.get((task_id, ref.name)) is sig:
            self._reserve_sigs.pop((task_id, ref.name), None)
            if sig._value is True:
                self.send_critical(ref,
                                   ReserveCancel(self.ref, task_id=task_id))

    def _dispatch_replacement(self, task_id: int, rank: int,
                              coord: NodeRef, ref: NodeRef) -> None:
        """Hand ``rank`` to the reserved replacement and rewire."""
        coord = self._live_coordinator(task_id, coord)
        task = self._task_spec[task_id]
        ranks = self._task_ranks[task_id]
        members = self._task_members[task_id]
        ranks[rank] = ref
        members.add(ref.name)
        n = len(ranks)
        # rewire first (smaller messages land before the subtask): the
        # coordinator swaps its reserved/monitoring entry, the halo
        # neighbours swap channels and resync their boundary
        recipients = {coord.name: coord}
        for nb in (rank - 1, rank + 1):
            if 0 <= nb < n:
                recipients.setdefault(ranks[nb].name, ranks[nb])
        for dst in recipients.values():
            self.send_critical(dst,
                               RankUpdate(self.ref, task_id=task_id,
                                          rank=rank, new_ref=ref))
        self._send_subtask(task_id, rank, ranks, task.workload, coord, ref,
                           catch_up=True)
        self.overlay.stats.count("redispatched_subtasks")

    def _finish_task(self, task_id: int) -> None:
        """Stop recovery for a task that completed or timed out."""
        self._active_tasks.discard(task_id)
        kick = self._recovery_kick.pop(task_id, None)
        if kick is not None and not kick.triggered:
            kick.succeed(None)
        self._recovery_procs.pop(task_id, None)
        for store in (self._task_spec, self._task_ranks,
                      self._task_members, self._recovery_pending,
                      self._decided_checks):
            store.pop(task_id, None)
        for keyed in (self._task_group_ranks, self._coord_successor):
            for key in [k for k in keyed if k[0] == task_id]:
                del keyed[key]
