"""The P2PDC peer (paper §III-A6/7 and §III-C).

A peer donates resources: it joins the zone of its closest tracker,
publishes its resources, heartbeats state updates (and re-joins via
its local tracker list when the tracker dies), and waits for work.

Peers also carry the *coordinator* role: when a submitter assigns it a
group, the peer reserves the group members in parallel (the paper's
"reverse" message), relays subtasks downward and results upward, and
aggregates convergence reports — the hierarchical mechanism that
avoids the submitter bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..desim import Signal
from .computation import PeerComputeError, SubtaskExecution, WorkAssignment
from .ip import proximity
from .messages import (
    ComputePing,
    ComputePong,
    ConvergenceDecision,
    ConvergenceReport,
    CoordHandoff,
    CoordPing,
    CoordPong,
    DispatchGap,
    DutyCheckpoint,
    GetTrackers,
    GroupAssign,
    GroupConvergence,
    GroupReady,
    NodeRef,
    PeerAccept,
    PeerBusy,
    PeerFree,
    PeerJoin,
    RankUpdate,
    Reserve,
    ReserveAck,
    ReserveCancel,
    ResultBatch,
    StateUpdate,
    SubtaskLost,
    SubtaskMsg,
    SubtaskResult,
    TrackersReply,
    UpdateAck,
)
from .node import NodeActor


@dataclass
class GroupDuty:
    """Coordinator-side state for one assigned group."""

    task_id: int
    group_index: int
    submitter: NodeRef
    peers: List[NodeRef]
    reserved: List[NodeRef] = field(default_factory=list)
    failed: List[NodeRef] = field(default_factory=list)
    results: List[SubtaskResult] = field(default_factory=list)
    expected_results: int = 0
    reports: Dict[int, Dict[int, float]] = field(default_factory=dict)
    batch_sent: bool = False
    # -- recovery bookkeeping (only used when config.recovery) ------------
    rank_of: Dict[str, int] = field(default_factory=dict)
    #: The ranks this group owns — stable under re-dispatch, unlike
    #: rank_of whose name→rank entries are overwritten when a rejoined
    #: ex-member takes over a different rank.
    ranks: Set[int] = field(default_factory=set)
    last_heard: Dict[str, float] = field(default_factory=dict)
    decided: Dict[int, bool] = field(default_factory=dict)
    reported_checks: Set[int] = field(default_factory=set)
    # -- replication bookkeeping (only used when config.election) ---------
    #: Bumped whenever election-relevant state changes; the monitor
    #: broadcasts a DutyCheckpoint when it outruns ``checkpointed``.
    version: int = 0
    checkpointed: int = -1


class Peer(NodeActor):
    """A resource-donating peer; also carries the coordinator role."""
    role = "peer"

    def __init__(self, overlay, name, ip, host, resources=None) -> None:
        super().__init__(overlay, name, ip, host)
        self.resources: Dict[str, float] = dict(resources or {})
        self.resources.setdefault("speed", host.speed)
        self.tracker: Optional[NodeRef] = None
        self.tracker_list: List[NodeRef] = []
        self.joined = False
        self.busy = False
        self.current_task: Optional[int] = None
        self.current_coordinator: Optional[NodeRef] = None
        self._join_signal: Optional[Signal] = None
        self._join_candidates: List[NodeRef] = []
        self._join_attempt = 0
        self._last_ack = 0.0
        self._decisions: Dict[Tuple[int, int], Signal] = {}
        self._duties: Dict[int, GroupDuty] = {}
        self._reserve_sigs: Dict[Tuple[int, str], Signal] = {}
        self._compute_procs: list = []
        self._executions: Dict[int, SubtaskExecution] = {}
        self.completed_subtasks: List[SubtaskResult] = []
        self.rejoin_count = 0
        # -- coordinator recovery (member side, config.election) -----------
        #: Latest replicated duty snapshot per task (from checkpoints).
        self._checkpoints: Dict[int, DutyCheckpoint] = {}
        #: Tasks with a live coordinator-monitor timer chain (one chain
        #: per task; the chain discards its entry when it dies).
        self._coord_watch: Set[int] = set()
        #: When the coordinator of each task was last heard from.
        self._coord_heard: Dict[int, float] = {}
        #: Coordinators declared lost per task (never re-adopted).
        self._dead_coords: Dict[int, Set[str]] = {}
        #: Claim-timer epoch per task: bumping it cancels a scheduled
        #: stand-in claim (a hand-off from an earlier candidate won).
        self._claim_epoch: Dict[int, int] = {}
        #: Latest convergence report per task (re-sent to a stand-in).
        self._last_reports: Dict[int, ConvergenceReport] = {}

    # -- membership ---------------------------------------------------------------
    def join_overlay(self, tracker_list: Optional[List[NodeRef]] = None) -> Signal:
        """Join through the closest tracker in the local list (stored at
        install time, §III-A3); falls back to the server when empty."""
        self.start()
        if self._join_signal is None or self._join_signal.triggered:
            self._join_signal = Signal(f"{self.name}:joined")
        if tracker_list:
            self.tracker_list = list(tracker_list)
        self._join_candidates = self._ranked_trackers()
        self._join_attempt = 0
        self._try_join()
        return self._join_signal

    def _ranked_trackers(self) -> List[NodeRef]:
        return sorted(
            self.tracker_list,
            key=lambda r: (-proximity(self.ip, r.ip), abs(int(r.ip) - int(self.ip))),
        )

    def _try_join(self) -> None:
        if self.joined:
            return
        if self._join_attempt < len(self._join_candidates):
            target = self._join_candidates[self._join_attempt]
            self._join_attempt += 1
            self.send_critical(
                target,
                PeerJoin(self.ref, peer=self.ref, resources=self.resources),
            )
        else:
            server = self.overlay.server
            if server is not None:
                req_id, _ = self.new_request()
                self.send_critical(server.ref,
                                   GetTrackers(self.ref, req_id=req_id))
        self.set_timer(self.overlay.config.update_ack_timeout, "join_retry")

    def timer_join_retry(self, _payload) -> None:
        if not self.joined:
            self._try_join()

    def handle_TrackersReply(self, msg: TrackersReply) -> None:
        self.drop_request(msg.req_id)
        if not self.joined:
            self._join_candidates = list(msg.trackers)
            self._join_attempt = 0
            self._try_join()

    def handle_PeerAccept(self, msg: PeerAccept) -> None:
        first_join = not self.joined
        self.tracker = msg.tracker
        self.tracker_list = list(msg.tracker_list)
        self.joined = True
        self._last_ack = self.sim.now
        if first_join:
            self.every(self.overlay.config.state_update_interval, "state_update")
        if self._join_signal is not None and not self._join_signal.triggered:
            self._join_signal.succeed(msg.tracker)

    # -- heartbeats / tracker-failure recovery -----------------------------------------
    def timer_state_update(self, _payload) -> None:
        if not self.joined or self.tracker is None:
            return
        self.send(self.tracker, StateUpdate(self.ref, usage=0.0, busy=self.busy))
        self.set_timer(
            self.overlay.config.update_ack_timeout, "ack_check", self.sim.now
        )

    def timer_ack_check(self, sent_at) -> None:
        if not self.joined or self.tracker is None:
            return
        if self._last_ack < sent_at:
            # tracker considered disconnected → join a neighbour zone
            dead = self.tracker
            self.overlay.stats.count("peer_tracker_failovers")
            self.rejoin_count += 1
            self.tracker = None
            self.joined = False
            self.tracker_list = [r for r in self.tracker_list if r.ip != dead.ip]
            self._join_candidates = self._ranked_trackers()
            self._join_attempt = 0
            self._try_join()

    def handle_UpdateAck(self, _msg: UpdateAck) -> None:
        self._last_ack = self.sim.now

    # -- reservation ("reverse") ----------------------------------------------------------
    def handle_Reserve(self, msg: Reserve) -> None:
        if self.busy and self.current_task != msg.task_id:
            self.send_critical(msg.sender,
                               ReserveAck(self.ref, task_id=msg.task_id,
                                          accepted=False))
            return
        self.busy = True
        self.current_task = msg.task_id
        self.current_coordinator = msg.coordinator
        if self.tracker is not None:
            self.send(self.tracker, PeerBusy(self.ref, task_id=msg.task_id))
        # a lost positive ack would leave this peer reserved for a
        # coordinator that counted it failed — busy for the whole run
        self.send_critical(msg.sender,
                           ReserveAck(self.ref, task_id=msg.task_id,
                                      accepted=True))

    def _release(self) -> None:
        task_id = self.current_task
        self.busy = False
        self.current_task = None
        self.current_coordinator = None
        if task_id is not None:
            # member-side coordinator-recovery state dies with the
            # reservation (completed results stay in completed_subtasks
            # for post-release re-sends to a stand-in)
            self._checkpoints.pop(task_id, None)
            self._coord_heard.pop(task_id, None)
            self._dead_coords.pop(task_id, None)
            self._claim_epoch.pop(task_id, None)
            self._last_reports.pop(task_id, None)
            self._coord_watch.discard(task_id)
        if self.tracker is not None:
            self.send(self.tracker, PeerFree(self.ref))

    # -- subtask execution ---------------------------------------------------------------
    def handle_SubtaskMsg(self, msg: SubtaskMsg) -> None:
        duty = self._duties.get(msg.task_id)
        if duty is not None and msg.final_dst is not None:
            # coordinator: remember who computes which rank (the
            # compute monitor reports losses per rank)
            duty.rank_of[msg.final_dst.name] = msg.rank
            duty.ranks.add(msg.rank)
            duty.version += 1
        if msg.final_dst is not None and msg.final_dst.name != self.name:
            # coordinator relay toward the computing peer (per-hop
            # reliability: the relay leg gets its own envelope)
            self.send_critical(msg.final_dst, msg)
            return
        if msg.task_id in self._executions:
            # duplicate dispatch (e.g. a DispatchGap re-relay racing
            # the original): the first one wins
            return
        done = next((r for r in self.completed_subtasks
                     if r.task_id == msg.task_id and r.rank == msg.rank),
                    None)
        if done is not None:
            # this exact rank was computed by a previous incarnation
            # and the result may have died with a crashed coordinator:
            # re-send it instead of recomputing, and free the
            # reservation so the peer can serve other lost ranks
            self.overlay.stats.count("resent_completed_results")
            self.send_critical(msg.spec.coordinator, done)
            if self.current_task == msg.task_id:
                self._release()
            return
        if self.current_task != msg.task_id:
            # not reserved for this task — e.g. a re-relay addressed to
            # a rank holder that crashed and rejoined as a free peer.
            # Dropping it keeps the reservation protocol honest: the
            # coordinator's monitor sees the rank silent and the
            # submitter re-dispatches it with a proper reservation.
            self.overlay.stats.count("unreserved_dispatches")
            return
        assignment: WorkAssignment = msg.spec
        execution = SubtaskExecution(self, assignment)
        self._executions[msg.task_id] = execution
        proc = self.sim.process(
            self._execute(execution), name=f"{self.name}:task{msg.task_id}"
        )
        self._compute_procs.append(proc)
        cfg = self.overlay.config
        if (cfg.election and assignment.coordinator.name != self.name
                and msg.task_id not in self._coord_watch):
            # member side of coordinator recovery: watch our
            # coordinator for as long as we compute this task.  The
            # subtask arrived through the coordinator's own relay, so
            # the clock starts *now* — a reservation-era checkpoint
            # timestamp must not count a long allocation stall (e.g. a
            # pre-dispatch reappointment) as coordinator silence.
            self._coord_watch.add(msg.task_id)
            self._coord_heard[msg.task_id] = self.sim.now
            self.set_timer(cfg.coord_ping_interval, "coord_monitor",
                           msg.task_id)

    def _execute(self, execution: SubtaskExecution):
        assignment = execution.assignment
        try:
            result = yield from execution.run()
        except PeerComputeError:
            self.overlay.stats.count("subtask_failures")
            self._executions.pop(assignment.task_id, None)
            self._release()
            return
        self.completed_subtasks.append(result)
        self.send_critical(assignment.coordinator, result)
        self._executions.pop(assignment.task_id, None)
        self._release()

    def register_decision(self, task_id: int, check_index: int) -> Signal:
        sig = Signal(f"{self.name}:decision:{task_id}:{check_index}")
        self._decisions[(task_id, check_index)] = sig
        return sig

    def note_report(self, report: ConvergenceReport) -> None:
        """Remember the latest convergence report per task, so it can
        be re-sent to a stand-in coordinator after a hand-off."""
        self._last_reports[report.task_id] = report

    def handle_ConvergenceDecision(self, msg: ConvergenceDecision) -> None:
        duty = self._duties.get(msg.task_id)
        if (duty is not None and msg.final_dst is None
                and duty.decided.get(msg.check_index) is not msg.stop):
            # coordinator: record the verdict (late reports from a
            # re-dispatched subtask get an immediate replay), then fan
            # the decision out to the group.  A verdict already known
            # (the submitter's decided-history replay after a
            # hand-off) is not re-recorded or re-broadcast.
            duty.decided[msg.check_index] = msg.stop
            duty.version += 1
            for ref in duty.reserved:
                if ref.name != self.name:
                    self.send_critical(
                        ref,
                        ConvergenceDecision(
                            self.ref, task_id=msg.task_id,
                            check_index=msg.check_index, stop=msg.stop,
                            final_dst=ref,
                        ),
                    )
        sig = self._decisions.pop((msg.task_id, msg.check_index), None)
        if sig is not None and not sig.triggered:
            sig.succeed(msg.stop)

    # -- coordinator role ---------------------------------------------------------------------
    def handle_GroupAssign(self, msg: GroupAssign) -> None:
        duty = GroupDuty(
            task_id=msg.task_id,
            group_index=msg.group_index,
            submitter=msg.sender,
            peers=list(msg.peers),
        )
        self._duties[msg.task_id] = duty
        self.sim.process(
            self._reserve_group(duty), name=f"{self.name}:reserve{msg.task_id}"
        )

    def _reserve_group(self, duty: GroupDuty):
        cfg = self.overlay.config
        pending = []
        for ref in duty.peers:
            if ref.name == self.name:
                # the coordinator reserves itself directly
                self.busy = True
                self.current_task = duty.task_id
                self.current_coordinator = self.ref
                duty.reserved.append(self.ref)
                continue
            sig = Signal(f"{self.name}:rsv:{duty.task_id}:{ref.name}")
            self._reserve_sigs[(duty.task_id, ref.name)] = sig
            self.send_critical(ref, Reserve(self.ref, task_id=duty.task_id,
                                            coordinator=self.ref))
            pending.append((ref, sig))
        if pending:
            # wait for all acks or the timeout, whichever first
            yield all_or_timeout(self.sim, [s for _r, s in pending],
                                 cfg.reserve_timeout)
        for ref, sig in pending:
            if sig.triggered and sig.ok and sig._value:
                duty.reserved.append(ref)
            else:
                duty.failed.append(ref)
            self._reserve_sigs.pop((duty.task_id, ref.name), None)
        duty.reserved.sort(key=lambda r: int(r.ip))
        duty.expected_results = len(duty.reserved)
        self.send_critical(
            duty.submitter,
            GroupReady(
                self.ref, task_id=duty.task_id, group_index=duty.group_index,
                reserved=list(duty.reserved), failed=list(duty.failed),
            ),
        )
        if cfg.recovery:
            # liveness monitoring of the computing members starts with
            # the reservation: a member that goes silent mid-compute is
            # reported to the submitter for subtask re-dispatch
            now = self.sim.now
            duty.last_heard = {ref.name: now for ref in duty.reserved
                               if ref.name != self.name}
            self.set_timer(cfg.compute_ping_interval, "compute_monitor",
                           duty.task_id)
            if cfg.election:
                # seed the replicated duty state right away: even a
                # pre-dispatch coordinator crash must leave the
                # survivors a snapshot to elect from
                duty.version += 1
                self._broadcast_checkpoint(duty)

    # -- compute-liveness monitoring (churn recovery) ---------------------------
    def timer_compute_monitor(self, task_id) -> None:
        duty = self._duties.get(task_id)
        if duty is None or duty.batch_sent:
            return  # group done: let the monitor chain die
        cfg = self.overlay.config
        now = self.sim.now
        # partition-aware silence: with the reliability hardening on, a
        # member behind a healing partition answers once the retry
        # budget delivers — don't declare it dead before that window
        # has provably closed
        silence = cfg.compute_ping_timeout
        if cfg.reliability:
            silence += cfg.retry_horizon()
        done_ranks = {r.rank for r in duty.results}
        for ref in list(duty.reserved):
            if ref.name == self.name:
                continue
            rank = duty.rank_of.get(ref.name)
            if rank is not None and rank in done_ranks:
                continue  # result already in: nothing left to lose
            last = duty.last_heard.setdefault(ref.name, now)
            if now - last > silence and rank is not None:
                # silent past the timeout: its unfinished subtask goes
                # back to the submitter's pending pool.  A member whose
                # rank is not known yet (died between reservation and
                # dispatch) stays under watch — the subtask relay will
                # name its rank and the next sweep reports it.
                duty.reserved = [r for r in duty.reserved
                                 if r.name != ref.name]
                duty.last_heard.pop(ref.name, None)
                duty.version += 1
                self.overlay.stats.count("subtasks_lost")
                self.send_critical(duty.submitter, SubtaskLost(
                    self.ref, task_id=task_id, rank=rank, peer=ref,
                ))
            else:
                self.send(ref, ComputePing(self.ref, task_id=task_id))
        if cfg.election and duty.version != duty.checkpointed:
            # piggyback the duty replication on the monitor cadence
            self._broadcast_checkpoint(duty)
        self.set_timer(cfg.compute_ping_interval, "compute_monitor", task_id)

    def handle_ComputePing(self, msg: ComputePing) -> None:
        # pong only while actually computing this task — a peer that
        # crashed and rejoined must read as dead for its old subtask
        if self.current_task == msg.task_id:
            self.send(msg.sender, ComputePong(self.ref, task_id=msg.task_id))

    def handle_ComputePong(self, msg: ComputePong) -> None:
        duty = self._duties.get(msg.task_id)
        if duty is not None:
            duty.last_heard[msg.sender.name] = self.sim.now

    # -- coordinator recovery: stand-in election (config.election) ---------------
    def _broadcast_checkpoint(self, duty: GroupDuty) -> None:
        """Replicate the duty state to every group member, so any
        survivor can reconstruct it after a coordinator crash."""
        checkpoint = DutyCheckpoint(
            self.ref, task_id=duty.task_id, group_index=duty.group_index,
            submitter=duty.submitter, reserved=list(duty.reserved),
            rank_of=dict(duty.rank_of),
            expected_results=duty.expected_results,
            decided=dict(duty.decided), version=duty.version,
        )
        duty.checkpointed = duty.version
        for ref in duty.reserved:
            if ref.name != self.name:
                self.send_critical(ref, checkpoint)

    def handle_CoordPing(self, msg: CoordPing) -> None:
        # pong only while actually holding the duty — a coordinator
        # that crashed and rejoined must read as dead for its old group
        duty = self._duties.get(msg.task_id)
        if duty is not None:
            # the member's probe doubles as a member-liveness sample
            duty.last_heard[msg.sender.name] = self.sim.now
            self.send(msg.sender, CoordPong(self.ref, task_id=msg.task_id))

    def handle_CoordPong(self, msg: CoordPong) -> None:
        if self.current_task == msg.task_id:
            self._coord_heard[msg.task_id] = self.sim.now

    def handle_DutyCheckpoint(self, msg: DutyCheckpoint) -> None:
        current = self._checkpoints.get(msg.task_id)
        if current is None or msg.version >= current.version:
            self._checkpoints[msg.task_id] = msg
        if self.current_task == msg.task_id:
            # a checkpoint proves the coordinator alive
            self._coord_heard[msg.task_id] = self.sim.now

    def timer_coord_monitor(self, task_id) -> None:
        cfg = self.overlay.config
        if (not cfg.election or self.current_task != task_id
                or task_id in self._duties):
            # released, or promoted to (stand-in) coordinator
            self._coord_watch.discard(task_id)
            return
        coord = self.current_coordinator
        if coord is None or coord.name == self.name:
            self._coord_watch.discard(task_id)
            return
        now = self.sim.now
        heard = self._coord_heard.setdefault(task_id, now)
        silence = cfg.coord_ping_timeout
        if cfg.reliability:
            # same partition-aware margin as the compute monitor: a
            # coordinator sealed behind a healing partition is slow,
            # not dead — electing over it would fork the group
            silence += cfg.retry_horizon()
        if now - heard > silence:
            dead = self._dead_coords.setdefault(task_id, set())
            if coord.name not in dead:
                dead.add(coord.name)
                self.overlay.stats.count("coordinator_losses_detected")
                self._begin_claim(task_id, coord)
            # the chain stays alive: if the election stalls (no
            # checkpoint survived anywhere) the run times out and the
            # non-completion is reported honestly
        else:
            self.send(coord, CoordPing(self.ref, task_id=task_id))
        self.set_timer(cfg.coord_ping_interval, "coord_monitor", task_id)

    def _election_order(self, checkpoint: DutyCheckpoint,
                        dead: Set[str]) -> List[NodeRef]:
        """Deterministic stand-in candidate order: lowest rank alive
        first; under the failure-aware policy, candidates with the
        fewest observed crashes come first and rank breaks the tie.
        Every survivor computes the same list from the same checkpoint,
        so the k-th candidate's claim delay staggers cleanly."""
        candidates = [r for r in checkpoint.reserved if r.name not in dead]
        unranked = len(checkpoint.rank_of) + len(candidates) + 1

        def rank_key(ref: NodeRef) -> int:
            return checkpoint.rank_of.get(ref.name, unranked)

        if self.overlay.config.selection_policy == "failure_aware":
            history = self.overlay.failure_history
            return sorted(candidates, key=lambda r: (
                history.get(r.name, 0), rank_key(r), int(r.ip)))
        return sorted(candidates, key=lambda r: (rank_key(r), int(r.ip)))

    def _begin_claim(self, task_id: int, dead_coord: NodeRef) -> None:
        checkpoint = self._checkpoints.get(task_id)
        if checkpoint is None:
            return  # no replicated state here; another survivor may hold it
        order = self._election_order(checkpoint,
                                     self._dead_coords.get(task_id, set()))
        names = [r.name for r in order]
        if self.name not in names:
            return
        epoch = self._claim_epoch.get(task_id, 0) + 1
        self._claim_epoch[task_id] = epoch
        delay = names.index(self.name) * self.overlay.config.election_backoff
        self.set_timer(delay, "claim_standin", (task_id, epoch, dead_coord))

    def timer_claim_standin(self, payload) -> None:
        task_id, epoch, dead_coord = payload
        if (self._claim_epoch.get(task_id) != epoch
                or not self.overlay.config.election
                or self.current_task != task_id
                or task_id in self._duties):
            return
        coord = self.current_coordinator
        if (coord is not None
                and coord.name not in self._dead_coords.get(task_id, set())):
            return  # a hand-off landed while we were backing off
        self._claim_standin(task_id, dead_coord)

    def _claim_standin(self, task_id: int, dead_coord: NodeRef) -> None:
        """Become the group's stand-in coordinator: rebuild the duty
        from the replicated checkpoint, resume monitoring and
        re-dispatch, and announce the hand-off to the members, the
        submitter and the tracker."""
        checkpoint = self._checkpoints[task_id]
        cfg = self.overlay.config
        now = self.sim.now
        duty = GroupDuty(
            task_id=task_id, group_index=checkpoint.group_index,
            submitter=checkpoint.submitter,
            peers=list(checkpoint.reserved),
            # the dead coordinator stays reserved: its rank goes
            # through the normal silent-member loss path, *after*
            # re-sent results had a chance to mark it done
            reserved=list(checkpoint.reserved),
            expected_results=checkpoint.expected_results,
            rank_of=dict(checkpoint.rank_of),
            ranks=set(checkpoint.rank_of.values()),
            decided=dict(checkpoint.decided),
            reported_checks=set(checkpoint.decided),
        )
        duty.version = checkpoint.version + 1
        duty.last_heard = {r.name: now for r in duty.reserved
                           if r.name != self.name}
        self._duties[task_id] = duty
        self.current_coordinator = self.ref
        execution = self._executions.get(task_id)
        if execution is not None:
            # our own subtask now reports to us
            execution.assignment.coordinator = self.ref
        self.overlay.stats.count("coordinator_elections")
        self.overlay.stats.observe(
            "handoff_latency", now - self._coord_heard.get(task_id, now))
        handoff = CoordHandoff(self.ref, task_id=task_id,
                               group_index=checkpoint.group_index,
                               old=dead_coord, new=self.ref)
        for ref in duty.reserved:
            if ref.name not in (self.name, dead_coord.name):
                self.send_critical(ref, handoff)
        self.send_critical(duty.submitter, handoff)
        if self.tracker is not None:
            # re-register the duty with the zone: the stand-in stays
            # busy and the dead coordinator's record is dropped early
            self.send_critical(self.tracker, handoff)
        # dispatches that died in flight with the old coordinator: ask
        # the submitter to re-relay every group rank we have never seen
        self.send_critical(duty.submitter, DispatchGap(
            self.ref, task_id=task_id, group_index=checkpoint.group_index,
            known_ranks=tuple(sorted(duty.ranks)),
        ))
        # our own pending convergence report re-enters the rebuilt duty
        report = self._last_reports.get(task_id)
        if (report is not None
                and (task_id, report.check_index) in self._decisions):
            self.handle_ConvergenceReport(report)
        self.set_timer(cfg.compute_ping_interval, "compute_monitor", task_id)
        self._broadcast_checkpoint(duty)

    def handle_CoordHandoff(self, msg: CoordHandoff) -> None:
        new = msg.new
        dead = self._dead_coords.setdefault(msg.task_id, set())
        if msg.old is not None and not msg.demoted:
            # a demoted predecessor is alive (out-ranked, not crashed):
            # it stays a legitimate candidate for future elections
            dead.add(msg.old.name)
        dead.discard(new.name)
        # cancel any scheduled claim of our own: this hand-off won
        self._claim_epoch[msg.task_id] = (
            self._claim_epoch.get(msg.task_id, 0) + 1)
        # results we completed may have died unreported in the old
        # coordinator's duty state: re-send (the stand-in dedups by rank)
        for result in self.completed_subtasks:
            if result.task_id == msg.task_id and new.name != self.name:
                self.send_critical(new, result)
        duty = self._duties.get(msg.task_id)
        if duty is not None and new.name != self.name:
            # duelling claims (detection skew beat the backoff grid):
            # deterministic arbitration — the earlier candidate in the
            # election order keeps the duty
            checkpoint = self._checkpoints.get(msg.task_id)
            order = ([r.name for r in self._election_order(checkpoint, dead)]
                     if checkpoint is not None else [])
            if (self.name in order and new.name in order
                    and order.index(self.name) < order.index(new.name)):
                # we precede the other claimer: keep the duty, and
                # re-announce so members/submitter that processed the
                # losing hand-off last are routed back to us (the
                # loser is demoted, not dead — the tracker is skipped
                # so its zone record survives)
                reannounce = CoordHandoff(
                    self.ref, task_id=msg.task_id,
                    group_index=duty.group_index, old=new, new=self.ref,
                    demoted=True)
                for ref in duty.reserved:
                    if ref.name not in (self.name, new.name):
                        self.send_critical(ref, reannounce)
                self.send_critical(new, reannounce)
                self.send_critical(duty.submitter, reannounce)
                return
            del self._duties[msg.task_id]
            if (self.current_task == msg.task_id
                    and msg.task_id not in self._coord_watch):
                # demoted back to a plain member: resume watching the
                # coordinator that out-ranked us
                self._coord_watch.add(msg.task_id)
                self.set_timer(self.overlay.config.coord_ping_interval,
                               "coord_monitor", msg.task_id)
        if self.current_task != msg.task_id or new.name == self.name:
            return
        self.current_coordinator = new
        self._coord_heard[msg.task_id] = self.sim.now
        execution = self._executions.get(msg.task_id)
        if execution is not None:
            execution.assignment.coordinator = new
        # a convergence report the old coordinator swallowed: re-send
        # the stored message, so the stand-in's bucket for the blocked
        # check can fill (same object the claim path replays)
        report = self._last_reports.get(msg.task_id)
        if (report is not None
                and (msg.task_id, report.check_index) in self._decisions):
            self.send_critical(new, report)

    def handle_RankUpdate(self, msg: RankUpdate) -> None:
        duty = self._duties.get(msg.task_id)
        if duty is not None and msg.rank in duty.ranks:
            # coordinator of the group that owns this rank: the rank is
            # now computed by new_ref — swap it into the reserved set
            # and monitor it.  (A coordinator that receives this as a
            # mere halo neighbour of another group must not adopt the
            # replacement into its own duty.)
            duty.reserved = [
                r for r in duty.reserved
                if r.name != msg.new_ref.name
                and duty.rank_of.get(r.name) != msg.rank
            ]
            duty.reserved.append(msg.new_ref)
            duty.reserved.sort(key=lambda r: int(r.ip))
            duty.rank_of[msg.new_ref.name] = msg.rank
            duty.last_heard[msg.new_ref.name] = self.sim.now
            duty.version += 1
        execution = self._executions.get(msg.task_id)
        if execution is not None:
            # halo neighbour: swap the channel to the replacement
            execution.rewire(msg.rank, msg.new_ref)

    def handle_ReserveAck(self, msg: ReserveAck) -> None:
        sig = self._reserve_sigs.get((msg.task_id, msg.sender.name))
        if sig is not None and not sig.triggered:
            sig.succeed(msg.accepted)

    def handle_ReserveCancel(self, msg: ReserveCancel) -> None:
        # release only an *idle* reservation: a peer already computing
        # (or relaying as coordinator) this task keeps its state
        if (self.current_task == msg.task_id
                and msg.task_id not in self._executions
                and msg.task_id not in self._duties):
            self._release()

    def handle_ConvergenceReport(self, msg: ConvergenceReport) -> None:
        duty = self._duties.get(msg.task_id)
        if duty is None:
            return
        if msg.check_index in duty.decided:
            # a re-dispatched subtask catching up through an already-
            # decided check: replay the verdict so it keeps iterating
            self.send_critical(msg.sender, ConvergenceDecision(
                self.ref, task_id=msg.task_id, check_index=msg.check_index,
                stop=duty.decided[msg.check_index], final_dst=msg.sender,
            ))
            return
        bucket = duty.reports.setdefault(msg.check_index, {})
        bucket[msg.rank] = msg.residual
        if (len(bucket) == duty.expected_results
                and msg.check_index not in duty.reported_checks):
            duty.reported_checks.add(msg.check_index)
            self.send_critical(
                duty.submitter,
                GroupConvergence(
                    self.ref, task_id=msg.task_id,
                    group_index=duty.group_index,
                    check_index=msg.check_index,
                    residual=max(bucket.values()),
                ),
            )

    def handle_SubtaskResult(self, msg: SubtaskResult) -> None:
        duty = self._duties.get(msg.task_id)
        if duty is None:
            return
        if any(r.rank == msg.rank for r in duty.results):
            # conservation: a rank completes exactly once — a late
            # result racing its own loss report is dropped
            self.overlay.stats.count("duplicate_results")
            return
        duty.results.append(msg)
        if len(duty.results) >= duty.expected_results and not duty.batch_sent:
            duty.batch_sent = True
            self.send_critical(
                duty.submitter,
                ResultBatch(
                    self.ref, task_id=msg.task_id,
                    group_index=duty.group_index,
                    results=list(duty.results),
                ),
            )

    # -- failure / recovery ---------------------------------------------------------
    def crash(self) -> None:
        for proc in self._compute_procs:
            if proc.alive:
                proc.interrupt("peer crash")
        super().crash()

    def close(self) -> None:
        """Also drop the task state that points back at this peer: its
        executions, its compute processes (a failed one keeps its
        generator's frames in the stored traceback) and its pending
        reservations."""
        super().close()
        self._executions = {}
        self._compute_procs = []
        self._reserve_sigs = {}

    def on_revive(self) -> None:
        """Churn rejoin: come back with fresh protocol state and
        re-register through the locally stored tracker list.

        Any subtask the peer held at crash time is gone (the
        coordinator's compute monitor reports it lost); the rejoined
        peer is free and immediately eligible for re-dispatch.
        """
        self.busy = False
        self.current_task = None
        self.current_coordinator = None
        self._duties.clear()
        self._executions.clear()
        self._compute_procs.clear()
        self._decisions.clear()
        self._reserve_sigs.clear()
        self._checkpoints.clear()
        self._coord_watch.clear()
        self._coord_heard.clear()
        self._dead_coords.clear()
        self._claim_epoch.clear()
        self._last_reports.clear()
        self.joined = False
        self.tracker = None
        self.rejoin_count += 1
        self._join_signal = Signal(f"{self.name}:rejoined")
        self._join_candidates = self._ranked_trackers()
        self._join_attempt = 0
        self._try_join()


def all_or_timeout(sim, signals, timeout):
    """A signal that fires with the list of ``signals``' values once
    all of them fire, or with ``"timeout"`` after ``timeout`` —
    whichever comes first."""
    from ..desim import AllOf

    done = Signal("all-or-timeout")
    AllOf(signals)._subscribe(
        lambda s: done.succeed(s._value) if not done.triggered else None
    )
    sim.schedule(timeout, lambda: done.succeed("timeout")
                 if not done.triggered else None)
    return done
