"""The work-stealing wire: a shared directory of atomic files.

The fleet coordinates over the same substrate the result cache
already trusts — atomic filesystem operations on a shared directory
(local disk for a process pool, a shared mount for remote machines).
No sockets, no broker: any machine that can see the cache directory
can attach a worker.

Layout, under ``<cache>/fleet/<label>/``::

    grid.json            the task list, worker intervals, retry budget
    queue/p<idx>.json    one claimable task per pending point
    active/p<idx>.<wid>.json   a claimed task, owned by worker <wid>
    done/p<idx>.json     a finished point's task file, moved here
    poison/p<idx>.json   a quarantined point (exhausted its retries)
    workers/<wid>.json   heartbeat: ts, pid, current point
    stop                 dispatcher's "all points resolved" flag

**Claiming is a rename.**  ``os.rename(queue/p7.json,
active/p7.<wid>.json)`` is atomic: exactly one worker wins, every
loser gets ``FileNotFoundError`` and steals the next task.  There is
no partial state — a task is either claimable, owned, done, or
quarantined.

**Finishing is a rename too.**  A worker that computed its point
moves ``active/p7.<wid>.json`` to ``done/p7.json`` and drops any
``queue/`` or ``poison/`` copy a revoked claim left.  The fleet
directory holds coordination only: a point's result lives in the
shared result cache, written before that rename, and nowhere else.

**Liveness is a heartbeat.**  Workers rewrite their heartbeat file
(atomically) every interval; the dispatcher treats a stale heartbeat
as a dead worker and *requeues* its active tasks with an attempt
count and a backoff ``not_before`` timestamp.  A task whose attempts
exceed the retry budget is moved to ``poison/`` with its full attempt
history — a poison point is quarantined and reported, never retried
forever.

Timestamps are ``time.time()`` from whichever machine wrote them;
liveness comparisons assume loosely synchronized clocks (NTP-level),
which shared-filesystem fleets already require for mtime sanity.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..scenarios.runner import atomic_write_text

#: Default seconds between worker heartbeats.
HEARTBEAT_INTERVAL = 0.5

#: Default seconds of heartbeat silence before a worker is presumed
#: dead and its tasks are requeued.
DEFAULT_LIVENESS_TIMEOUT = 10.0

#: Default retry budget per point (first run + this many retries).
DEFAULT_MAX_RETRIES = 3

#: Default base of the exponential requeue backoff (seconds).
DEFAULT_BACKOFF_BASE = 0.5

#: Default seconds a worker sleeps when it finds nothing to claim.
POLL_INTERVAL = 0.1


class FleetDirs:
    """Path bundle for one fleet run's coordination directory."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = Path(root)
        self.grid_path = self.root / "grid.json"
        self.queue = self.root / "queue"
        self.active = self.root / "active"
        self.done = self.root / "done"
        self.poison = self.root / "poison"
        self.workers = self.root / "workers"
        self.stop_path = self.root / "stop"

    def create(self) -> "FleetDirs":
        for d in (self.queue, self.active, self.done, self.poison,
                  self.workers):
            d.mkdir(parents=True, exist_ok=True)
        return self

    # -- tasks --------------------------------------------------------------
    @staticmethod
    def task_name(index: int) -> str:
        return f"p{index:06d}.json"

    def claim_path(self, index: int, worker_id: str) -> Path:
        """Where ``worker_id``'s claim on task ``index`` lives."""
        return self.active / f"p{index:06d}.{worker_id}.json"

    def write_task(self, directory: Path, task: Dict[str, Any]) -> None:
        """Write ``task`` as its file in ``directory`` (atomic)."""
        atomic_write_text(directory / self.task_name(task["index"]),
                          json.dumps(task, sort_keys=True))

    def enqueue(self, task: Dict[str, Any]) -> None:
        """Make a task claimable (atomic write into ``queue/``)."""
        self.write_task(self.queue, task)

    def claim(self, index: int, worker_id: str) -> Optional[Dict[str, Any]]:
        """Try to claim queued task ``index`` for ``worker_id``.

        Returns the task payload on success, None when another worker
        won the rename race (or the task left the queue meanwhile).

        **Rename first, read second.**  The payload is read from the
        claimed file in ``active/`` — the exact bytes the rename moved
        — never from ``queue/`` beforehand.  Reading before the rename
        opened a race with :func:`requeue_task`: a re-enqueue landing
        between read and rename handed the winner the *stale* payload
        (attempt counter and ``not_before`` backoff trail reset),
        which could defeat the retry budget and un-quarantine a
        poison-bound point.
        """
        try:
            os.rename(self.queue / self.task_name(index),
                      self.claim_path(index, worker_id))
        except FileNotFoundError:
            return None  # lost the race: someone else owns it now
        try:
            return json.loads(self.claim_path(index, worker_id).read_text())
        except (OSError, ValueError):
            # we own an unreadable claim (shared-mount hiccup: enqueue
            # itself is atomic) — hand the file back untouched so the
            # point stays claimable with its history intact
            try:
                os.rename(self.claim_path(index, worker_id),
                          self.queue / self.task_name(index))
            except OSError:
                pass
            return None

    def hand_back(self, task: Dict[str, Any], worker_id: str) -> None:
        """Return a claimed task to ``queue/`` verbatim: enqueue first,
        then drop the claim, so the point is never owner-less."""
        self.enqueue(task)
        try:
            os.unlink(self.claim_path(task["index"], worker_id))
        except FileNotFoundError:
            pass

    def finish(self, task: Dict[str, Any], worker_id: str) -> None:
        """Mark ``task`` done: its claim file moves to ``done/``.

        A claim the dispatcher revoked meanwhile (judged dead, say) is
        gone; the point is then recorded done from ``task`` itself,
        because its result is already in the cache.  Either way the
        point's requeued ``queue/`` or quarantined ``poison/`` copy is
        then dropped, so it is neither claimed again nor counted as
        poisoned.
        """
        name = self.task_name(task["index"])
        try:
            os.rename(self.claim_path(task["index"], worker_id),
                      self.done / name)
        except FileNotFoundError:
            self.write_task(self.done, task)
        for directory in (self.queue, self.poison):
            try:
                os.unlink(directory / name)
            except FileNotFoundError:
                pass

    def queued_indices(self) -> List[int]:
        """Claimable task indices in index order (filenames only)."""
        return sorted(self._indices(self.queue))

    def active_claims(self) -> List[Dict[str, Any]]:
        """Owned tasks: payload + ``worker`` parsed from the filename."""
        out = []
        for path in sorted(self.active.glob("p*.json")):
            stem = path.name[:-len(".json")]
            _point, _, worker = stem.partition(".")
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            payload["worker"] = worker
            payload["_path"] = str(path)
            out.append(payload)
        return out

    # -- completion ---------------------------------------------------------
    def done_indices(self) -> set:
        """Finished grid indices, parsed from *filenames only* — no
        file is opened, so this is safe to poll at scale."""
        return self._indices(self.done)

    def poison_indices(self) -> set:
        """Quarantined grid indices (filename-only, like
        :meth:`done_indices`)."""
        return self._indices(self.poison)

    @staticmethod
    def _indices(directory: Path) -> set:
        out = set()
        try:
            names = os.listdir(directory)
        except OSError:
            return out
        for name in names:
            if name.startswith("p") and name.endswith(".json"):
                try:
                    out.add(int(name[1:-len(".json")]))
                except ValueError:
                    continue
        return out

    def mark_poison(self, task: Dict[str, Any], reason: str) -> None:
        payload = dict(task)
        payload.pop("_path", None)
        payload["reason"] = reason
        self.write_task(self.poison, payload)

    def poison_records(self) -> Dict[int, Dict[str, Any]]:
        out: Dict[int, Dict[str, Any]] = {}
        for path in sorted(self.poison.glob("p*.json")):
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            out[record["index"]] = record
        return out

    # -- liveness -----------------------------------------------------------
    def beat(self, worker_id: str, point: Optional[int],
             points_done: int = 0,
             telemetry: Optional[Dict[str, Any]] = None) -> None:
        """Rewrite a worker's heartbeat (atomic).

        ``telemetry`` merges extra throughput fields into the record
        (``points_per_min``, ``mean_latency``, ``last_latency``,
        ``point_age``, ``uptime`` — see
        :mod:`repro.fleet.telemetry`); the core liveness fields always
        win a key collision.
        """
        payload: Dict[str, Any] = dict(telemetry or {})
        payload.update({
            "worker": worker_id, "ts": time.time(), "pid": os.getpid(),
            "point": point, "points_done": points_done,
        })
        atomic_write_text(self.workers / f"{worker_id}.json",
                          json.dumps(payload, sort_keys=True))

    def heartbeats(self) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for path in self.workers.glob("*.json"):
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            out[record["worker"]] = record
        return out

    # -- lifecycle ----------------------------------------------------------
    def write_grid(self, payload: Dict[str, Any]) -> None:
        atomic_write_text(self.grid_path,
                          json.dumps(payload, indent=1, sort_keys=True))

    def read_grid(self) -> Dict[str, Any]:
        return json.loads(self.grid_path.read_text())

    def signal_stop(self) -> None:
        atomic_write_text(self.stop_path, json.dumps({"ts": time.time()}))

    @property
    def stopped(self) -> bool:
        return self.stop_path.exists()


def backoff_delay(attempt: int, base: float) -> float:
    """Exponential requeue backoff: ``base * 2**(attempt-1)``."""
    return base * (2 ** max(0, attempt - 1))


def requeue_task(dirs: FleetDirs, task: Dict[str, Any], *,
                 max_retries: int, backoff_base: float,
                 reason: str) -> bool:
    """Return a dead worker's task to the queue (or quarantine it).

    The task's ``attempt`` counter is bumped and its attempt history
    appended (``{"attempt", "at", "not_before", "reason"}`` — the
    monotone backoff trail the fault tests pin).  After
    ``max_retries`` requeues the point is poison: moved to
    ``poison/`` with its full history, never retried again.  Returns
    True when the task went back to the queue, False when it was
    quarantined.

    The active claim file is removed *after* the requeued/poison
    record is durable, so a dispatcher crash between the two steps
    leaves a duplicate claim (harmless: a rerun finds its result in
    the cache and moves to the same ``done/`` name), never a lost
    point.
    """
    attempt = int(task.get("attempt", 1)) + 1
    now = time.time()
    not_before = now + backoff_delay(attempt - 1, backoff_base)
    history = list(task.get("attempts", []))
    history.append({"attempt": attempt, "at": now,
                    "not_before": not_before, "reason": reason})
    requeued = dict(task)
    requeued.pop("_path", None)
    requeued.pop("worker", None)
    requeued.update(attempt=attempt, not_before=not_before,
                    attempts=history)
    poisoned = attempt > max_retries
    if poisoned:
        dirs.mark_poison(requeued, reason=f"exceeded {max_retries} "
                                          f"retries ({reason})")
        # a quarantined point must not stay claimable: drop any queue
        # entry it may still have (it normally has none — poison comes
        # from active claims — but a stale one would undo quarantine)
        try:
            os.unlink(dirs.queue / dirs.task_name(task["index"]))
        except FileNotFoundError:
            pass
    else:
        dirs.enqueue(requeued)
    path = task.get("_path")
    if path:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    return not poisoned
