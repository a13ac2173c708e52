"""A fleet worker: steal, compute, persist, heartbeat, repeat.

``FleetWorker`` attaches to a fleet directory (see
:mod:`repro.fleet.protocol`), claims one grid point at a time via the
atomic rename protocol, and runs it through ``run_cached`` — the
resolver a sweep uses, re-probing the cache because the claim can
postdate seeding — so results land in the shared
:class:`~repro.scenarios.runner.ResultCache` *before* the point is
marked done, and a worker killed between the two leaves an idempotent
rerun, never a lost or duplicated result.  That per-hash file is the
point's one stored copy.

A heartbeat thread keeps the worker's liveness file fresh while a
point computes; a compute that *raises* (as opposed to a scenario
that fails — that's a result) requeues the point with backoff and the
worker moves on.  A worker process that dies outright stops beating,
and the dispatcher requeues its claim.

Run one on any machine that can see the cache directory::

    python -m repro.fleet worker --fleet-dir <cache>/fleet/<label>

Fault injection (tests only): ``REPRO_FLEET_FAULT`` holds
comma-separated ``<spec-hash-prefix>=<action>`` items with action
``exit`` (hard ``os._exit`` before computing — the poison-point path)
or ``hang`` (block, heartbeat alive, until killed or a
``fault-disarmed`` file appears in the fleet dir — the SIGKILL
harness).  Production fleets never set it.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Optional

from ..scenarios.runner import ResultCache, run_cached
from ..scenarios.spec import ScenarioSpec
from .protocol import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_MAX_RETRIES,
    HEARTBEAT_INTERVAL,
    FleetDirs,
    ResolvedCounter,
    requeue_task,
)


def default_worker_id() -> str:
    """``<host>-<pid>`` with dots sanitized (the claim-filename
    separator is a dot)."""
    host = socket.gethostname().replace(".", "-")
    return f"{host}-{os.getpid()}"


class FleetWorker:
    """One work-stealing loop over a fleet directory (see module doc).

    ``cache_dir`` defaults to the fleet directory's grandparent —
    fleet dirs live at ``<cache>/fleet/<label>`` — so a worker
    normally needs nothing but ``--fleet-dir``.
    """

    def __init__(
        self,
        fleet_dir: os.PathLike | str,
        cache_dir: Optional[os.PathLike | str] = None,
        worker_id: Optional[str] = None,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        poll_interval: float = 0.1,
    ) -> None:
        self.dirs = FleetDirs(fleet_dir)
        grid = self.dirs.read_grid()
        self.n_points: int = grid["n_points"]
        self.max_retries: int = grid.get("max_retries",
                                         DEFAULT_MAX_RETRIES)
        self.backoff_base: float = grid.get("backoff_base",
                                            DEFAULT_BACKOFF_BASE)
        self.worker_id = worker_id or default_worker_id()
        if "." in self.worker_id:
            raise ValueError(
                f"worker id must not contain '.', got {self.worker_id!r}"
            )
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        cache_root = Path(cache_dir) if cache_dir is not None \
            else self.dirs.root.parent.parent
        self.cache = ResultCache(cache_root)
        self.points_done = 0
        self._current: Optional[int] = None
        self._beat_stop = threading.Event()
        self._resolved_counter = ResolvedCounter(self.dirs)
        # throughput telemetry (read by the beat thread — plain float
        # reads, no lock needed)
        self._started = time.monotonic()
        self._claim_started: Optional[float] = None
        self._latency_sum = 0.0
        self._latency_count = 0
        self._last_latency: Optional[float] = None

    # -- liveness -----------------------------------------------------------
    def _telemetry(self) -> dict:
        """Throughput fields riding along in each heartbeat (the
        dispatcher's and ``fleet stats``' straggler view)."""
        elapsed = max(time.monotonic() - self._started, 1e-9)
        out: dict = {
            "points_per_min": round(60.0 * self.points_done / elapsed, 4),
            "uptime": round(elapsed, 3),
        }
        if self._latency_count:
            out["mean_latency"] = round(
                self._latency_sum / self._latency_count, 4
            )
            out["last_latency"] = round(self._last_latency, 4)
        claim_started = self._claim_started
        if claim_started is not None:
            out["point_age"] = round(
                max(0.0, time.monotonic() - claim_started), 3
            )
        return out

    def _beat(self) -> None:
        self.dirs.beat(self.worker_id, self._current, self.points_done,
                       telemetry=self._telemetry())

    def _beat_loop(self) -> None:
        while not self._beat_stop.wait(self.heartbeat_interval):
            self._beat()

    # -- fault injection (tests only) ---------------------------------------
    def _fault_action(self, spec_hash: str) -> Optional[str]:
        plan = os.environ.get("REPRO_FLEET_FAULT")
        if not plan or (self.dirs.root / "fault-disarmed").exists():
            return None
        for item in plan.split(","):
            prefix, _, action = item.partition("=")
            if prefix and spec_hash.startswith(prefix):
                return action or "exit"
        return None

    def _inject_fault(self, spec_hash: str) -> None:
        action = self._fault_action(spec_hash)
        if action == "exit":
            os._exit(17)  # a hard crash: no cleanup, no heartbeat
        if action == "hang":
            while not (self.dirs.root / "fault-disarmed").exists():
                time.sleep(0.05)

    # -- the steal loop -----------------------------------------------------
    def _try_claim(self) -> Optional[Dict[str, Any]]:
        now = time.time()
        for task in self.dirs.queued_tasks():
            if task.get("not_before", 0.0) > now:
                continue  # backing off: not eligible yet
            claimed = self.dirs.claim(task["index"], self.worker_id)
            if claimed is None:
                continue
            if claimed.get("not_before", 0.0) > now:
                # a fresher requeue raced our claim: the payload we
                # renamed carries a bumped backoff — honor it.  Hand
                # the task back verbatim (enqueue before releasing the
                # claim, so the point is never owner-less)
                self.dirs.enqueue(claimed)
                self.dirs.release(task["index"], self.worker_id)
                continue
            return claimed
        return None

    def _resolved(self) -> int:
        """Resolved (done + poison) points — the cached monotone
        counter, not a per-poll parse of every record file."""
        return self._resolved_counter.count()

    def _run_task(self, task: Dict[str, Any]) -> None:
        index = task["index"]
        claimed_at = time.monotonic()
        self._current = index
        self._claim_started = claimed_at
        self._beat()
        spec = ScenarioSpec.from_dict(task["spec"])
        self._inject_fault(spec.spec_hash())
        try:
            result = run_cached(spec, self.cache)
        except Exception as exc:  # noqa: BLE001 — requeue, keep stealing
            # a *raising* compute (cache I/O fault, bad spec) is a
            # worker-level failure, not a scenario datum: hand the
            # point back with backoff and let the retry budget decide;
            # the traceback goes to stderr (workers/<wid>.log when
            # the dispatcher spawned this worker)
            traceback.print_exc()
            task["_path"] = str(
                self.dirs.active / f"p{index:06d}.{self.worker_id}.json"
            )
            requeue_task(
                self.dirs, task, max_retries=self.max_retries,
                backoff_base=self.backoff_base,
                reason=f"worker-error: {exc}",
            )
            return
        finally:
            self._current = None
            self._claim_started = None
        # durability order: the cache write (inside run_cached)
        # happened first, the done record second, the claim release
        # last — dying between any two steps is recoverable
        self.dirs.mark_done({
            "index": index, "name": spec.name,
            "spec_hash": result.spec_hash, "worker": self.worker_id,
            "result": result.to_dict(),
        })
        self.dirs.release(index, self.worker_id)
        self.points_done += 1
        # claim-to-done latency feeds the straggler telemetry
        latency = max(0.0, time.monotonic() - claimed_at)
        self._latency_sum += latency
        self._latency_count += 1
        self._last_latency = latency

    def run(self) -> int:
        """Steal until the fleet is resolved; returns points computed."""
        beat = threading.Thread(target=self._beat_loop,
                                name=f"beat-{self.worker_id}", daemon=True)
        self._beat()
        beat.start()
        try:
            while True:
                task = self._try_claim()
                if task is not None:
                    self._run_task(task)
                    continue
                if self.dirs.stopped:
                    break
                if self._resolved() >= self.n_points:
                    break  # fully resolved even without a stop flag
                time.sleep(self.poll_interval)
        finally:
            self._beat_stop.set()
            beat.join(timeout=2 * self.heartbeat_interval + 1.0)
            self._beat()
        return self.points_done
