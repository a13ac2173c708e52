"""The work-stealing dispatcher: points out, liveness in, one manifest.

``FleetDispatcher`` spreads a grid by dynamic stealing: every grid
point is an individually claimable task in a shared fleet directory,
local worker processes are spawned (and respawned) by the dispatcher,
and remote machines join by pointing ``python -m repro.fleet worker``
at the same directory.  A slow worker strands nothing — whatever it
doesn't claim, someone else does; a *dead* worker's claimed points are
detected by heartbeat silence and requeued with exponential backoff; a
point that keeps killing workers is quarantined as poison after its
retry budget and reported, never retried forever.  (Static
``sweep --shard i/N`` slices remain for machines that share no
filesystem; the fleet needs a shared mount.)

The output contract is the sweep's: the dispatcher renders the
label's manifest with the sweep's own writer,
:func:`~repro.scenarios.manifest.write_manifest`, so it is
**byte-identical** to the manifest an unsharded serial sweep of the
same grid produces (pinned by ``tests/test_fleet.py``).  Results
themselves live in the shared
:class:`~repro.scenarios.runner.ResultCache`, one file per spec hash:
workers write the points they compute, and seeding writes the points
it resolves from the in-process memo.  The fleet directory holds
coordination only.

The manifest is written twice.  Seeding writes it, ``"partial":
true`` while any point is uncached, so a fleet that times out or is
killed leaves a manifest ``compare`` refuses, never an older complete
one.  Finalize writes it again: a point the cache still cannot answer
is *poisoned* when it has a quarantine record (the manifest stays
partial) and a :class:`FleetError` otherwise, never a silent
recompute.  A quarantined point the cache can answer (a worker
finished it after all) is simply done.

Re-running a fleet over the same grid *resumes* from the cache: the
fleet directory starts empty, and seeding resolves every point a
previous run finished as cached, so only unfinished points are
enqueued.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..scenarios import manifest as sweep_manifest
from ..scenarios import workloads
from ..scenarios.runner import ResultCache, ScenarioResult, trace_dir
from ..scenarios.spec import ScenarioSpec
from .protocol import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_LIVENESS_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    HEARTBEAT_INTERVAL,
    POLL_INTERVAL,
    FleetDirs,
    requeue_task,
)
from .telemetry import worker_stats as snapshot_worker_stats


class FleetError(RuntimeError):
    """A fleet-level failure (bad config, wall-clock blowout, a done
    point missing from the result cache)."""


@dataclass
class FleetOutcome:
    """What one fleet run produced (the dispatcher's return value)."""

    label: str
    scenario: str
    manifest_path: Optional[Path]
    #: Manifest-shaped entries (grid order, resolved points only).
    points: List[Dict[str, Any]] = field(default_factory=list)
    #: Grid index → poison record for quarantined points the cache
    #: cannot answer.
    poisoned: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: Grid index → times the dispatcher requeued it (dead workers).
    reassignments: Dict[int, int] = field(default_factory=dict)
    #: Final per-worker throughput rows (see
    #: :mod:`repro.fleet.telemetry`): points done, points/min,
    #: claim-to-done latency, straggler flags — the end-of-run
    #: straggler report.
    worker_stats: List[Dict[str, Any]] = field(default_factory=list)
    cached: int = 0
    computed: int = 0
    wall: float = 0.0

    @property
    def complete(self) -> bool:
        return not self.poisoned

    def results(self) -> List[ScenarioResult]:
        return [ScenarioResult.from_dict(p["result"]) for p in self.points]


class FleetDispatcher:
    """Drive one grid to resolution over a worker fleet (module doc).

    Parameters
    ----------
    specs:
        The grid, in manifest order (e.g. ``entry.points()`` or an
        ``expand_grid`` product).
    label / scenario:
        Manifest identity — the same pair a sweep records.
    cache_dir:
        Shared cache root; the fleet directory is created at
        ``<cache_dir>/fleet/<label>``.
    workers:
        Local worker processes to spawn (0 = none; attach remote
        workers by hand).
    liveness_timeout:
        Heartbeat silence (seconds) after which a worker is presumed
        dead and its claims are requeued.
    heartbeat_interval / poll_interval:
        Written to ``grid.json``, so every worker — spawned or
        attached by hand — beats and polls at these rates.
    max_retries / backoff_base:
        Per-point retry budget and exponential backoff base.
    wall_timeout:
        Optional overall ceiling (seconds); exceeding it raises
        :class:`FleetError` after stopping the fleet.
    """

    def __init__(
        self,
        specs: Sequence[ScenarioSpec],
        *,
        label: str,
        scenario: str,
        cache_dir: os.PathLike | str,
        workers: int = 2,
        liveness_timeout: float = DEFAULT_LIVENESS_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        poll_interval: float = POLL_INTERVAL,
        wall_timeout: Optional[float] = None,
        spawn_env: Optional[Dict[str, str]] = None,
    ) -> None:
        if not specs:
            raise FleetError("fleet needs at least one grid point")
        if workers < 0:
            raise FleetError(f"workers must be >= 0, got {workers!r}")
        if not 0 < heartbeat_interval < liveness_timeout:
            raise FleetError("need 0 < heartbeat_interval < "
                             "liveness_timeout")
        if max_retries < 1:
            raise FleetError("max_retries must be >= 1")
        self.specs = list(specs)
        self.label = label
        self.scenario = scenario
        self.cache_dir = Path(cache_dir)
        self.workers = workers
        self.liveness_timeout = liveness_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.heartbeat_interval = heartbeat_interval
        self.poll_interval = poll_interval
        self.wall_timeout = wall_timeout
        self.spawn_env = spawn_env
        self.dirs = FleetDirs(self.cache_dir / "fleet" / label)
        self._procs: Dict[str, subprocess.Popen] = {}
        self._next_worker = 0
        self._respawns = 0
        # enough respawn budget to burn the whole retry budget of one
        # poison point and still keep the fleet staffed
        self.max_respawns = workers + max_retries + 1

    # -- setup --------------------------------------------------------------
    def _prepare_dirs(self) -> None:
        """Start from an empty fleet directory.

        Nothing in it outlives a run: finished points resume from the
        result cache, and re-running a fleet is an explicit request to
        retry even its quarantined points.
        """
        shutil.rmtree(self.dirs.root, ignore_errors=True)
        self.dirs.create()
        self.dirs.write_grid({
            "label": self.label, "scenario": self.scenario,
            "n_points": len(self.specs),
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "heartbeat_interval": self.heartbeat_interval,
            "poll_interval": self.poll_interval,
            "points": [
                {"index": i, "name": s.name, "spec_hash": s.spec_hash()}
                for i, s in enumerate(self.specs)
            ],
        })

    def _seed_from_cache(self, cache: ResultCache) -> int:
        """Write the manifest from the cache; enqueue what it lacks.

        A point already answered by the shared cache (an earlier
        sweep, another fleet, a previous run of this one) never
        reaches a worker — the same cache-first contract
        ``SweepRunner.run`` has; its task file goes straight to
        ``done/``, and a memo hit is written to the cache (see
        :func:`~repro.scenarios.runner.lookup`).  Returns the hits.
        """
        missing = set(sweep_manifest.write_manifest(
            cache, self.label, self.scenario, self.specs))
        for i, spec in enumerate(self.specs):
            task = {"index": i, "name": spec.name,
                    "spec_hash": spec.spec_hash(),
                    "spec": spec.to_dict(), "attempt": 1}
            if i in missing:
                self.dirs.enqueue(task)
            else:
                self.dirs.write_task(self.dirs.done, task)
        return len(self.specs) - len(missing)

    # -- worker processes ---------------------------------------------------
    def _spawn_worker(self) -> None:
        wid = f"w{self._next_worker}"
        self._next_worker += 1
        log = open(self.dirs.workers / f"{wid}.log", "ab")
        env = dict(os.environ if self.spawn_env is None else self.spawn_env)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.fleet", "worker",
             "--fleet-dir", str(self.dirs.root), "--worker-id", wid],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        log.close()  # the child holds its own copy of the fd
        self._procs[wid] = proc

    def _worker_is_dead(self, wid: str, now: float) -> bool:
        """Local process exit is authoritative; otherwise heartbeat
        silence decides (covers remote workers too)."""
        proc = self._procs.get(wid)
        if proc is not None and proc.poll() is not None:
            return True
        beat = self.dirs.heartbeats().get(wid)
        if beat is None:
            # never beat: judge by how long its claim has existed —
            # a worker beats before claiming, so this is a crash
            return proc is None or proc.poll() is not None
        return now - beat["ts"] > self.liveness_timeout

    def _reap(self, reassignments: Dict[int, int]) -> None:
        """Requeue (or poison) every claim owned by a dead worker."""
        now = time.time()
        dead_cache: Dict[str, bool] = {}
        for claim in self.dirs.active_claims():
            wid = claim["worker"]
            if wid not in dead_cache:
                dead_cache[wid] = self._worker_is_dead(wid, now)
            if not dead_cache[wid]:
                continue
            index = claim["index"]
            requeue_task(
                self.dirs, claim, max_retries=self.max_retries,
                backoff_base=self.backoff_base,
                reason=f"worker {wid} died",
            )
            reassignments[index] = reassignments.get(index, 0) + 1

    def _keep_staffed(self, unresolved: int) -> None:
        if unresolved <= 0 or self.workers == 0:
            return
        alive = sum(1 for p in self._procs.values() if p.poll() is None)
        want = min(self.workers, unresolved)
        while alive < want and self._respawns < self.max_respawns:
            self._spawn_worker()
            self._respawns += 1
            alive += 1

    # -- the run ------------------------------------------------------------
    def run(self) -> FleetOutcome:
        started = time.monotonic()
        self._prepare_dirs()
        cache = ResultCache(self.cache_dir)
        cached = self._seed_from_cache(cache)
        reassignments: Dict[int, int] = {}
        unresolved = len(self.specs) - cached
        if unresolved > 0:
            # the dPerf calibration, paid once into the trace cache;
            # no platform builds — fresh worker processes could not
            # inherit them
            workloads.prime_traces(self.specs, trace_dir(cache))
            for _ in range(min(self.workers, unresolved)):
                self._spawn_worker()
        try:
            while True:
                # filename-only progress listing: the supervision loop
                # parses no task file; only `_reap` reads dead claims
                resolved = len(self.dirs.done_indices() |
                               self.dirs.poison_indices())
                if resolved >= len(self.specs):
                    break
                self._reap(reassignments)
                self._keep_staffed(len(self.specs) - resolved)
                if self.wall_timeout is not None and \
                        time.monotonic() - started > self.wall_timeout:
                    raise FleetError(
                        f"fleet {self.label!r} exceeded its "
                        f"{self.wall_timeout}s wall timeout with "
                        f"{len(self.specs) - resolved} "
                        f"points unresolved"
                    )
                time.sleep(self.poll_interval)
        finally:
            self.dirs.signal_stop()
            self._join_workers()
        outcome = self._finalize(cache, reassignments, cached)
        outcome.wall = time.monotonic() - started
        return outcome

    def _join_workers(self) -> None:
        deadline = time.monotonic() + max(5.0, 4 * self.poll_interval)
        for proc in self._procs.values():
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(0.1, remaining))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def _finalize(self, cache: ResultCache, reassignments: Dict[int, int],
                  cached: int) -> FleetOutcome:
        """Rewrite the manifest from the cache and report the run."""
        missing = sweep_manifest.write_manifest(
            cache, self.label, self.scenario, self.specs)
        poison = self.dirs.poison_records()
        for i in missing:
            if i not in poison:
                raise FleetError(
                    f"fleet {self.label!r}: point p{i} "
                    f"{self.specs[i].name!r} is done but has no result "
                    f"in {self.cache_dir}"
                )
        manifest_path = sweep_manifest.manifest_path(self.cache_dir,
                                                     self.label)
        points = json.loads(manifest_path.read_text())["points"]
        return FleetOutcome(
            label=self.label, scenario=self.scenario,
            manifest_path=manifest_path, points=points,
            poisoned={i: poison[i] for i in missing},
            reassignments=reassignments,
            # final heartbeats survive worker exit: the end-of-run
            # throughput/straggler rows ride on the outcome
            worker_stats=[s.to_dict()
                          for s in snapshot_worker_stats(self.dirs)],
            cached=cached,
            # points resolved by workers *this run* (resumed and
            # cache-hit points count as cached, poison as neither)
            computed=max(0, len(points) - cached),
        )
