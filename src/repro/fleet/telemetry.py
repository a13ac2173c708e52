"""Per-worker throughput telemetry: stragglers observable, not inferred.

A work-stealing fleet already *tolerates* a slow machine — it simply
claims fewer points — but tolerating is not seeing: on a shared mount
the only symptom of a host quietly running at half speed is a wall
clock nobody can decompose.  Workers therefore publish throughput
alongside liveness in their heartbeat files (points/min, claim-to-done
latency, the age of the point currently in flight), and this module
turns a fleet directory's heartbeats into one ranked view:

- ``python -m repro.fleet stats <label>`` while the fleet runs;
- the dispatcher's end-of-run outcome (``FleetOutcome.worker_stats``);
- the stragglers section of the HTML report
  (``scenarios compare --format html``).

A worker is flagged a **straggler** when its throughput falls below
``STRAGGLER_RATIO`` × the fleet median (only judged across ≥2 workers
with completed points), or when its current point has been in flight
longer than ``STALL_FACTOR`` × its own mean claim-to-done latency —
the "wedged but heartbeating" shape the SIGKILL harness simulates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .protocol import FleetDirs

#: A worker slower than this fraction of the fleet-median points/min
#: is flagged a straggler (rate rule).
STRAGGLER_RATIO = 0.5

#: A point in flight longer than this multiple of the worker's mean
#: claim-to-done latency flags the worker stalled (stall rule).
STALL_FACTOR = 3.0


@dataclass
class WorkerStat:
    """One worker's derived throughput row."""

    worker: str
    points_done: int = 0
    points_per_min: Optional[float] = None
    mean_latency: Optional[float] = None
    last_latency: Optional[float] = None
    point: Optional[int] = None
    point_age: Optional[float] = None
    beat_age: Optional[float] = None
    straggler: bool = False
    reasons: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker, "points_done": self.points_done,
            "points_per_min": self.points_per_min,
            "mean_latency": self.mean_latency,
            "last_latency": self.last_latency,
            "point": self.point, "point_age": self.point_age,
            "beat_age": self.beat_age, "straggler": self.straggler,
            "reasons": list(self.reasons),
        }


@dataclass
class FleetStats:
    """A fleet directory's progress + per-worker throughput snapshot."""

    label: str
    n_points: Optional[int]
    done: int
    poisoned: int
    queued: int
    active: int
    workers: List[WorkerStat] = field(default_factory=list)

    @property
    def stragglers(self) -> List[WorkerStat]:
        return [w for w in self.workers if w.straggler]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label, "n_points": self.n_points,
            "done": self.done, "poisoned": self.poisoned,
            "queued": self.queued, "active": self.active,
            "workers": [w.to_dict() for w in self.workers],
        }


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def flag_stragglers(workers: List[WorkerStat]) -> None:
    """Apply the rate and stall rules in place (see module doc)."""
    rates = [w.points_per_min for w in workers
             if w.points_done > 0 and w.points_per_min is not None]
    median = _median(rates) if len(rates) >= 2 else None
    for stat in workers:
        stat.straggler = False
        stat.reasons = []
        if (median is not None and median > 0
                and stat.points_per_min is not None
                and stat.points_done > 0
                and stat.points_per_min < STRAGGLER_RATIO * median):
            stat.straggler = True
            stat.reasons.append(
                f"{stat.points_per_min:.2f} pt/min < "
                f"{STRAGGLER_RATIO:g}x fleet median ({median:.2f})"
            )
        if (stat.point is not None and stat.point_age is not None
                and stat.mean_latency is not None
                and stat.mean_latency > 0
                and stat.point_age > STALL_FACTOR * stat.mean_latency):
            stat.straggler = True
            stat.reasons.append(
                f"p{stat.point} in flight {stat.point_age:.1f}s > "
                f"{STALL_FACTOR:g}x its {stat.mean_latency:.1f}s mean"
            )


def worker_stats(dirs: FleetDirs,
                 now: Optional[float] = None) -> List[WorkerStat]:
    """Derived per-worker rows from a fleet dir's heartbeat files."""
    now = time.time() if now is None else now
    out: List[WorkerStat] = []
    for worker, beat in sorted(dirs.heartbeats().items()):
        stat = WorkerStat(
            worker=worker,
            points_done=int(beat.get("points_done", 0)),
            points_per_min=beat.get("points_per_min"),
            mean_latency=beat.get("mean_latency"),
            last_latency=beat.get("last_latency"),
            point=beat.get("point"),
            point_age=beat.get("point_age"),
        )
        ts = beat.get("ts")
        if isinstance(ts, (int, float)):
            stat.beat_age = max(0.0, now - ts)
        out.append(stat)
    flag_stragglers(out)
    return out


def fleet_stats(dirs: FleetDirs,
                now: Optional[float] = None) -> FleetStats:
    """One progress + throughput snapshot of a fleet directory."""
    try:
        grid = dirs.read_grid()
        label = grid.get("label", dirs.root.name)
        n_points = grid.get("n_points")
    except (OSError, ValueError):
        label, n_points = dirs.root.name, None
    return FleetStats(
        label=label, n_points=n_points,
        done=len(dirs.done_indices()),
        poisoned=len(dirs.poison_indices()),
        queued=len(list(dirs.queue.glob("p*.json"))),
        active=len(list(dirs.active.glob("p*.json"))),
        workers=worker_stats(dirs, now),
    )


def _cell(value: Optional[float], fmt: str = "{:.2f}") -> str:
    if value is None:
        return "—"
    return fmt.format(value)


def format_stats(stats: FleetStats) -> str:
    """The ``fleet stats`` text view: one row per worker, stragglers
    flagged with the rule that tripped."""
    total = "?" if stats.n_points is None else str(stats.n_points)
    lines = [
        f"# fleet {stats.label!r}: {stats.done}/{total} done, "
        f"{stats.poisoned} poisoned, {stats.queued} queued, "
        f"{stats.active} in flight",
    ]
    if not stats.workers:
        lines.append("# no worker heartbeats yet")
        return "\n".join(lines) + "\n"
    header = (f"{'worker':<16} {'done':>5} {'pt/min':>7} "
              f"{'mean s':>7} {'last s':>7} {'point':>7} "
              f"{'age s':>6} {'beat s':>6}  flags")
    lines.append(header)
    for w in stats.workers:
        point = "—" if w.point is None else f"p{w.point}"
        flags = "STRAGGLER: " + "; ".join(w.reasons) if w.straggler \
            else ""
        lines.append(
            f"{w.worker:<16} {w.points_done:>5} "
            f"{_cell(w.points_per_min):>7} "
            f"{_cell(w.mean_latency):>7} {_cell(w.last_latency):>7} "
            f"{point:>7} {_cell(w.point_age, '{:.1f}'):>6} "
            f"{_cell(w.beat_age, '{:.1f}'):>6}  {flags}"
        )
    n = len(stats.stragglers)
    if n:
        lines.append(f"# {n} straggler{'s' if n != 1 else ''} flagged "
                     f"(rate < {STRAGGLER_RATIO:g}x median, or point "
                     f"stalled > {STALL_FACTOR:g}x mean latency)")
    return "\n".join(lines) + "\n"
