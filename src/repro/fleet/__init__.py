"""Work-stealing sweep fleet.

- :mod:`repro.fleet.protocol` — the shared-directory wire: atomic
  rename claims and finishes, heartbeats, retry/backoff, poison
  quarantine.  The fleet directory holds coordination only.
- :mod:`repro.fleet.worker` — one steal-compute-persist loop,
  configured by the fleet directory alone.
- :mod:`repro.fleet.dispatcher` — spawns/supervises workers, requeues
  dead workers' points and writes the byte-identical sweep manifest
  (the label's one view of its points) from the result cache.  Every
  result lives in that shared per-hash cache, which sweeps and serve
  read too.
- :mod:`repro.fleet.store` — ``ResultStore``, old names over that
  cache, kept only for the ``perfbench`` benchmark.
- :mod:`repro.fleet.telemetry` — per-worker throughput rows and
  straggler flagging behind ``fleet stats`` and the "Fleet workers"
  section of ``scenarios compare --format html``.
"""

from .dispatcher import FleetDispatcher, FleetError, FleetOutcome
from .protocol import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_LIVENESS_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    FleetDirs,
    backoff_delay,
    requeue_task,
)
from .telemetry import (
    FleetStats,
    WorkerStat,
    fleet_stats,
    format_stats,
    worker_stats,
)
from .worker import FleetWorker, default_worker_id

__all__ = [
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_LIVENESS_TIMEOUT",
    "DEFAULT_MAX_RETRIES",
    "FleetDirs",
    "FleetDispatcher",
    "FleetError",
    "FleetOutcome",
    "FleetStats",
    "FleetWorker",
    "WorkerStat",
    "backoff_delay",
    "default_worker_id",
    "fleet_stats",
    "format_stats",
    "requeue_task",
    "worker_stats",
]
