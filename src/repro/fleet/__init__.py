"""Work-stealing sweep fleet.

- :mod:`repro.fleet.protocol` — the shared-directory wire: atomic
  rename claims, heartbeats, retry/backoff, poison quarantine.
- :mod:`repro.fleet.worker` — one steal-compute-persist loop.
- :mod:`repro.fleet.dispatcher` — spawns/supervises workers, requeues
  dead workers' points and writes the byte-identical sweep manifest
  (the label's one view of its points).  Every result lives in the
  shared per-hash result cache, which sweeps and serve read too.
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
    ResolvedCounter,
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
    "ResolvedCounter",
    "WorkerStat",
    "backoff_delay",
    "default_worker_id",
    "fleet_stats",
    "format_stats",
    "requeue_task",
    "worker_stats",
]
