"""Work-stealing sweep fleet + the results store.

- :mod:`repro.fleet.protocol` — the shared-directory wire: atomic
  rename claims, heartbeats, retry/backoff, poison quarantine.
- :mod:`repro.fleet.worker` — one steal-compute-persist loop.
- :mod:`repro.fleet.dispatcher` — spawns/supervises workers, requeues
  dead workers' points, writes the byte-identical sweep manifest (the
  label's one view of its points) and is the fleet's only writer of
  the store.
- :mod:`repro.fleet.store` — append-only spec-hash → result log
  (``<cache>/store/index.jsonl``) with a persistent offset sidecar,
  behind the serve daemon's store tier.
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
from .store import ResultStore
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
    "ResultStore",
    "WorkerStat",
    "backoff_delay",
    "default_worker_id",
    "fleet_stats",
    "format_stats",
    "requeue_task",
    "worker_stats",
]
