"""Command-line front end for the sweep fleet.

::

    python -m repro.fleet run churn-grid --workers 4
    python -m repro.fleet run fig10-cluster-o3 \
        --set n_peers=2,4,8 --set seed=2011,2013 --label churn-b
    python -m repro.fleet worker --fleet-dir .scenario-cache/fleet/churn-b
    python -m repro.fleet stats churn-b

``run`` is the dispatcher: it expands the grid with
``repro.scenarios sweep``'s own grid step (same ``--set`` grammar and
usage errors), resolves cache hits in-process, and hands the
remaining points to a work-stealing worker fleet — local processes it
spawns, plus any remote ``worker`` attached to the same fleet
directory over a shared mount.  A ``worker`` takes only the fleet
directory (and an optional id): the cache root, intervals and retry
budget all come from it.  The resulting manifest is byte-identical
to an unsharded serial sweep of the same grid, so
``repro.scenarios compare`` diffs fleet and serial sweeps alike
(``--format html`` adds the fleet's per-worker rows).  ``stats``
prints a live per-worker throughput view of a fleet directory with
stragglers flagged.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..scenarios.cli import (
    DEFAULT_CACHE_DIR,
    _UsageError,
    _check_label,
    _grid_specs,
    _resolve,
)
from ..scenarios.registry import get_scenario
from .dispatcher import FleetDispatcher, FleetError, FleetOutcome
from .protocol import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_LIVENESS_TIMEOUT,
    DEFAULT_MAX_RETRIES,
    FleetDirs,
)
from .telemetry import fleet_stats, format_stats
from .worker import FleetWorker


def _print_outcome(outcome: FleetOutcome) -> None:
    print(f"# fleet {outcome.label!r}: {len(outcome.points)} points "
          f"({outcome.cached} from cache, {outcome.computed} computed) "
          f"in {outcome.wall:.1f}s")
    for stat in outcome.worker_stats:
        print(f"#   {stat['worker']}: {stat['points_done']} points")
    if outcome.reassignments:
        moved = ", ".join(f"p{i} ×{n}" for i, n in
                          sorted(outcome.reassignments.items()))
        print(f"# reassigned after worker death: {moved}")
    if outcome.poisoned:
        for index, record in outcome.poisoned.items():
            print(f"# POISON p{index} {record.get('name', '?')!r}: "
                  f"{record.get('reason', 'retry budget exhausted')}")
        print(f"# manifest is PARTIAL ({len(outcome.poisoned)} poisoned "
              f"points); compare will refuse it until they resolve")
    for stat in outcome.worker_stats:
        if stat.get("straggler"):
            reasons = "; ".join(stat.get("reasons") or ())
            print(f"# STRAGGLER {stat['worker']}: {reasons}")
    if outcome.manifest_path is not None:
        print(f"# sweep manifest: {outcome.manifest_path}")


def cmd_run(args: argparse.Namespace) -> int:
    entry = _resolve(get_scenario, args.name)
    specs = _grid_specs(entry, args.set)
    label = args.label or entry.name
    _check_label(label)
    try:
        dispatcher = FleetDispatcher(
            specs, label=label, scenario=entry.name,
            cache_dir=args.cache_dir, workers=args.workers,
            liveness_timeout=args.liveness_timeout,
            max_retries=args.max_retries,
            backoff_base=args.backoff_base,
            wall_timeout=args.wall_timeout,
        )
        outcome = dispatcher.run()
    except FleetError as exc:
        raise _UsageError(str(exc)) from None
    _print_outcome(outcome)
    return 0 if outcome.complete else 1


def cmd_worker(args: argparse.Namespace) -> int:
    try:
        worker = FleetWorker(args.fleet_dir, worker_id=args.worker_id)
    except (OSError, ValueError, KeyError) as exc:
        raise _UsageError(f"cannot attach to fleet "
                          f"{args.fleet_dir!r}: {exc}") from None
    done = worker.run()
    print(f"# worker {worker.worker_id}: {done} points computed")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    fleet_dir = Path(args.cache_dir) / "fleet" / args.label
    if not fleet_dir.is_dir():
        raise _UsageError(f"no fleet directory for label {args.label!r} "
                          f"under {args.cache_dir!r}")
    print(format_stats(fleet_stats(FleetDirs(fleet_dir))), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.fleet`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Work-stealing sweep fleet over the shared "
                    "result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"shared cache root "
                            f"(default {DEFAULT_CACHE_DIR})")

    run = sub.add_parser(
        "run", help="drive a scenario grid over a work-stealing fleet"
    )
    run.add_argument("name", help="registered scenario name")
    run.add_argument("--set", action="append", metavar="PATH=V1,V2,...",
                     help="grid values for one (dotted) spec field; "
                          "repeatable — same grammar as scenarios sweep")
    run.add_argument("--label", default=None,
                     help="sweep label (default: the scenario name)")
    run.add_argument("--workers", type=int, default=2,
                     help="local worker processes to spawn (default 2; "
                          "0 = remote workers only)")
    run.add_argument("--liveness-timeout", type=float,
                     default=DEFAULT_LIVENESS_TIMEOUT,
                     help="seconds of heartbeat silence before a worker "
                          "is presumed dead and its points requeued")
    run.add_argument("--max-retries", type=int,
                     default=DEFAULT_MAX_RETRIES,
                     help="per-point retry budget before quarantine")
    run.add_argument("--backoff-base", type=float,
                     default=DEFAULT_BACKOFF_BASE,
                     help="exponential requeue backoff base (seconds)")
    run.add_argument("--wall-timeout", type=float, default=None,
                     help="abort the fleet after this many seconds")
    add_cache_dir(run)

    worker = sub.add_parser(
        "worker", help="attach one work-stealing worker to a fleet dir"
    )
    worker.add_argument("--fleet-dir", required=True,
                        help="the fleet coordination directory "
                             "(<cache>/fleet/<label>); the cache root "
                             "is its grandparent, the intervals and "
                             "retry budget come from its grid.json")
    worker.add_argument("--worker-id", default=None,
                        help="stable worker id (default: <host>-<pid>)")

    stats = sub.add_parser(
        "stats", help="per-worker throughput for a fleet directory, "
                      "stragglers flagged"
    )
    stats.add_argument("label", help="fleet label (<cache>/fleet/<label>)")
    add_cache_dir(stats)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "worker": cmd_worker,
        "stats": cmd_stats,
    }[args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
