"""``python -m repro.serve`` — start and talk to the query daemon.

Subcommands:

- ``start``: bind the daemon, preload the on-disk answer memo, serve
  until SIGTERM/SIGINT, then drain;
- ``query``: one SLO question, either over the wire (``--address``)
  or priced in-process (``--local``, no daemon needed);
- ``batch``: NDJSON query objects (file or stdin) answered as one
  atomic batch;
- ``stats``: the daemon's counter snapshot.

Query shaping uses the sweep CLI's ``--set path=value`` grammar
(``--set workload.level=O3 --set n_peers=8``), so a grid point from a
sweep and a daemon query are written the same way.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from ..params import parse_scalar_set
from ..scenarios.cli import DEFAULT_CACHE_DIR, _UsageError
from .daemon import DEFAULT_REQUEST_TIMEOUT, DEFAULT_WORKERS, ServeDaemon
from .engine import QueryEngine
from .protocol import PROTOCOL_VERSION, ServeClient
from .query import QuerySpec


def _build_query(args: argparse.Namespace) -> QuerySpec:
    try:
        query = QuerySpec(
            deadline=args.deadline,
            percentile=args.percentile,
            pool=args.pool,
            seed_base=args.seed_base,
        )
        for pair in args.set or []:
            # repro.params owns the --set grammar for every CLI: a
            # value types identically here and in a sweep --set
            path, value = parse_scalar_set(pair)
            query = query.with_override(path, value)
    except (KeyError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    return query


def _print_answer(answer: Dict[str, Any]) -> None:
    print(json.dumps(answer, sort_keys=True, separators=(",", ":")))


def cmd_start(args: argparse.Namespace) -> int:
    engine = QueryEngine(
        cache_dir=None if args.no_cache else args.cache_dir
    )
    preloaded = engine.preload_answers()
    daemon = ServeDaemon(
        engine,
        address=args.address,
        workers=args.workers,
        request_timeout=args.request_timeout,
    ).start()
    print(f"# serving on {daemon.address} "
          f"(protocol {PROTOCOL_VERSION}, {args.workers} workers, "
          f"{preloaded} answers preloaded)", flush=True)
    daemon.serve_forever()
    print("# drained", flush=True)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    query = _build_query(args)
    if args.local:
        engine = QueryEngine(
            cache_dir=None if args.no_cache else args.cache_dir
        )
        _print_answer(engine.answer(query).to_dict())
        return 0
    with ServeClient(args.address, timeout=args.timeout) as client:
        reply = client.request({"op": "query", "query": query.to_dict()})
    if not reply.get("ok"):
        raise _UsageError(
            f"{reply.get('error')}: {reply.get('detail', '')}"
        )
    _print_answer(reply["answer"])
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    stream = sys.stdin if args.queries == "-" else open(args.queries)
    try:
        payloads = [
            json.loads(line) for line in stream if line.strip()
        ]
    except ValueError as exc:
        raise _UsageError(f"bad NDJSON input: {exc}") from None
    finally:
        if stream is not sys.stdin:
            stream.close()
    if not payloads:
        raise _UsageError("no queries in input")
    with ServeClient(args.address, timeout=args.timeout) as client:
        reply = client.request({"op": "batch", "queries": payloads})
    if not reply.get("ok"):
        raise _UsageError(
            f"{reply.get('error')}: {reply.get('detail', '')}"
        )
    for answer in reply["answers"]:
        _print_answer(answer)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    with ServeClient(args.address, timeout=args.timeout) as client:
        reply = client.request({"op": "stats"})
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Prediction-as-a-service: percentile SLO answers "
                    "over a socket.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_client_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--address", default="127.0.0.1:7011",
                       help="daemon address: host:port or a Unix "
                            "socket path (default 127.0.0.1:7011)")
        p.add_argument("--timeout", type=float, default=30.0,
                       help="client-side reply timeout in seconds")

    start = sub.add_parser("start", help="run the daemon until SIGTERM")
    start.add_argument("--address", default="127.0.0.1:7011",
                       help="bind address: host:port (port 0 picks a "
                            "free one) or a Unix socket path")
    start.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"durable cache root, shared with sweeps "
                            f"(default {DEFAULT_CACHE_DIR})")
    start.add_argument("--no-cache", action="store_true",
                       help="memory-only: no disk tiers, no restart "
                            "recovery")
    start.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                       help="worker threads (connections and handlers)")
    start.add_argument("--request-timeout", type=float,
                       default=DEFAULT_REQUEST_TIMEOUT,
                       help="per-request compute timeout in seconds")

    query = sub.add_parser("query", help="ask one SLO question")
    add_client_options(query)
    query.add_argument("--deadline", type=float, required=True,
                       help="SLO deadline T in seconds")
    query.add_argument("--percentile", type=float, default=99.0,
                       help="SLO percentile p (default 99)")
    query.add_argument("--pool", type=int, default=5,
                       help="seed-pool size k (default 5)")
    query.add_argument("--seed-base", type=int, default=2011,
                       help="first pool seed (default 2011)")
    query.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a query field (repeatable; e.g. "
                            "--set workload.level=O3 --set n_peers=8)")
    query.add_argument("--local", action="store_true",
                       help="price in-process instead of over the wire")
    query.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help="durable cache root for --local")
    query.add_argument("--no-cache", action="store_true",
                       help="--local without disk tiers")

    batch = sub.add_parser(
        "batch", help="answer an NDJSON query stream as one batch"
    )
    add_client_options(batch)
    batch.add_argument("queries",
                       help="NDJSON file of query objects ('-' = stdin)")

    stats = sub.add_parser("stats", help="dump the daemon's counters")
    add_client_options(stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "start": cmd_start,
        "query": cmd_query,
        "batch": cmd_batch,
        "stats": cmd_stats,
    }[args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach daemon: {exc}", file=sys.stderr)
        return 2
