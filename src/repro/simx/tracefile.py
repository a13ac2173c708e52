"""Trace file I/O.

One text file per process, mirroring dPerf's on-disk artifacts:

.. code-block:: text

    # dperf-trace v1
    # rank 0
    # nprocs 4
    # app obstacle
    # meta opt_level O3
    compute 1234567
    isend 1 524288 halo-up
    recv 1 halo-down

Comments carry metadata (``# key value``); every other line is an
encoded :class:`~repro.simx.traces.TraceEvent`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Sequence

from .traces import Trace, decode_event

MAGIC = "# dperf-trace v1"


def dump_trace(trace: Trace) -> str:
    """Serialize one trace to the on-disk text format."""
    lines = [MAGIC, f"# rank {trace.rank}", f"# nprocs {trace.nprocs}",
             f"# app {trace.app}"]
    for key, val in sorted(trace.meta.items()):
        lines.append(f"# meta {key} {val}")
    lines.extend(e.encode() for e in trace.events)
    return "\n".join(lines) + "\n"


def load_trace(text: str) -> Trace:
    """Parse a trace file's text back into a :class:`Trace`."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ValueError("not a dperf trace file (missing magic header)")
    rank = nprocs = None
    app = "app"
    meta: dict = {}
    events = []
    # a scaled trace repeats a few hundred distinct lines hundreds of
    # thousands of times; events are frozen, so each line decodes once
    decoded: dict = {}
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(None, 2)
            if not parts:
                continue
            if parts[0] == "rank":
                rank = int(parts[1])
            elif parts[0] == "nprocs":
                nprocs = int(parts[1])
            elif parts[0] == "app":
                app = parts[1]
            elif parts[0] == "meta" and len(parts) == 3:
                key, rest = parts[1], parts[2]
                meta[key] = rest
            continue
        event = decoded.get(line)
        if event is None:
            event = decoded[line] = decode_event(line)
        events.append(event)
    if rank is None or nprocs is None:
        raise ValueError("trace file missing rank/nprocs header")
    return Trace(rank=rank, nprocs=nprocs, events=events, app=app, meta=meta)


def write_trace_files(traces: Sequence[Trace], directory: str | Path) -> List[Path]:
    """Write ``<app>.rank<k>.trace`` files; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for trace in traces:
        path = directory / f"{trace.app}.rank{trace.rank}.trace"
        path.write_text(dump_trace(trace))
        paths.append(path)
    return paths


def read_trace_files(directory: str | Path, app: str) -> List[Trace]:
    """Load all ``<app>.rank*.trace`` files, sorted by rank."""
    directory = Path(directory)
    traces = []
    for name in os.listdir(directory):
        if name.startswith(f"{app}.rank") and name.endswith(".trace"):
            traces.append(load_trace((directory / name).read_text()))
    if not traces:
        raise FileNotFoundError(f"no {app}.rank*.trace files in {directory}")
    traces.sort(key=lambda t: t.rank)
    return traces
