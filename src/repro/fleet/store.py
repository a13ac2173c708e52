"""The results store: an append-only spec-hash → result log.

A sweep manifest (``<cache>/sweeps/<label>.json``) is the one view of
which points a label holds; the result cache holds one file per spec.
The store is a single append-only ``<cache>/store/index.jsonl`` of
result lines keyed by spec hash, which the serve daemon probes as an
extra resolution tier: a result any fleet computed warms SLO queries
without a per-spec cache file.

A fleet writes the store from one place only: the dispatcher's
finalize, after its workers have exited.  Workers persist to the
result cache and their ``done/`` records, never to the log.  Each
line also carries the ``label`` and ``scenario`` that produced it,
as provenance only; nothing reads them back.

Appends are one ``O_APPEND`` write of one line per record, so
concurrent writers each land whole lines on a local filesystem, and
readers skip torn trailing lines, so a reader racing a writer sees a
valid prefix.  Records are deduplicated on the spec hash: a hash
already in the log appends nothing, whichever label records it.

**Scale** (millions of records) comes from two mechanisms layered on
the same append-only file:

- **Streaming reads.**  No reader materializes the log; every scan is
  a line-buffered pass tracking byte offsets.
- **The offset sidecar** (``store/index.offsets``): a persistent map
  ``spec_hash → newest byte offset``, stamped with the byte range it
  *covers*.  ``get_result`` becomes one seek + one line read instead
  of a full scan.  The sidecar is derived data: when it is missing,
  torn, or covers more bytes than the log holds, it is rebuilt from
  the log; when the log merely grew past it, only the tail is
  scanned.  A lookup whose seek lands on a record with the wrong hash
  (the sidecar describes a different log file, e.g. one deleted and
  re-grown) rebuilds and retries — the sidecar can be stale, never
  wrong.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from ..scenarios.runner import ScenarioResult, atomic_write_text
from ..scenarios.spec import ScenarioSpec

#: Persist the sidecar when a refresh had to scan at least this many
#: tail bytes — frequent small appends stay in memory, and whichever
#: reader next folds a grown tail writes the catch-up snapshot.
SIDECAR_PERSIST_MIN_BYTES = 65536


class ResultStore:
    """Append-only spec-hash → result log (see module doc).

    Lives under ``<cache_dir>/store/``; the log file is created
    lazily on first append, so opening a store for reading never
    mutates the cache directory tree beyond its own folder.  Opening
    is cheap — the sidecar (or, failing that, a full scan) is loaded
    lazily on the first read or append, not in ``__init__``.
    """

    def __init__(self, cache_dir: os.PathLike | str) -> None:
        self.root = Path(cache_dir) / "store"
        self.root.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.jsonl"
        self.offsets_path = self.root / "index.offsets"
        #: spec_hash → byte offset of its newest record (sidecar core).
        self._offsets: Optional[Dict[str, int]] = None
        #: Byte length of the complete-line prefix the sidecar covers.
        self._covers = 0
        # sidecar observability (the serve tier surfaces these)
        self.sidecar_rebuilds = 0
        self.sidecar_tail_refreshes = 0
        self.sidecar_persists = 0

    # -- writing ------------------------------------------------------------
    def record(self, spec: ScenarioSpec, result: ScenarioResult,
               label: str, scenario: str) -> bool:
        """Append one result line unless its spec hash is logged.

        ``label`` and ``scenario`` ride on the line as provenance.
        Returns True when a line was actually appended.

        Dedup consults the sidecar refreshed to the log's current
        tail, so lines landed by *other* processes since this store
        was opened are seen.  Two processes recording the same hash
        can still both append in the window between refresh and
        write; the sidecar then keeps the newest line's offset and
        ``__len__`` counts the hash once.
        """
        self._refresh_sidecar()
        if result.spec_hash in self._offsets:
            return False
        line = json.dumps({
            "spec_hash": result.spec_hash,
            "name": spec.name,
            "label": label,
            "scenario": scenario,
            "result": result.to_dict(),
            "ts": time.time(),
        }, sort_keys=True, separators=(",", ":")) + "\n"
        # one O_APPEND write per record: concurrent writers each land
        # whole lines; interleaving between lines is fine, torn
        # lines (a crash mid-write) are skipped by readers.  Our
        # line's offset is unknowable here under concurrent
        # appenders, so the next refresh folds it from the tail.
        fd = os.open(self.index_path,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        return True

    # -- streaming scans ----------------------------------------------------
    def _scan(self, start: int = 0,
              end_box: Optional[List[int]] = None):
        """Yield ``(offset, record)`` for each complete, parseable
        line from byte ``start``.  ``end_box[0]`` (when given) tracks
        the byte length of the complete-line prefix consumed — a torn
        or in-progress trailing line is left for the next scan."""
        if end_box is not None:
            end_box[0] = start
        try:
            fh = open(self.index_path, "rb")
        except FileNotFoundError:
            return
        with fh:
            fh.seek(start)
            offset = start
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break  # torn trailing line: a writer mid-write
                stripped = raw.strip()
                if stripped:
                    try:
                        record = json.loads(stripped)
                    except ValueError:
                        record = None  # torn interior line: skip it
                    if isinstance(record, dict) and "spec_hash" in record:
                        yield offset, record
                offset += len(raw)
                if end_box is not None:
                    end_box[0] = offset

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Every logged record, in append order (torn lines skipped).

        A streaming pass — nothing is materialized, so iterating a
        millions-of-records log is O(1) in memory.
        """
        for _offset, record in self._scan():
            yield record

    # -- the offset sidecar -------------------------------------------------
    def _index_size(self) -> int:
        try:
            return os.stat(self.index_path).st_size
        except OSError:
            return 0

    def _rebuild_sidecar(self) -> None:
        """Full scan → fresh sidecar (missing/torn/overshooting)."""
        self._offsets = {}
        end = [0]
        for offset, record in self._scan(end_box=end):
            self._offsets[record["spec_hash"]] = offset
        self._covers = end[0]
        self.sidecar_rebuilds += 1
        self._persist_sidecar()

    def _refresh_sidecar(self) -> None:
        """Bring the in-memory sidecar up to the index's current tail.

        Resolution order: a warm in-memory sidecar only scans the grown
        tail; a cold instance adopts the on-disk sidecar when it covers
        no more than the index holds; anything else — missing, torn,
        or covering bytes the index no longer has — triggers a full
        rebuild.
        """
        size = self._index_size()
        if (self._offsets is None and not self._load_sidecar_file(size)) \
                or size < self._covers:
            self._rebuild_sidecar()
            return
        if size > self._covers:
            scanned_from = self._covers
            end = [self._covers]
            for offset, record in self._scan(self._covers, end_box=end):
                self._offsets[record["spec_hash"]] = offset
            self._covers = end[0]
            self.sidecar_tail_refreshes += 1
            if self._covers - scanned_from >= SIDECAR_PERSIST_MIN_BYTES:
                self._persist_sidecar()

    def _load_sidecar_file(self, size: int) -> bool:
        """Adopt ``index.offsets`` if it is sound; False otherwise.

        Sidecars written by earlier versions carry a ``generation``
        key (a compaction stamp) and ``keys`` (per-label hash sets);
        both are ignored, like a leftover ``store/generation`` file —
        the covers ≤ size rule and the read-back hash check in
        :meth:`get_result` are the guards."""
        try:
            payload = json.loads(self.offsets_path.read_text())
        except (OSError, ValueError):
            return False
        if not isinstance(payload, dict):
            return False
        try:
            covers = int(payload["covers"])
            offsets = {str(k): int(v)
                       for k, v in payload["offsets"].items()}
        except (KeyError, TypeError, ValueError, AttributeError):
            return False  # torn or foreign: rebuild from the index
        if covers > size or covers < 0:
            return False
        self._offsets = offsets
        self._covers = covers
        return True

    def _persist_sidecar(self) -> None:
        """Atomic snapshot of the in-memory sidecar (derived data:
        concurrent persisters are last-writer-wins, and every snapshot
        is valid for the covers it declares)."""
        atomic_write_text(self.offsets_path, json.dumps({
            "covers": self._covers,
            "offsets": self._offsets,
        }, sort_keys=True, separators=(",", ":")))
        self.sidecar_persists += 1

    def _read_record_at(self, offset: int) -> Optional[Dict[str, Any]]:
        try:
            with open(self.index_path, "rb") as fh:
                fh.seek(offset)
                raw = fh.readline()
        except OSError:
            return None
        if not raw.endswith(b"\n"):
            return None
        try:
            record = json.loads(raw)
        except ValueError:
            return None
        return record if isinstance(record, dict) else None

    # -- reading ------------------------------------------------------------
    def get_result(self, spec_hash: str) -> Optional[ScenarioResult]:
        """Newest indexed result for ``spec_hash``, or None.

        One sidecar probe + one seek + one line read — never a full
        scan on the hot path (the serve tier calls this per store-tier
        probe).  A record read back with the wrong hash means the
        sidecar describes a different index file (deleted and
        re-grown); rebuild once and retry.

        Content-addressed trust: the hash covers the full spec payload
        (schema version included), so serving an indexed result is
        exactly as safe as serving a per-spec cache file.
        """
        self._refresh_sidecar()
        for _attempt in range(2):
            offset = self._offsets.get(spec_hash)
            if offset is None:
                return None
            record = self._read_record_at(offset)
            if record is not None and \
                    record.get("spec_hash") == spec_hash:
                return ScenarioResult.from_dict(record["result"])
            # stale offset (the sidecar describes another index
            # file): rebuild from the current one and retry once
            self._rebuild_sidecar()
        return None

    def __len__(self) -> int:
        """Distinct spec hashes logged (duplicate physical lines count
        once)."""
        self._refresh_sidecar()
        return len(self._offsets)
