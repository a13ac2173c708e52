"""The consolidated results store: one index across every sweep.

A sweep manifest records what *one* run did; the result cache holds
content-addressed entries with no notion of history.  The store is
the missing join: an **append-only** ``<cache>/store/index.jsonl``
whose records key every result by spec hash *and* by the label of the
sweep that produced it, across all historical sweeps sharing the
cache.  That turns a pile of cached scenario results into a queryable
asset:

- ``fleet compare A B --html`` renders a regression report between
  any two labels ever recorded, without re-reading their manifests;
- the serve daemon probes the store as an extra resolution tier, so a
  result computed by *any* fleet or backfilled from *any* old
  manifest warms SLO queries;
- ``fleet backfill`` absorbs pre-store sweep manifests, so history
  written before the index existed joins it.

A fleet writes the store from one place only: the dispatcher's
finalize, after its workers have exited.  Workers persist to the
result cache and their ``done/`` records, never to the index.  With
one deduplicating writer per label, a record is never superseded by
a duplicate of itself.

Appends are one ``O_APPEND`` write of one line per record, so
concurrent writers (a ``fleet backfill`` racing a finalize) each land
whole lines on a local filesystem, and readers skip torn trailing
lines, so a reader racing a writer sees a valid prefix.  Records are
deduplicated on ``(label, spec_hash)``: re-running a sweep re-lands
the same results without bloating the index.

**Scale** (millions of records, tens of thousands of points) comes
from two mechanisms layered on the same append-only file:

- **Streaming reads.**  No reader materializes the index; every scan
  is a line-buffered pass tracking byte offsets.
- **The offset sidecar** (``store/index.offsets``): a persistent map
  ``spec_hash → newest byte offset`` plus the per-label key sets,
  stamped with the byte range it *covers*.  ``get_result`` becomes
  one seek + one line read instead of a full scan;
  ``__len__``/``labels`` read the sidecar's key sets.  The sidecar is
  derived data: when it is missing, torn, or covers more bytes than
  the index holds, it is rebuilt from the index; when the index
  merely grew past it, only the tail is scanned.  A lookup whose seek
  lands on a record with the wrong hash (the sidecar describes a
  different index file, e.g. one deleted and re-grown) rebuilds and
  retries — the sidecar can be stale, never wrong.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set

from ..scenarios.runner import ScenarioResult, atomic_write_text
from ..scenarios.spec import ScenarioSpec

#: Persist the sidecar when a refresh had to scan at least this many
#: tail bytes — frequent small appends stay in memory, and whichever
#: reader next folds a grown tail writes the catch-up snapshot.
SIDECAR_PERSIST_MIN_BYTES = 65536


class ResultStore:
    """Append-only cross-sweep result index (see module doc).

    Lives under ``<cache_dir>/store/``; the index file is created
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
        #: label → set of spec hashes (dedup + accounting).
        self._keys: Dict[str, Set[str]] = {}
        #: Byte length of the complete-line prefix the sidecar covers.
        self._covers = 0
        self.appended = 0
        self.skipped = 0
        # sidecar observability (the serve tier surfaces these)
        self.sidecar_rebuilds = 0
        self.sidecar_tail_refreshes = 0
        self.sidecar_persists = 0

    # -- writing ------------------------------------------------------------
    def record(self, spec: ScenarioSpec, result: ScenarioResult,
               label: str, scenario: str) -> bool:
        """Append one result record (dedup'd on label × spec hash).

        Returns True when a record was actually appended.
        """
        return self.record_raw({
            "spec_hash": result.spec_hash,
            "name": spec.name,
            "label": label,
            "scenario": scenario,
            "result": result.to_dict(),
        })

    def record_raw(self, record: Dict[str, Any]) -> bool:
        """Append a pre-shaped record (``backfill`` path); dedup'd.

        Dedup consults the sidecar refreshed to the index's current
        tail, so records landed by *other* processes since this store
        was opened are seen.  Two processes recording the same
        ``(label, spec_hash)`` (a backfill racing a finalize) can
        still both append in the window between refresh and write,
        and stores written by earlier versions hold such duplicates,
        which is why every reader deduplicates again (newest wins).
        """
        self._refresh_sidecar()
        label, spec_hash = record["label"], record["spec_hash"]
        if spec_hash in self._keys.get(label, ()):
            self.skipped += 1
            return False
        payload = dict(record)
        payload.setdefault("ts", time.time())
        line = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
        # one O_APPEND write per record: concurrent writers each land
        # whole lines; interleaving between lines is fine, torn
        # lines (a crash mid-write) are skipped by readers
        fd = os.open(self.index_path,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        # note the key but not an offset: under concurrent appenders
        # our line's offset is unknowable here, so `_covers` stays put
        # and the next refresh folds the tail (our line included)
        self._keys.setdefault(label, set()).add(spec_hash)
        self.appended += 1
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
        """Every index record, in append order (torn lines skipped).

        A streaming pass — nothing is materialized, so iterating a
        millions-of-records index is O(1) in memory.
        """
        for _offset, record in self._scan():
            yield record

    # -- the offset sidecar -------------------------------------------------
    def _index_size(self) -> int:
        try:
            return os.stat(self.index_path).st_size
        except OSError:
            return 0

    def _fold(self, offset: int, record: Dict[str, Any]) -> None:
        self._offsets[record["spec_hash"]] = offset
        self._keys.setdefault(record["label"], set()) \
            .add(record["spec_hash"])

    def _rebuild_sidecar(self) -> None:
        """Full scan → fresh sidecar (missing/torn/overshooting)."""
        self._offsets = {}
        self._keys = {}
        end = [0]
        for offset, record in self._scan(end_box=end):
            self._fold(offset, record)
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
                self._fold(offset, record)
            self._covers = end[0]
            self.sidecar_tail_refreshes += 1
            if self._covers - scanned_from >= SIDECAR_PERSIST_MIN_BYTES:
                self._persist_sidecar()

    def _load_sidecar_file(self, size: int) -> bool:
        """Adopt ``index.offsets`` if it is sound; False otherwise.

        Sidecars written by earlier versions carry a ``generation``
        key (a compaction stamp); it is ignored, like a leftover
        ``store/generation`` file — the covers ≤ size rule and the
        read-back hash check in :meth:`get_result` are the guards."""
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
            keys = {str(label): set(map(str, hashes))
                    for label, hashes in payload["keys"].items()}
        except (KeyError, TypeError, ValueError, AttributeError):
            return False  # torn or foreign: rebuild from the index
        if covers > size or covers < 0:
            return False
        self._offsets = offsets
        self._keys = keys
        self._covers = covers
        return True

    def _persist_sidecar(self) -> None:
        """Atomic snapshot of the in-memory sidecar (derived data:
        concurrent persisters are last-writer-wins, and every snapshot
        is valid for the covers it declares)."""
        atomic_write_text(self.offsets_path, json.dumps({
            "covers": self._covers,
            "offsets": self._offsets,
            "keys": {label: sorted(hashes)
                     for label, hashes in self._keys.items()},
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
    def labels(self) -> Dict[str, int]:
        """Recorded sweep labels → number of indexed points.

        Deduplicated on ``(label, spec_hash)``: duplicate physical
        lines from concurrent writers count once, matching what
        :meth:`sweep_points` would actually return.
        """
        self._refresh_sidecar()
        return {label: len(hashes)
                for label, hashes in sorted(self._keys.items()) if hashes}

    def sweep_points(self, label: str) -> List[Dict[str, Any]]:
        """A label's points in manifest shape (``name`` + ``result``),
        ready for :class:`repro.analysis.compare.SweepData`.

        Deduplicated per spec hash (newest record wins, first-seen
        order kept): a point indexed twice (an older store, or a
        backfill racing a finalize) must not double-weight it in a
        comparison.  This is one streaming pass over the index.
        """
        by_hash: Dict[str, Dict[str, Any]] = {}
        for record in self.entries():
            if record["label"] != label:
                continue
            entry = {"name": record["name"],
                     "spec_hash": record["spec_hash"],
                     "result": record["result"]}
            if record["spec_hash"] in by_hash:
                by_hash[record["spec_hash"]].update(entry)
            else:
                by_hash[record["spec_hash"]] = entry
        return list(by_hash.values())

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
        """Distinct ``(label, spec_hash)`` records (duplicate physical
        lines count once)."""
        self._refresh_sidecar()
        return sum(len(hashes) for hashes in self._keys.values())

    # -- backfill -----------------------------------------------------------
    def backfill(self, sweeps: os.PathLike | str) -> Dict[str, int]:
        """Absorb every complete sweep manifest under ``sweeps``.

        Partial manifests (killed sweeps) and legacy shard manifests
        are skipped — the store indexes *finished* sweeps; rerun
        first.  Returns ``{"manifests", "absorbed",
        "already_indexed", "points", "skipped_manifests"}``:
        ``absorbed`` counts manifests that contributed at least one
        new record, ``already_indexed`` those whose every point was
        already present (a rerun is reported as such, not as fresh
        work), and ``manifests`` is their sum.
        """
        sweeps = Path(sweeps)
        absorbed = already = points = skipped = 0
        if not sweeps.is_dir():
            return {"manifests": 0, "absorbed": 0, "already_indexed": 0,
                    "points": 0, "skipped_manifests": 0}
        for path in sorted(sweeps.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                skipped += 1
                continue
            # sweeps no longer write shard manifests, but cache dirs
            # from before still hold them: each is one slice of a grid
            # filed under the full grid's label, so it stays refused
            if (not isinstance(payload, dict) or "points" not in payload
                    or "label" not in payload or payload.get("partial")
                    or "shard" in payload):
                skipped += 1
                continue
            new_points = 0
            for entry in payload["points"]:
                if self.record_raw({
                    "spec_hash": entry["spec_hash"],
                    "name": entry["name"],
                    "label": payload["label"],
                    "scenario": payload.get("scenario", ""),
                    "result": entry["result"],
                }):
                    new_points += 1
            if new_points:
                absorbed += 1
                points += new_points
            else:
                already += 1
        return {"manifests": absorbed + already, "absorbed": absorbed,
                "already_indexed": already, "points": points,
                "skipped_manifests": skipped}
