"""Sweep manifests — the label → result view of a grid, and its one writer.

A manifest is rendered from the per-hash result cache by
:func:`write_manifest`, the only writer: ``scenarios run``/``sweep``
call it before computing and again after, and the fleet dispatcher
after seeding and at finalize.  Fleet manifests — and the manifest of
a sweep re-run over unioned shard caches — are therefore
*byte-identical* to the manifest an unsharded serial sweep writes:
every producer renders the same cache through the same serializer.

A manifest is ``{"label", "scenario", "points": [{"name",
"spec_hash", "result"}, ...]}`` in grid order, dumped with
``indent=1, sort_keys=True`` via the atomic-write primitive.  While
any point is unanswered it lists only the answered ones and adds
``"partial": true``, so a run killed or timed out before its final
write leaves a manifest ``compare`` refuses, never an older complete
one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Sequence

from .runner import ResultCache, atomic_write_text, lookup
from .spec import ScenarioSpec


def sweeps_dir(cache_dir: os.PathLike | str) -> Path:
    """Where a cache directory keeps its sweep manifests."""
    return Path(cache_dir) / "sweeps"


def manifest_path(cache_dir: os.PathLike | str, label: str) -> Path:
    """Where ``label``'s manifest lives under ``cache_dir``."""
    return sweeps_dir(cache_dir) / f"{label}.json"


def dump_manifest(payload: Dict[str, Any], path: Path) -> None:
    """Serialize ``payload`` to ``path`` (atomic, canonical bytes)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True))


def write_manifest(cache: ResultCache, label: str, scenario: str,
                   specs: Sequence[ScenarioSpec]) -> List[int]:
    """Render ``label``'s manifest of ``specs`` from ``cache``.

    One :func:`~repro.scenarios.runner.lookup` per point, in grid
    order; the manifest is ``"partial"`` while any point is
    unanswered.  Returns the unanswered grid indices.
    """
    points, missing = [], []
    for i, spec in enumerate(specs):
        result = lookup(spec, cache)[0]
        if result is None:
            missing.append(i)
        else:
            points.append({"name": spec.name, "spec_hash": result.spec_hash,
                           "result": result.to_dict()})
    payload = {"label": label, "scenario": scenario, "points": points}
    if missing:
        payload["partial"] = True
    dump_manifest(payload, manifest_path(cache.root, label))
    return missing
