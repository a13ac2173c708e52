"""``ResultStore``: the old results-store names over the result cache.

The per-hash :class:`~repro.scenarios.runner.ResultCache` is the one
result store; no code path of the program calls this class.  It is
kept only while the ``perfbench`` benchmark wraps ``record`` and
``get_result`` and reads the two sidecar counters.  A ``store/``
directory left by an older version is ignored.
"""

from __future__ import annotations

import os
from typing import Optional

from ..scenarios.runner import ResultCache, ScenarioResult
from ..scenarios.spec import ScenarioSpec


class ResultStore:
    """``record``/``get_result`` over the result cache at ``cache_dir``."""

    #: No sidecar is left to rebuild or refresh; always 0.
    sidecar_rebuilds = 0
    sidecar_tail_refreshes = 0

    def __init__(self, cache_dir: os.PathLike | str) -> None:
        self.cache = ResultCache(cache_dir)

    def record(self, spec: ScenarioSpec, result: ScenarioResult,
               label: str, scenario: str) -> bool:
        """Put ``result`` unless ``spec`` is cached; True if it wrote."""
        if self.cache.get(spec) is not None:
            return False
        self.cache.put(spec, result)
        return True

    def get_result(self, spec_hash: str) -> Optional[ScenarioResult]:
        """The cached result under ``spec_hash``, or None."""
        payload = self.cache.load(spec_hash)
        return ScenarioResult.from_dict(payload["result"]) if payload else None
