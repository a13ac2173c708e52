"""The traced run: spans and counts recorded around public calls.

Nothing here changes the program.  :class:`Tracer` wraps public
functions and methods of the program from the outside, records one
span per call (name, unit id, parent span, start, end), collects the
simulator, network and channel objects each unit creates, and reads
their public counters when the unit ends.  A second pass under
``cProfile`` gives the self-time share of the layers that work inside
simulator callbacks, where no public call boundary exists.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

#: Span names per layer, for the split checks.
DPERF_SPANS = ("dperf.instrument", "dperf.execute", "dperf.traces_for")
SIMX_SPANS = ("simx.replay",)
CACHE_STORE_SPANS = (
    "scenarios.cache_get", "scenarios.cache_put",
    "serve.answer_cache_get", "serve.answer_cache_put",
    "fleet.store_get", "fleet.store_record",
)
#: Layers attributed by the profiler pass, keyed by source package.
PROFILED_LAYERS = ("desim", "net", "p2pdc", "p2psap", "dperf", "simx")

SETUP_UID = -1


class Tracer:
    """Records spans while :attr:`uid` is set (a unit id, or
    :data:`SETUP_UID` during set-up); passes calls through otherwise."""

    def __init__(self) -> None:
        self.uid: Optional[int] = None
        #: (name, uid, parent index or -1, start, end)
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        #: uid → objects the unit created or returned, by kind
        self.objects: Dict[int, Dict[str, List[Any]]] = defaultdict(
            lambda: defaultdict(list))

    # -- recording ----------------------------------------------------------
    def _wrap(self, owner: Any, attr: str, name: Optional[str],
              keep: Optional[str] = None,
              keep_self: bool = False) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` records a span; ``keep`` files the return value (or,
        with ``keep_self``, the instance) under that kind for the unit.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            uid = tracer.uid
            if uid is None:
                return orig(*args, **kwargs)
            idx = -1
            if name is not None:
                idx = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append([name, uid, parent,
                                     time.perf_counter(), 0.0])
                tracer._stack.append(idx)
            try:
                out = orig(*args, **kwargs)
            finally:
                if idx >= 0:
                    tracer._stack.pop()
                    tracer.spans[idx][4] = time.perf_counter()
            if keep is not None:
                tracer.objects[uid][keep].append(
                    args[0] if keep_self else out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        """Wrap the program's public boundaries (see module doc)."""
        from repro import p2pdc
        from repro.desim.simulator import Simulator
        from repro.dperf.predictor import DPerfPredictor
        from repro.fleet.store import ResultStore
        from repro.net import engine as net_engine
        from repro.p2psap.channel import Channel
        from repro.scenarios import platforms, runner
        from repro.serve import engine as serve_engine

        w = self._wrap
        w(runner, "run_scenario", "scenarios.run_scenario")
        w(serve_engine, "run_scenario", "scenarios.run_scenario")
        w(p2pdc, "deploy_overlay", "p2pdc.deploy_overlay", keep="deployment")
        w(net_engine, "progressive_fill", "net.progressive_fill")
        w(DPerfPredictor, "__init__", "dperf.instrument")
        w(DPerfPredictor, "execute", "dperf.execute", keep="rank_runs")
        w(DPerfPredictor, "traces_for", "dperf.traces_for")
        w(DPerfPredictor, "predict", "simx.replay", keep="prediction")
        w(serve_engine.QueryEngine, "answer", "serve.answer")
        w(serve_engine, "compute_answer", "serve.compute_answer")
        w(runner.ResultCache, "get", "scenarios.cache_get")
        w(runner.ResultCache, "put", "scenarios.cache_put")
        w(serve_engine.AnswerCache, "get", "serve.answer_cache_get")
        w(serve_engine.AnswerCache, "put", "serve.answer_cache_put")
        w(ResultStore, "get_result", "fleet.store_get")
        w(ResultStore, "record", "fleet.store_record")
        w(Simulator, "__init__", None, keep="sim", keep_self=True)
        w(net_engine.FluidNetwork, "__init__", None, keep="net",
          keep_self=True)
        w(Channel, "__init__", None, keep="channel", keep_self=True)
        w(platforms, "build_platform", "scenarios.build_platform")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reading ------------------------------------------------------------
    def span_ms(self, unit_factor: float,
                setup_factor: float) -> Dict[int, Dict[str, float]]:
        """uid → span name → probe-scaled milliseconds (inclusive)."""
        out: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for name, uid, _parent, t0, t1 in self.spans:
            f = setup_factor if uid == SETUP_UID else unit_factor
            out[uid][name] += (t1 - t0) * 1e3 * f
        return out

    def span_calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def unit_counts(self, uid: int) -> Dict[str, float]:
        """Public counters of everything unit ``uid`` created."""
        objs = self.objects.get(uid, {})
        deps = objs.get("deployment", [])
        nets = objs.get("net", [])
        return {
            "desim.events": sum(s.event_count for s in objs.get("sim", [])),
            "net.flows": sum(n.transfers_completed for n in nets),
            "net.reshares": sum(n.reshare_count for n in nets),
            "p2pdc.control_messages": sum(
                d.overlay.stats.control_messages for d in deps),
            "p2pdc.reliable_retries": sum(
                d.overlay.stats.counters.get("reliable_retries", 0)
                for d in deps),
            "p2psap.messages_sent": sum(
                c.stats.messages_sent for c in objs.get("channel", [])),
            "dperf.skeleton_entries": sum(
                len(r.entries) for runs in objs.get("rank_runs", [])
                for r in runs),
            "simx.events_replayed": sum(
                p.replay.events_replayed
                for p in objs.get("prediction", [])),
        }

    def release_objects(self, uid: int) -> None:
        """Drop a finished unit's objects once its counts are read,
        so a long traced run does not keep every simulator alive."""
        self.objects.pop(uid, None)

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, uid, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"name": name, "unit": uid,
                                     "parent": parent, "start": t0,
                                     "end": t1}) + "\n")


class LayerProfiler:
    """cProfile enabled only inside unit calls; self time by layer."""

    def __init__(self, src_root: str) -> None:
        self.prof = cProfile.Profile()
        self.prefix = os.path.join(os.path.abspath(src_root), "repro") + os.sep

    def start(self, _rec: Any = None) -> None:
        self.prof.enable()

    def stop(self, _rec: Any = None, _out: Any = None) -> None:
        self.prof.disable()

    def self_shares(self) -> Dict[str, float]:
        """Layer → share of all self time inside unit calls."""
        stats = pstats.Stats(self.prof).stats  # type: ignore[attr-defined]
        per: Dict[str, float] = defaultdict(float)
        total = 0.0
        for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) \
                in stats.items():
            total += tt
            path = os.path.abspath(filename) if filename != "~" else ""
            if path.startswith(self.prefix):
                per[path[len(self.prefix):].split(os.sep, 1)[0]] += tt
        return {layer: (per[layer] / total if total else 0.0)
                for layer in PROFILED_LAYERS}


def unit_share(span_ms: Dict[int, Dict[str, float]], uids: List[int],
               unit_ms: Dict[int, float], names: Tuple[str, ...]) -> float:
    """Share of the units' time covered by spans in ``names`` (none of
    which ever nests inside another, so their times add up)."""
    covered = sum(span_ms.get(u, {}).get(n, 0.0) for u in uids for n in names)
    total = sum(unit_ms[u] for u in uids)
    return covered / total if total else 0.0
