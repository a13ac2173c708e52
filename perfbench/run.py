#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-recovery --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The process pins itself to one CPU first; every time
it reports is probe-scaled (see ``harness.py``).

An end-to-end run shares its units with two more processes, each
started as ``run.py ... --part J`` (see ``Workload.parts``).

Maintenance modes: ``--write-definition`` regenerates BENCHMARK.json
from ``definition.py``; ``--pin`` re-pins the default seed's outputs
in ``expected.json`` after a deliberate change of program results.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import mean, median
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where runs leave scratch state and traces (git-ignored).
TMP_DIR = os.path.join(ROOT, ".perfbench-tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
#: Set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

import harness  # noqa: E402  (the benchmark's own modules sit in HERE)
from harness import ProbeClock, Unit, UnitRecord, run_units, scale  # noqa: E402


def pin_cpu() -> Dict[str, Any]:
    """Pin this process (and its children) to the lowest allowed CPU,
    so dPerf's per-rank threads stop migrating.  (On the 2-vCPU VM this
    was built on, the virtual disk's interrupts and the ext4 journal
    thread run on the other CPU.)"""
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[0]
    os.sched_setaffinity(0, {cpu})
    return {"cpu_count": os.cpu_count(), "affinity": allowed, "pinned": cpu}


def commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def import_program(modules) -> None:
    sys.path.insert(0, SRC)
    for name in modules:
        importlib.import_module(name)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")


def child_import_s(workload: str) -> float:
    """Raw import time of a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--import-only",
         "--workload", workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["raw_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_part(args: argparse.Namespace, part: int) -> Dict[str, Any]:
    """Run share ``part`` of the measured units in a fresh process (see
    ``Workload.parts``) and return what it measured."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--part", str(part)]
    if args.corrupt is not None:
        cmd += ["--corrupt", str(args.corrupt)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def corrupting(units, index: int, corrupt):
    """Pass units through, corrupting the output of unit ``index``
    (the self-test's proof that a wrong output is a failed unit)."""
    for i, unit in enumerate(units):
        if i == index:
            unit = Unit(unit.kind, lambda c=unit.call: corrupt(c()),
                        unit.check, unit.info)
        yield unit


class Run:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.clock = ProbeClock()
        #: scale factor of each measured phase, in order, from the mean
        #: and from the median of its probes (see ``ProbeClock.factor``)
        self.factors: List[float] = []
        self.median_factors: List[float] = []

    def say(self, text: str) -> None:
        print(text, flush=True)

    # -- set-up -------------------------------------------------------------
    def setup(self, cls, samples: int, tracer=None) -> Dict[str, Any]:
        """Import, generate inputs, then time ``samples`` set-ups."""
        from spans import SETUP_UID

        args = self.args
        since = self.clock.mark()
        imported = self.clock.time_call(lambda: import_program(cls.imports))
        work_dir = os.path.join(TMP_DIR, f"{cls.name}-{os.getpid()}")
        os.makedirs(work_dir, exist_ok=True)
        self.workload = cls(args.seed, work_dir, pin=args.pin)
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        self.workload.fixture()
        fixture_s = time.perf_counter() - t0

        def prepare() -> None:
            self.workload.reset()
            if tracer is not None:
                tracer.uid = SETUP_UID
            try:
                self.workload.prepare()
            finally:
                if tracer is not None:
                    tracer.uid = None

        raw = [imported + self.clock.time_call(prepare)]
        for _ in range(samples - 1):
            import_s = child_import_s(cls.name)
            raw.append(import_s + self.clock.time_call(prepare))
        gc.collect()
        gc.freeze()
        return {"samples": raw, "fixture_s": fixture_s,
                "factor": self.clock.factor(since)}

    def phase(self, first: int, n: int, on_start=None, on_stop=None):
        """Run units ``first`` to ``first + n - 1``, scaled by the
        probes of this phase."""
        units = self.workload.units(n, first)
        corrupt = self.args.corrupt
        if corrupt is not None and first <= corrupt < first + n:
            units = corrupting(units, corrupt - first, self.workload.corrupt)
        since = self.clock.mark()
        recs = run_units(units, self.clock, on_start, on_stop)
        for rec in recs:
            rec.uid += first
        self.factors.append(self.clock.factor(since))
        self.median_factors.append(self.clock.factor(since, median))
        scale(recs, self.factors[-1])
        return recs

    # -- the two kinds of run -----------------------------------------------
    def part(self, cls) -> Dict[str, Any]:
        """Set up, run this process's share of the units and say what
        it measured (the other processes of an end-to-end run)."""
        self.setup(cls, 1)
        parts = self.workload.parts(self.workload.n_units(self.args.seconds))
        recs = self.phase(*parts[self.args.part])
        return {"raw_s": [r.raw_s for r in recs],
                "errors": [None if r.ok else r.error for r in recs],
                "first": recs[0].uid, "factor": self.factors[-1],
                "median_factor": self.median_factors[-1],
                "probes": self.clock.probes, "rss_mb": peak_rss_mb()}

    def end_to_end(self, cls) -> Dict[str, Any]:
        setup = self.setup(cls, SETUP_SAMPLES)
        n = self.workload.n_units(self.args.seconds)
        # --pin needs every output in this process
        parts = [(0, n)] if self.args.pin else self.workload.parts(n)
        recs = self.phase(*parts[0])
        # the median unit is scaled by the probes of its own process:
        # by their median when units are shorter than a probe (such a
        # unit is rarely preempted, and the median skips the preempted
        # probes), else by their mean (a longer unit has its share of
        # preemptions, as the mean does)
        short = median(r.raw_s for r in recs) < harness.P_REF_S
        key = "median_factor" if short else "factor"
        factor = (self.median_factors if short else self.factors)[-1]
        p50_s = [r.raw_s * factor for r in recs]
        rss = [peak_rss_mb()]
        for j in range(1, len(parts)):
            got = run_part(self.args, j)
            for i, (raw, error) in enumerate(zip(got["raw_s"],
                                                 got["errors"])):
                recs.append(UnitRecord(
                    uid=got["first"] + i, kind=recs[0].kind, raw_s=raw,
                    scaled_s=raw * got["factor"], ok=error is None,
                    error=error or ""))
                p50_s.append(raw * got[key])
            self.clock.probes.extend(got["probes"])
            rss.append(got["rss_mb"])
        self.say(f"# {len(parts)} processes ran "
                 f"{[count for _first, count in parts]} units")
        self.records = recs
        scaled = sorted(r.scaled_s for r in recs)
        setup_s = [s * setup["factor"] for s in setup["samples"]]
        metrics = {
            "setup_s": median(setup_s),
            "units_per_s": sum(r.ok for r in recs) / sum(scaled),
            "unit_p50_ms": median(p50_s) * 1e3,
            "peak_rss_mb": max(rss),
        }
        n, cap = len(recs), self.workload.tail_cap
        k = harness.tail_index(n, cap)
        if k is None:
            self.say(f"# unit_tail_ms omitted: {len(recs)} units are too "
                     f"few for {harness.TAIL_BEYOND} beyond a tail")
        else:
            metrics["unit_tail_ms"] = scaled[k] * 1e3
            self.say(f"# unit_tail_ms is p{harness.tail_percentile(n, cap):.1f}"
                     f" of {n} units ({n - k - 1} beyond it)")
        self.say(f"# set-up samples (probe-scaled s): "
                 + ", ".join(f"{s:.4f}" for s in setup_s))
        return metrics

    def traced(self, cls) -> Dict[str, Any]:
        from spans import (CACHE_STORE_SPANS, DPERF_SPANS, SIMX_SPANS,
                           LayerProfiler, Tracer, unit_share)

        tracer = Tracer()
        setup = self.setup(cls, 1, tracer)
        n = self.workload.n_units(self.args.seconds)
        wl = self.workload

        # the profiler pass goes first: it also pays the first-time costs
        # (template builds, interpreter warm-up) that would otherwise
        # land in the untraced base of bench.trace_overhead
        prof = LayerProfiler(SRC)
        profiled = self.phase(0, max(1, n // 4), prof.start, prof.stop)
        plain = self.phase(0, n)

        totals: Dict[str, float] = {}

        def start(rec) -> None:
            tracer.uid = rec.uid

        def stop(rec, _out) -> None:
            tracer.uid = None
            for key, value in tracer.unit_counts(rec.uid).items():
                totals[key] = totals.get(key, 0.0) + value
            tracer.release_objects(rec.uid)

        wl.stores = []
        traced = self.phase(0, n, start, stop)
        self.records = profiled + plain + traced
        tracer.uninstall()
        tracer.write(os.path.join(
            OUT_DIR, f"{cls.name}-seed{self.args.seed}.spans.jsonl"))

        span_ms = tracer.span_ms(self.factors[-1], setup["factor"])
        uids = [r.uid for r in traced]
        unit_ms = {r.uid: r.scaled_s * 1e3 for r in traced}

        def per_unit(name: str) -> float:
            return sum(span_ms.get(u, {}).get(name, 0.0) for u in uids) / n

        shares = prof.self_shares()
        solver_calls = sum(1 for s in tracer.spans
                           if s[0] == "net.progressive_fill" and s[1] >= 0)
        reshares = totals.get("net.reshares", 0.0)
        m: Dict[str, float] = {k: v / n for k, v in totals.items()}
        m.update({
            "desim.self_share": shares["desim"],
            "net.solver_calls": solver_calls / n,
            "net.solve_cache_hit_ratio": (
                1.0 - solver_calls / reshares if reshares else 0.0),
            "net.solver_ms": per_unit("net.progressive_fill"),
            "net.self_share": shares["net"],
            "p2pdc.deploy_ms": per_unit("p2pdc.deploy_overlay"),
            "p2pdc.self_share": shares["p2pdc"],
            "p2psap.self_share": shares["p2psap"],
            "dperf.instrument_ms": per_unit("dperf.instrument"),
            "dperf.execute_ms": per_unit("dperf.execute"),
            "dperf.traces_for_ms": per_unit("dperf.traces_for"),
            "dperf.setup_ms": sum(span_ms.get(-1, {}).get(s, 0.0)
                                  for s in DPERF_SPANS),
            "dperf.self_share": shares["dperf"],
            "simx.replay_ms": per_unit("simx.replay"),
            "simx.self_share": shares["simx"],
            "scenarios.run_scenario_ms": per_unit("scenarios.run_scenario"),
            "scenarios.build_platform_calls": float(
                tracer.span_calls("scenarios.build_platform")),
            "scenarios.cache_get_ms": per_unit("scenarios.cache_get"),
            "scenarios.cache_put_ms": per_unit("scenarios.cache_put"),
            "serve.compute_answer_ms": per_unit("serve.compute_answer"),
            "serve.answer_cache_get_ms": per_unit("serve.answer_cache_get"),
            "serve.answer_cache_put_ms": per_unit("serve.answer_cache_put"),
            "fleet.store_get_ms": per_unit("fleet.store_get"),
            "fleet.store_record_ms": per_unit("fleet.store_record"),
            "fleet.sidecar_rebuilds": float(sum(
                s.sidecar_rebuilds for s in wl.stores)),
            "fleet.sidecar_tail_refreshes": float(sum(
                s.sidecar_tail_refreshes for s in wl.stores)),
            "split.sim_layers_self_share": sum(
                shares[k] for k in ("desim", "net", "p2pdc", "p2psap")),
            "split.dperf_simx_unit_share": unit_share(
                span_ms, uids, unit_ms, DPERF_SPANS + SIMX_SPANS),
            "split.cache_store_unit_share": unit_share(
                span_ms, uids, unit_ms, CACHE_STORE_SPANS),
            "bench.probe_ms": mean(self.clock.probes) * 1e3,
            "bench.raw_wall_s": sum(r.raw_s for r in plain),
            "bench.unit_raw_p50_ms": median(r.raw_s for r in plain) * 1e3,
            "bench.setup_raw_s": setup["samples"][0],
            "bench.fixture_s": setup["fixture_s"],
            "bench.trace_overhead": (sum(r.raw_s for r in traced)
                                     / sum(r.raw_s for r in plain)),
        })
        for tier in ("memo", "answer_disk", "result_disk", "store",
                     "simulate"):
            ms = [r.scaled_s * 1e3 for r in traced
                  if r.info.get("tier") == tier]
            m[f"serve.tier_p50_ms.{tier}"] = median(ms) if ms else 0.0
            m[f"serve.tier_units.{tier}"] = float(len(ms))
        self.split_verdict(cls.name, m)
        return m

    def split_verdict(self, name: str, m: Dict[str, float]) -> None:
        """Print whether the workload's stated split holds."""
        if name == "sweep-recovery":
            holds = (m["split.sim_layers_self_share"] > 0.5
                     and m["dperf.instrument_ms"] + m["dperf.execute_ms"]
                     + m["dperf.traces_for_ms"] == 0.0
                     and m["dperf.setup_ms"] > 0.0)
            what = ("desim+net+p2pdc+p2psap self share "
                    f"{m['split.sim_layers_self_share']:.3f}; dperf only "
                    f"in set-up ({m['dperf.setup_ms']:.1f} ms)")
        elif name == "predict-cold":
            holds = m["split.dperf_simx_unit_share"] > 0.5
            what = (f"dperf+simx spans cover "
                    f"{m['split.dperf_simx_unit_share']:.3f} of unit time")
        else:
            holds = m["split.cache_store_unit_share"] > 0.5
            what = (f"cache+store spans cover "
                    f"{m['split.cache_store_unit_share']:.3f} of unit time")
        self.say(f"# split {'holds' if holds else 'DOES NOT HOLD'}: {what}")


def parse_args(argv=None) -> argparse.Namespace:
    from cases import DEFAULT_SEED
    from definition import RUN_SECONDS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", type=int, default=None, metavar="UNIT",
                   help="corrupt one unit's output (self-test)")
    p.add_argument("--part", type=int, default=None,
                   help="run one process's share of the units")
    p.add_argument("--import-only", action="store_true",
                   help="time the workload's imports and exit")
    p.add_argument("--pin", action="store_true",
                   help="re-pin the default seed's outputs")
    p.add_argument("--write-definition", action="store_true",
                   help="write BENCHMARK.json and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    from cases import DEFAULT_SEED, EXPECTED_PATH, WORKLOADS
    from definition import UNITS, write_benchmark_json

    args = parse_args(argv)
    if args.write_definition:
        print(write_benchmark_json(ROOT))
        return 0
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    if args.import_only:
        t0 = time.perf_counter()
        import_program(cls.imports)
        print(json.dumps({"raw_s": time.perf_counter() - t0}))
        return 0
    if args.pin and args.seed != DEFAULT_SEED:
        print("--pin needs the default seed", file=sys.stderr)
        return 2

    env = pin_cpu()
    run = Run(args)
    try:
        if args.part is not None:
            print(json.dumps(run.part(cls)), flush=True)
            return 0
        metrics = run.traced(cls) if args.trace else run.end_to_end(cls)
        wl = run.workload
        recs = run.records
    finally:
        shutil.rmtree(os.path.join(TMP_DIR, f"{cls.name}-{os.getpid()}"),
                      ignore_errors=True)
    failed = [r for r in recs if not r.ok]
    for r in failed[:10]:
        run.say(f"# FAILED unit {r.uid}: {r.error}")
    if args.pin:
        with open(EXPECTED_PATH) as fh:
            pinned = json.load(fh)
        pinned[cls.name] = wl.outputs
        with open(EXPECTED_PATH, "w") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=True)
            fh.write("\n")
        run.say(f"# pinned {len(wl.outputs)} outputs of {cls.name}")
    record = {
        "workload": cls.name, "why": cls.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "units": len(recs),
        "commit": commit(), "python": platform.python_version(), **env,
        "probe_ms": mean(run.clock.probes) * 1e3,
        "probe_ms_median": median(run.clock.probes) * 1e3,
        "probe_ms_range": [min(run.clock.probes) * 1e3,
                           max(run.clock.probes) * 1e3],
        "raw_wall_s": sum(r.raw_s for r in recs),
        "raw_unit_p50_ms": median(r.raw_s for r in recs) * 1e3,
        "p_ref_ms": harness.P_REF_S * 1e3,
    }
    run.say("# record " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        run.say(f"{name} = {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
