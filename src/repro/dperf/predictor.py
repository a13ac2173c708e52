"""The end-to-end dPerf pipeline (paper Fig. 6).

``source → static analysis → instrumentation → execution of the
instrumented code → (scaled) trace files → trace-based network
simulation → t_predicted``

:class:`DPerfPredictor` wires the stages together; every intermediate
artifact (instrumented source, traces) is exposed so experiments can
inspect or persist them, exactly like dPerf's on-disk workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..net import Host, TcpModel
from ..platforms import PlatformSpec
from ..simx import ReplayResult, Trace, replay_traces
from .blockbench import ScalePlan, materialize, scale_skeleton
from .costmodel import REFERENCE_MACHINE, MachineModel
from .gcc import GccModel, parse_level
from .instrument import BlockTable, instrument
from .interp import CompiledProgram, RankRun
from .minic import cast as A
from .minic.parser import parse
from .minic.semantics import check
from .minic.unparser import unparse


@dataclass
class PredictionResult:
    """Outcome of one dPerf prediction."""

    t_predicted: float
    opt_level: str
    platform: str
    nprocs: int
    replay: ReplayResult
    traces: List[Trace] = field(repr=False, default_factory=list)


class DPerfPredictor:
    """Performance prediction for one application source.

    Parameters
    ----------
    source:
        mini-C source text (C with P2PSAP/MPI communication calls).
    entry:
        name of the per-rank entry function.
    machine:
        reference machine model (defaults to the paper's 3 GHz Xeon).
    """

    def __init__(
        self,
        source: str,
        entry: str,
        machine: MachineModel = REFERENCE_MACHINE,
        language: str = "c",
    ) -> None:
        self.source = source
        self.entry = entry
        self.machine = machine
        self.language = language
        # Stage 1: static analysis (parse + checks).
        if language == "c":
            self.program: A.Program = parse(source)
        elif language == "fortran":
            from .minic.fortran import parse_fortran

            self.program = parse_fortran(source)
        else:
            raise ValueError(
                f"unsupported language {language!r} (use 'c' or 'fortran')"
            )
        check(self.program)
        if entry not in self.program.func_names:
            raise ValueError(f"entry function {entry!r} not found in source")
        # Stage 2: automatic instrumentation.
        self.instrumented, self.block_table = instrument(self.program)
        check(self.instrumented)
        self._compiled: Optional[CompiledProgram] = None

    # -- artifacts -----------------------------------------------------------
    @property
    def instrumented_source(self) -> str:
        """The unparsed instrumented program (dPerf's transformed code)."""
        return unparse(self.instrumented)

    # -- stage 3: execution ---------------------------------------------------
    def execute(
        self,
        nprocs: int,
        args: Sequence | Callable[[int], Sequence] = (),
        max_steps: Optional[int] = None,
    ) -> List[RankRun]:
        """Run the instrumented code on ``nprocs`` ranks (calibration).

        The program is compiled on the first call and kept; a step
        limit needs its own counting build, compiled for that call.
        """
        if max_steps is not None:
            compiled = CompiledProgram(self.instrumented, self.block_table,
                                       count_steps=True)
        else:
            if self._compiled is None:
                self._compiled = CompiledProgram(self.instrumented,
                                                 self.block_table)
            compiled = self._compiled
        if nprocs == 1:
            run_args = args(0) if callable(args) else list(args)
            return [compiled.run_single(self.entry, run_args, max_steps)]
        return compiled.run_distributed(self.entry, nprocs, args, max_steps)

    # -- stage 4: trace generation ------------------------------------------------
    def traces_for(
        self,
        runs: Sequence[RankRun],
        opt_level: str | int,
        scale: Optional[ScalePlan] = None,
        app: str = "app",
        extra_meta: Optional[Mapping[str, str]] = None,
    ) -> List[Trace]:
        """Price skeletons at one GCC level, optionally scaled up."""
        level = parse_level(opt_level)
        gcc = GccModel(level)
        traces = []
        for run in runs:
            entries = run.entries
            if scale is not None:
                entries = scale_skeleton(entries, self.block_table, scale)
            events = materialize(entries, self.block_table, self.machine, gcc)
            meta = {"opt_level": level, "entry": self.entry}
            if extra_meta:
                meta.update(extra_meta)
            traces.append(
                Trace(
                    rank=run.rank, nprocs=len(runs), events=events,
                    app=app, meta=meta,
                )
            )
        return traces

    # -- stage 5: trace-based simulation ---------------------------------------------
    def predict(
        self,
        traces: Sequence[Trace],
        platform: PlatformSpec,
        hosts: Optional[Sequence[Host]] = None,
        tcp: TcpModel = TcpModel(),
    ) -> PredictionResult:
        """Replay traces on a platform → ``t_predicted``."""
        replay = replay_traces(
            traces, platform, hosts=hosts, tcp=tcp,
            reference_speed=self.machine.clock_hz,
        )
        return PredictionResult(
            t_predicted=replay.t_predicted,
            opt_level=traces[0].meta.get("opt_level", "?") if traces else "?",
            platform=platform.name,
            nprocs=len(traces),
            replay=replay,
            traces=list(traces),
        )

    # -- convenience: full pipeline ---------------------------------------------------
    def predict_end_to_end(
        self,
        nprocs: int,
        platform: PlatformSpec,
        opt_level: str | int = "O0",
        args: Sequence | Callable[[int], Sequence] = (),
        scale: Optional[ScalePlan] = None,
        hosts: Optional[Sequence[Host]] = None,
        tcp: TcpModel = TcpModel(),
        app: str = "app",
        max_steps: Optional[int] = None,
    ) -> PredictionResult:
        runs = self.execute(nprocs, args, max_steps=max_steps)
        traces = self.traces_for(runs, opt_level, scale=scale, app=app)
        return self.predict(traces, platform, hosts=hosts, tcp=tcp)


def predict_many_levels(
    predictor: DPerfPredictor,
    runs: Sequence[RankRun],
    platform: PlatformSpec,
    levels: Sequence[str | int] = ("O0", "O1", "O2", "O3", "Os"),
    scale: Optional[ScalePlan] = None,
    hosts: Optional[Sequence[Host]] = None,
    tcp: TcpModel = TcpModel(),
    app: str = "app",
) -> Dict[str, PredictionResult]:
    """One calibration execution, predictions at every GCC level —
    the cheap sweep the census representation makes possible."""
    out: Dict[str, PredictionResult] = {}
    for level in levels:
        traces = predictor.traces_for(runs, level, scale=scale, app=app)
        out[parse_level(level)] = predictor.predict(
            traces, platform, hosts=hosts, tcp=tcp
        )
    return out
