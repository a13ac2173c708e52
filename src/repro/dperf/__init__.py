"""dPerf: the performance-prediction environment (paper §III-D).

Pipeline stages (Fig. 6 of the paper):

1. static analysis of C sources (``repro.dperf.minic``);
2. automatic instrumentation (``repro.dperf.instrument``);
3. execution of the instrumented code with virtual hardware counters
   (``repro.dperf.codegen`` compiles the program to Python, run by
   ``repro.dperf.interp`` + ``repro.dperf.papi``);
4. block benchmarking and scale-up (``repro.dperf.blockbench``) priced
   per GCC optimization level (``repro.dperf.gcc`` +
   ``repro.dperf.costmodel``);
5. trace-based network simulation (``repro.simx``) orchestrated by
   :class:`~repro.dperf.predictor.DPerfPredictor`.
"""

from .blockbench import (
    ScaleError,
    ScalePlan,
    block_scale_factor,
    eval_affine,
    materialize,
    scale_entries,
    scale_skeleton,
    split_by_region,
    tile_iterations,
)
from .costmodel import REFERENCE_MACHINE, MachineModel
from .gcc import OPT_LEVELS, GccModel, UnknownOptLevel, parse_level
from .instrument import (
    BlockInfo,
    BlockTable,
    instrument,
    instrumentation_overhead_ns,
    instrumentation_slowdown,
)
from .interp import (
    CArray,
    CompiledProgram,
    InterpError,
    NullComm,
    RankRun,
    run_distributed,
    run_single,
)
from .papi import (
    CATEGORIES,
    UNATTRIBUTED,
    Census,
    CommRecord,
    ComputeGap,
    RegionMark,
    SkeletonRecorder,
)
from .predictor import DPerfPredictor, PredictionResult, predict_many_levels

__all__ = [
    "BlockInfo",
    "BlockTable",
    "CATEGORIES",
    "CArray",
    "Census",
    "CommRecord",
    "CompiledProgram",
    "ComputeGap",
    "DPerfPredictor",
    "GccModel",
    "InterpError",
    "MachineModel",
    "NullComm",
    "OPT_LEVELS",
    "PredictionResult",
    "REFERENCE_MACHINE",
    "RankRun",
    "RegionMark",
    "ScaleError",
    "ScalePlan",
    "SkeletonRecorder",
    "UNATTRIBUTED",
    "UnknownOptLevel",
    "block_scale_factor",
    "eval_affine",
    "instrument",
    "instrumentation_overhead_ns",
    "instrumentation_slowdown",
    "materialize",
    "parse_level",
    "predict_many_levels",
    "run_distributed",
    "run_single",
    "scale_entries",
    "scale_skeleton",
    "split_by_region",
    "tile_iterations",
]
