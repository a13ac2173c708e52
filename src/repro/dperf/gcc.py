"""Empirical model of GCC optimization levels 0/1/2/3/s.

dPerf compiles the instrumented source at each level and measures the
resulting block times (paper §III-D2: "Build the transformed code
using several compiler optimization levels").  Without a real
compiler, we model each level as per-category multipliers over the O0
cost table:

* **O0** — baseline: every named scalar lives in memory, no CSE.
* **O1** — register allocation kills most scalar traffic; basic
  branch/loop cleanup.
* **O2** — adds CSE, strength reduction of address arithmetic, better
  scheduling.
* **O3** — adds vectorization: on *vectorizable* blocks (innermost
  loop bodies with array traffic and no user calls), float and memory
  ops are amortized across SIMD lanes.
* **Os** — optimize for size: O2-like scalar handling, no
  vectorization, slightly worse loop overhead than O2.

The resulting whole-kernel ratios for a stencil mix land near the
classic O0 : O1 : O2 : O3 : Os ≈ 1 : 0.42 : 0.37 : 0.30 : 0.40 —
the shape of the paper's Fig. 9 family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

OPT_LEVELS = ("O0", "O1", "O2", "O3", "Os")

#: Per-category multipliers by level (missing category → "default").
_BASE_FACTORS: Dict[str, Dict[str, float]] = {
    "O0": {"default": 1.0},
    "O1": {
        "default": 1.0,
        "scalar_load": 0.10, "scalar_store": 0.10,   # register allocation
        "addr": 0.40, "int_op": 0.70, "branch": 0.70,  # strength reduction
        "mem_load": 0.90, "mem_store": 0.90,
        "call": 0.80,
        "fp_add": 0.95, "fp_mul": 0.95, "fp_div": 1.0,
    },
    "O2": {
        "default": 1.0,
        "scalar_load": 0.08, "scalar_store": 0.08,
        "addr": 0.35, "int_op": 0.50, "branch": 0.50,  # CSE + strength red.
        "mem_load": 0.85, "mem_store": 0.85,
        "call": 0.60,
        "fp_add": 0.90, "fp_mul": 0.90, "fp_div": 0.95,
    },
    "O3": {
        "default": 1.0,
        "scalar_load": 0.08, "scalar_store": 0.08,
        "addr": 0.30, "int_op": 0.45, "branch": 0.45,
        "mem_load": 0.80, "mem_store": 0.80,
        "call": 0.60,
        "fp_add": 0.85, "fp_mul": 0.85, "fp_div": 0.95,
    },
    "Os": {
        "default": 1.0,
        "scalar_load": 0.10, "scalar_store": 0.10,
        "addr": 0.45, "int_op": 0.60, "branch": 0.60,
        "mem_load": 0.90, "mem_store": 0.90,
        "call": 0.70,
        "fp_add": 0.92, "fp_mul": 0.92, "fp_div": 1.0,
    },
}

#: Extra multiplier applied at O3 to fp/mem categories of blocks the
#: static analysis marked vectorizable.  SSE2 is 2 doubles/lane, but
#: era-typical GCC gets little of that on stencils with fmax/fabs in
#: the inner loop (the obstacle kernel), so the effective gain is mild
#: — consistent with the paper's tight O1/O2/O3 cluster in Fig. 9.
_VECTOR_FACTOR = 0.75

_VECTOR_CATEGORIES = ("fp_add", "fp_mul", "mem_load", "mem_store")


class UnknownOptLevel(ValueError):
    pass


@dataclass(frozen=True)
class GccModel:
    """Factor provider for one optimization level."""

    level: str = "O0"
    vector_factor: float = _VECTOR_FACTOR

    def __post_init__(self) -> None:
        if self.level not in OPT_LEVELS:
            raise UnknownOptLevel(
                f"unknown optimization level {self.level!r}; "
                f"expected one of {OPT_LEVELS}"
            )

    def factors(self, vectorizable: bool = False) -> Mapping[str, float]:
        base = _BASE_FACTORS[self.level]
        if self.level == "O3" and vectorizable:
            out = dict(base)
            for cat in _VECTOR_CATEGORIES:
                out[cat] = out.get(cat, 1.0) * self.vector_factor
            return out
        return base


def parse_level(level: str | int) -> str:
    """Accept ``0``/``"0"``/``"O0"``/``"s"``/``"Os"`` spellings."""
    text = str(level)
    if not text.startswith("O"):
        text = "O" + text
    if text not in OPT_LEVELS:
        raise UnknownOptLevel(f"unknown optimization level {level!r}")
    return text
