"""Machine cost model: operation census → nanoseconds.

The table expresses *O0 (unoptimized) costs in cycles* on the
reference machine — the paper's Intel Xeon EM64T 3 GHz.  Unoptimized
code keeps every named variable in memory, so scalar traffic is the
dominant term; the GCC model (:mod:`repro.dperf.gcc`) then scales
categories downward per optimization level.

The constants are empirical, chosen so a projected-Richardson cell
update costs ≈150 cycles (≈50 ns) at O0 and ≈45 cycles (≈15 ns) at O3
— the typical 3–3.5× O0→O3 spread for 2-D stencil kernels of the era.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from .papi import Census

#: Cycles per operation at O0 on the reference machine.  O0 keeps every
#: named scalar on the stack, so each scalar touch is a store-forwarded
#: load/store pair — by far the dominant O0 term.
DEFAULT_CYCLE_COSTS: Dict[str, float] = {
    "scalar_load": 8.0,    # stack reload (store-forwarding stall)
    "scalar_store": 8.0,   # stack spill
    "mem_load": 6.0,       # array element: effective L1/L2 mix
    "mem_store": 6.0,
    "addr": 4.0,           # per-index address arithmetic, unfolded at O0
    "fp_add": 3.0,
    "fp_mul": 5.0,
    "fp_div": 22.0,
    "int_op": 2.0,
    "branch": 4.0,
    "call": 20.0,          # call/ret + frame setup
}

#: Cycles per builtin call (libm / libc, O0 call overhead included).
DEFAULT_BUILTIN_COSTS: Dict[str, float] = {
    "fabs": 4.0,
    "sqrt": 30.0,
    "exp": 70.0,
    "log": 70.0,
    "pow": 100.0,
    "fmax": 6.0,
    "fmin": 6.0,
    "floor": 8.0,
    "ceil": 8.0,
    "abs": 3.0,
    "printf": 1200.0,
}


@dataclass(frozen=True)
class MachineModel:
    """Reference machine: clock + per-category cycle costs."""

    clock_hz: float = 3.0e9  # Xeon EM64T 3 GHz (paper §IV-A3)
    cycle_costs: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CYCLE_COSTS)
    )
    builtin_costs: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BUILTIN_COSTS)
    )

    @property
    def ns_per_cycle(self) -> float:
        return 1e9 / self.clock_hz

    def cycles_for(self, category: str) -> float:
        if category.startswith("builtin:"):
            name = category.split(":", 1)[1]
            return self.builtin_costs.get(name, 50.0)
        cost = self.cycle_costs.get(category)
        if cost is None:
            raise KeyError(f"unknown op category {category!r}")
        return cost

    def census_ns(
        self, census: Census, factors: Mapping[str, float] | None = None
    ) -> float:
        """Nanoseconds for a census, with optional per-category factors
        (supplied by the GCC optimization model)."""
        total_cycles = 0.0
        for category, count in census.items():
            f = 1.0 if factors is None else factors.get(
                category, factors.get("default", 1.0)
            )
            total_cycles += count * self.cycles_for(category) * f
        return total_cycles * self.ns_per_cycle


#: The calibrated reference machine used throughout the experiments.
REFERENCE_MACHINE = MachineModel()
