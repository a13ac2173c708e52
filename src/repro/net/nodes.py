"""Network endpoints and interior elements.

Hosts carry a compute speed (flop/s) used by the replay engine to turn
"compute N flops" trace records into simulated durations; routers and
DSLAMs are pure forwarding elements.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(eq=False)
class NetNode:
    name: str

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


@dataclass(eq=False, repr=False)
class Host(NetNode):
    """A compute endpoint.

    ``speed`` is in flop/s.  The paper's nodes are Intel Xeon EM64T
    3 GHz; the calibrated default lives in
    :data:`repro.platforms.cluster.DEFAULT_NODE_SPEED`, not here.
    """

    speed: float = 3e9

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"host {self.name!r}: speed must be > 0")

    def compute_time(self, flops: float) -> float:
        """Seconds to execute ``flops`` floating-point operations."""
        if flops < 0:
            raise ValueError("negative flops")
        return flops / self.speed


@dataclass(eq=False, repr=False)
class Router(NetNode):
    """Interior forwarding element (no compute)."""


@dataclass(eq=False, repr=False)
class Dslam(Router):
    """Digital Subscriber Line Access Multiplexer (Stage-2A, Fig. 8)."""
