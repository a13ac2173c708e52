"""Discrete-event simulation kernel (simpy-like, from scratch).

Public surface::

    sim = Simulator()
    def proc():
        yield sim.timeout(1.0)
        ...
    p = sim.process(proc())
    sim.run()

Everything a process may ``yield`` is a :class:`Signal`: timeouts,
mailbox gets, :class:`AnyOf` / :class:`AllOf` composites, and
:class:`Process` itself.
"""

from .events import AllOf, AnyOf, Signal
from .mailbox import Mailbox
from .process import Interrupt, Process
from .rng import RngRegistry, derive_seed
from .simulator import ScheduledCall, Simulator

__all__ = [
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Mailbox",
    "Process",
    "RngRegistry",
    "ScheduledCall",
    "Signal",
    "Simulator",
    "derive_seed",
]
