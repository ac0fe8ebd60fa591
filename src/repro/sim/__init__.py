"""Event-driven simulation kernel.

A deliberately small discrete-event engine in the style of SimPy: processes
are Python generators that yield either an integer number of cycles to wait
or an :class:`~repro.sim.kernel.Event` to park on.  The ARCANE system model
(:mod:`repro.core`) uses it to interleave the host CPU, the eCPU runtime,
the DMA engine and the cache controller with cycle-level ordering.
"""

from repro.sim.kernel import Event, Process, Simulator, SimulationError
from repro.sim.stats import Counter, Histogram, StatsRegistry

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "SimulationError",
    "Counter",
    "Histogram",
    "StatsRegistry",
]
