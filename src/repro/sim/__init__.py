"""Discrete-event simulation kernel.

Everything in :mod:`repro` runs on top of this small, deterministic
event-driven simulator.  The design goals are:

* **Determinism** — two runs with the same seed produce bit-identical
  traces.  All randomness flows through named :class:`~repro.sim.rng.RngRegistry`
  streams; wall-clock time never enters the simulation.
* **Transparency** — the scheduler is a timing wheel with an exact
  total order (see :mod:`repro.sim.scheduler`); a
  :class:`~repro.sim.trace.TraceRecorder` can capture every interesting
  transition for tests and debugging.
* **Callback style** — components schedule plain callables.  Periodic
  work (access-point beacons, probe loops) uses
  :meth:`~repro.sim.scheduler.Simulator.schedule_periodic` trains
  (batched on the fast path); :class:`~repro.sim.timers.Timer` covers
  the restartable idle timeouts, re-armed lazily.
"""

from repro.sim.errors import SchedulerError, SimTimeError, SimulationError
from repro.sim.events import Event, PeriodicEvent
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import TraceRecorder
from repro.sim.units import (
    KIBIBYTE,
    MEBIBYTE,
    TU,
    bits_to_bytes,
    bytes_to_bits,
    kbps,
    mbps,
    ms,
    seconds_to_ms,
    seconds_to_us,
    tu,
    us,
)

__all__ = [
    "Event",
    "PeriodicEvent",
    "RngRegistry",
    "SchedulerError",
    "SimTimeError",
    "SimulationError",
    "Simulator",
    "Timer",
    "TraceRecorder",
    "KIBIBYTE",
    "MEBIBYTE",
    "TU",
    "bits_to_bytes",
    "bytes_to_bits",
    "kbps",
    "mbps",
    "ms",
    "seconds_to_ms",
    "seconds_to_us",
    "tu",
    "us",
]
