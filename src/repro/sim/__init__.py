"""Deterministic discrete-event simulation kernel.

This package is the substrate that replaces the paper's physical testbed
(six quad-core machines on switched gigabit Ethernet).  Protocol code runs
unmodified on top of it and exchanges real messages; only *time* is virtual:

* :mod:`repro.sim.kernel` — the event loop (integer-nanosecond clock).
* :mod:`repro.sim.resources` — CPU cores and hardware threads with FIFO
  service and hyper-threading slowdown.
* :mod:`repro.sim.network` — latency + per-NIC bandwidth network model;
  message drop/delay/partition injection plugs into it through the
  filters of :mod:`repro.chaos`.
* :mod:`repro.sim.process` — actor-style stages bound to simulated threads.

Everything is deterministic given the seed passed to the chaos filters;
the kernel itself contains no randomness.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.network import Network, NetworkInterface
from repro.sim.process import Stage
from repro.sim.resources import CostMeter, Machine, SimThread
from repro.sim.timeunits import MICROSECOND, MILLISECOND, NANOSECOND, SECOND, ns_to_seconds, seconds_to_ns

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Network",
    "NetworkInterface",
    "Stage",
    "CostMeter",
    "Machine",
    "SimThread",
    "NANOSECOND",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "ns_to_seconds",
    "seconds_to_ns",
]
