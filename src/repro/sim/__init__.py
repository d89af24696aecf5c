"""Simulated heterogeneous platform substrate.

This package provides the virtual hardware that stands in for the paper's
testbed (dual-socket Xeon hosts plus Knights Corner coprocessor cards on
PCIe, and an NVIDIA K40x for the CUDA comparison):

``engine``
    A deterministic discrete-event simulation core (virtual clock, events,
    generator-based processes, FIFO resources).
``hardware``
    Device models: core counts, clocks, vector widths, memory, and the
    size-dependent efficiency curves that turn kernel work into time.
``platforms``
    Presets reproducing the paper's Fig. 2 machine-configuration table.
``interconnect``
    A PCIe-like link model with per-direction bandwidth and latency.
``kernels``
    Analytic cost models for the BLAS/LAPACK kernels and the RTM stencil.
``trace``
    Timeline recording for schedules (per-lane Gantt data).
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Process,
    Resource,
    SimError,
    Timeout,
)
from repro.sim.hardware import Device, EfficiencyCurve
from repro.sim.interconnect import Link, LinkPair
from repro.sim.platforms import (
    HSW,
    IVB,
    K40X,
    KNC_7120A,
    Platform,
    make_platform,
)
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Process",
    "Resource",
    "SimError",
    "Timeout",
    "Device",
    "EfficiencyCurve",
    "Link",
    "LinkPair",
    "Platform",
    "make_platform",
    "IVB",
    "HSW",
    "KNC_7120A",
    "K40X",
    "TraceEvent",
    "Tracer",
]
