"""Device models for the simulated heterogeneous platform.

A :class:`Device` captures the architectural parameters the paper's Fig. 2
tabulates (sockets, cores, threads, SIMD width, FMA, clock, memories) and
turns them into *achievable* kernel rates through per-kernel
:class:`EfficiencyCurve` objects.

The curves follow the standard saturating form used in roofline-style
models::

    eff(size) = eff_min + (eff_max - eff_min) * size / (size + half_size)

so small problems run far below peak (launch/fork-join latency, low
occupancy) and large problems approach the measured asymptote. Asymptotes
are calibrated to the single-device rates reported in the paper (e.g. KNC
DGEMM 982 GFl/s, HSW 902, IVB 475), so all multi-device results *emerge*
from the simulated schedule rather than being dialed in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

__all__ = ["EfficiencyCurve", "Device"]


@dataclass(frozen=True)
class EfficiencyCurve:
    """Size-dependent fraction of peak a kernel achieves on a device.

    ``size`` is a kernel-specific characteristic dimension (e.g. the
    smallest GEMM dimension, or the matrix order for a factorization).
    """

    eff_max: float
    half_size: float
    eff_min: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.eff_min <= self.eff_max <= 1.0):
            raise ValueError(
                f"need 0 <= eff_min <= eff_max <= 1, got "
                f"({self.eff_min}, {self.eff_max})"
            )
        if self.half_size < 0:
            raise ValueError(f"half_size must be >= 0, got {self.half_size}")

    def __call__(self, size: float) -> float:
        """Efficiency in (0, 1] at characteristic ``size``."""
        if size <= 0:
            return max(self.eff_min, 1e-6)
        sat = size / (size + self.half_size) if self.half_size > 0 else 1.0
        return max(self.eff_min + (self.eff_max - self.eff_min) * sat, 1e-6)


@dataclass(frozen=True)
class Device:
    """A computing domain's hardware: one host socket-pair, card, or GPU."""

    name: str
    kind: str  # "xeon" | "knc" | "gpu"
    sockets: int
    cores_per_socket: int
    threads_per_core: int
    clock_ghz: float
    dp_flops_per_cycle: float  # per core, incl. SIMD width and FMA
    sp_flops_per_cycle: float
    ram_gb: float
    mem_bw_gbs: float  # achievable STREAM-like bandwidth
    # Per-task threading overhead (seconds): OpenMP fork/join across the
    # device's threads. Dominant for tiny tasks, negligible for big tiles.
    fork_join_s: float = 5e-6
    # Achievable fraction of peak per kernel class.
    kernel_eff: Dict[str, EfficiencyCurve] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ValueError(f"{self.name}: invalid socket/core counts")
        if self.clock_ghz <= 0:
            raise ValueError(f"{self.name}: invalid clock {self.clock_ghz}")

    # -- capacity ------------------------------------------------------------

    @property
    def total_cores(self) -> int:
        """All physical cores across sockets."""
        return self.sockets * self.cores_per_socket

    @property
    def total_threads(self) -> int:
        """All hardware threads across sockets."""
        return self.total_cores * self.threads_per_core

    @property
    def peak_dp_gflops(self) -> float:
        """Architectural double-precision peak for the whole device."""
        return self.total_cores * self.clock_ghz * self.dp_flops_per_cycle

    # -- achievable rates ----------------------------------------------------

    def efficiency(self, kernel: str, size: float) -> float:
        """Fraction of peak that ``kernel`` achieves at ``size``."""
        curve = self.kernel_eff.get(kernel)
        if curve is None:
            curve = self.kernel_eff.get("default")
        if curve is None:
            curve = EfficiencyCurve(eff_max=0.70, half_size=512.0)
        return curve(size)

    def gflops(self, kernel: str, size: float, cores: Optional[int] = None) -> float:
        """Achievable GFl/s for ``kernel`` at ``size`` using ``cores`` cores.

        ``cores=None`` means the whole device. Sub-device partitions (a
        stream's CPU mask) get a proportional share of peak; the efficiency
        curve is evaluated at the same problem size.
        """
        if cores is None:
            cores = self.total_cores
        if cores < 1 or cores > self.total_cores:
            raise ValueError(
                f"{self.name}: cores={cores} outside 1..{self.total_cores}"
            )
        peak = cores * self.clock_ghz * self.dp_flops_per_cycle
        return peak * self.efficiency(kernel, size)

    def compute_time(
        self,
        kernel: str,
        flops: float,
        size: float,
        cores: Optional[int] = None,
        bytes_moved: float = 0.0,
    ) -> float:
        """Seconds to run ``flops`` of ``kernel`` work at ``size``.

        A simple roofline: the larger of the compute time at the achievable
        rate and the memory time at the device bandwidth, plus one
        fork/join overhead.
        """
        if flops < 0 or bytes_moved < 0:
            raise ValueError("flops/bytes_moved must be non-negative")
        rate = self.gflops(kernel, size, cores)
        t_compute = flops / (rate * 1e9)
        t_memory = bytes_moved / (self.mem_bw_gbs * 1e9) if bytes_moved else 0.0
        return max(t_compute, t_memory) + self.fork_join_s

    def with_efficiencies(self, **curves: EfficiencyCurve) -> "Device":
        """A copy of this device with some kernel curves replaced."""
        merged = dict(self.kernel_eff)
        merged.update(curves)
        return replace(self, kernel_eff=merged)

    def scaled(self, name: str, clock_factor: float = 1.0) -> "Device":
        """A renamed copy with a scaled clock (for what-if studies)."""
        return replace(self, name=name, clock_ghz=self.clock_ghz * clock_factor)
