"""Property and configuration types for the hStreams runtime."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["MemType", "RuntimeConfig"]


class MemType(enum.Enum):
    """Kinds of memory a buffer may be bound to (paper §IV: hStreams
    allocation APIs support different memory types, unlike OpenMP)."""

    DDR = "ddr"
    HBM = "hbm"
    PERSISTENT = "persistent"


@dataclass
class RuntimeConfig:
    """Tunable overhead and behaviour knobs of the runtime.

    The defaults are calibrated to the paper's §III overhead analysis:

    * ``transfer_overhead_s`` — fixed per-transfer runtime cost; the paper
      measures 20–30 µs for transfers under 128 KB, amortizing to <5 % of
      end-to-end time for multi-MB transfers.
    * ``enqueue_overhead_s`` — source-side cost of any enqueue API call.
    * ``invoke_overhead_s`` — sink-side task invocation cost ("negligible"
      per the paper, but nonzero).
    * ``alloc_latency_s`` / ``alloc_per_mb_s`` — synchronous card-side
      buffer instantiation cost; the paper's conclusions flag synchronous
      MIC-side allocation as a bottleneck. With ``use_buffer_pool`` the
      COI-style 2 MB buffer pool makes re-allocation negligible (the
      OmpSs runs in the paper had the pool disabled, which is exactly the
      "COI allocation overheads were significant" case).
    * ``jitter`` — amplitude of seeded, sporadic compute-time inefficiency
      modeling the software-stack noise behind hStreams' "noticeably
      jagged" Fig. 7 curve; 0 disables it.
    * ``metrics_history`` — how many per-action lifecycle records the
      scheduler retains for ``HStreams.metrics()``; 0 disables record
      retention (aggregates are still kept).
    * ``retry_limit`` / ``retry_backoff_s`` / ``retry_backoff_factor`` /
      ``retry_backoff_max_s`` — under ``failure_policy="retry"``, an
      action failing with a transient error (see
      :func:`~repro.core.errors.mark_transient`) is re-executed up to
      ``retry_limit`` times, waiting
      ``min(retry_backoff_s * retry_backoff_factor**(attempt-1),
      retry_backoff_max_s)`` before each attempt (wall seconds on the
      thread backend, virtual seconds on the sim backend).
    * ``action_timeout_s`` — per-action execution budget, enforced in
      both backends: an action exceeding it fails with
      :class:`~repro.core.errors.HStreamsTimedOut` (the sim backend caps
      the modeled duration at the budget; the thread backend cannot
      preempt a Python kernel, so it marks the action failed when it
      finally returns). ``None`` disables the budget.
    * ``wait_timeout_s`` — default timeout applied to every blocking
      host wait (``event_wait``, ``stream_synchronize``,
      ``thread_synchronize``) that does not pass an explicit timeout;
      ``None`` (the default) waits forever, as before.
    """

    enqueue_overhead_s: float = 4.0e-6
    transfer_overhead_s: float = 2.2e-5
    invoke_overhead_s: float = 5.0e-6
    sync_overhead_s: float = 3.0e-6
    alloc_latency_s: float = 3.0e-4
    alloc_per_mb_s: float = 8.0e-5
    use_buffer_pool: bool = True
    pool_chunk_bytes: int = 2 * 1024 * 1024
    jitter: float = 0.0
    jitter_prob: float = 0.05
    seed: int = 0
    host_mem_bw_gbs: float = 0.0  # 0 -> use the host device's bandwidth
    metrics_history: int = 1024
    retry_limit: int = 3
    retry_backoff_s: float = 2.0e-3
    retry_backoff_factor: float = 2.0
    retry_backoff_max_s: float = 0.25
    action_timeout_s: Optional[float] = None
    wait_timeout_s: Optional[float] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in (
            "enqueue_overhead_s",
            "transfer_overhead_s",
            "invoke_overhead_s",
            "sync_overhead_s",
            "alloc_latency_s",
            "alloc_per_mb_s",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (0.0 <= self.jitter_prob <= 1.0):
            raise ValueError("jitter_prob must be in [0, 1]")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.pool_chunk_bytes <= 0:
            raise ValueError("pool_chunk_bytes must be > 0")
        if self.metrics_history < 0:
            raise ValueError("metrics_history must be >= 0")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        for name in ("retry_backoff_s", "retry_backoff_factor", "retry_backoff_max_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("action_timeout_s", "wait_timeout_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None)")

    def alloc_cost(self, nbytes: int) -> float:
        """Host-blocking cost of instantiating ``nbytes`` on a card."""
        return self.alloc_latency_s + self.alloc_per_mb_s * nbytes / (1 << 20)
