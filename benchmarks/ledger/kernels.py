"""Sink-side kernels of the ledger workloads.

Module-level on purpose: the process backend ships a kernel to its
worker by import path, and silently runs anything it cannot pickle on
the host instead.
"""

from __future__ import annotations


def axpy(x, a: float, b: float) -> None:
    """``x := a*x + b`` in place (numpy; microseconds on 512 doubles)."""
    x *= a
    x += b


def pysum(x, a: float, b: float) -> None:
    """``x[0] := a*sum(x) + b`` with the sum taken in pure Python.

    ~100 us of interpreter time on 512 doubles: enough that the worker
    does real work, little enough that the IPC round trip still shows.
    """
    total = 0.0
    for v in x:
        total += v
    x[0] = a * total + b


def noop(x: float) -> None:
    """The service workload's kernel: the request path is the cost."""
