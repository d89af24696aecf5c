"""Comparator programming models (paper §IV).

Each module presents the API shape and constraint set of one model the
paper compares hStreams against, implemented over the same runtime and
platform machinery so that performance differences *emerge from the
models' semantics* rather than being hard-coded:

* :mod:`repro.models.cuda_streams` — strict in-order streams, opaque
  handles, explicit event create/record/wait, per-device addresses,
  whole-device kernels.
* :mod:`repro.models.openmp` — OpenMP 4.0/4.5 target offload: one logical
  device per card (no sub-device partitioning), synchronous transfers in
  4.0, ``nowait``/``depend`` in 4.5.
* :mod:`repro.models.opencl_like` — boilerplate-heavy contexts, queues,
  programs and kernels, with the under-optimized device BLAS the paper
  measured (35 GFl/s clBLAS DGEMM on KNC).
"""

from repro.models.cuda_streams import CudaError, CudaRuntime
from repro.models.openmp import OpenMPRuntime
from repro.models.opencl_like import OpenCLRuntime

__all__ = [
    "CudaError",
    "CudaRuntime",
    "OpenMPRuntime",
    "OpenCLRuntime",
]
