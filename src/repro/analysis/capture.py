"""Back-compat import path for the capture machinery.

The capture primitives (:class:`CaptureBackend`, the full-history
policy replay, the :class:`ProgramTrace` event records) moved to
:mod:`repro.core.capture` when graph replay (:mod:`repro.core.replay`)
started sharing them — ``core`` cannot depend on ``analysis``. This
module re-exports everything so existing analyzer-facing imports keep
working unchanged.
"""

from __future__ import annotations

from repro.core.capture import (
    ActionEvent,
    BufferEvent,
    CaptureBackend,
    ProgramCapture,
    ProgramTrace,
    StreamEvent,
    SyncEvent,
    capture_session,
    policy_dep_seqs,
)
from repro.core.sites import user_site as _user_site  # noqa: F401

__all__ = [
    "ActionEvent",
    "SyncEvent",
    "BufferEvent",
    "StreamEvent",
    "ProgramTrace",
    "ProgramCapture",
    "CaptureBackend",
    "capture_session",
    "policy_dep_seqs",
]
