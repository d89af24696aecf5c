"""Happens-before hazard analyzer for hStreams programs (``hsan``).

The analyzer answers the question the relaxed streaming model makes
easy to get wrong: *which pairs of actions are actually ordered?* It
capture-runs a program (recording the full action graph without
dispatching any work), builds the happens-before relation from the
recorded dependence edges, events, and host synchronizations, and
reports:

- ``stream-race`` — conflicting cross-stream accesses with no ordering;
- buffer-lifetime lints — ``read-before-init``, ``stale-read``,
  ``use-after-evict``, ``use-after-destroy``, ``evict-in-flight``,
  ``missing-d2h``;
- program-shape lints — ``unwaited-event``, ``deadlock``,
  ``zero-length-operand``.

Entry points: :func:`check_program` / the ``python -m repro.analysis``
CLI for whole programs, :func:`analyze_trace` for captured traces, and
:func:`attach_checker` for online checking during real execution. See
DESIGN.md ("Happens-before model and the hazard analyzer") for the
model and the full rule catalog.
"""

from repro.analysis.checker import (
    OnlineChecker,
    Report,
    RuleEngine,
    analyze_trace,
    attach_checker,
    check_program,
)
from repro.analysis.diagnostics import RULES, ActionRef, Diagnostic, Rule, Severity
from repro.analysis.hb import HOST, HBState, RaceDetector, VectorClock
from repro.core.capture import (
    ActionEvent,
    BufferEvent,
    CaptureBackend,
    ProgramCapture,
    ProgramTrace,
    StreamEvent,
    SyncEvent,
    capture_session,
)
from repro.core.memory import IntervalSet

__all__ = [
    "ActionEvent",
    "ActionRef",
    "BufferEvent",
    "CaptureBackend",
    "Diagnostic",
    "HBState",
    "HOST",
    "IntervalSet",
    "OnlineChecker",
    "ProgramCapture",
    "ProgramTrace",
    "RaceDetector",
    "Report",
    "RULES",
    "Rule",
    "RuleEngine",
    "Severity",
    "StreamEvent",
    "SyncEvent",
    "VectorClock",
    "analyze_trace",
    "attach_checker",
    "capture_session",
    "check_program",
]
