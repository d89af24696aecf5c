"""The hazard checker: rule engine, program checker, and online mode.

:class:`RuleEngine` wires the happens-before engine, the race detector,
and the lint passes behind one deduplicating diagnostic sink;
:func:`analyze_trace` runs it over a captured
:class:`~repro.core.capture.ProgramTrace`.

:func:`check_program` is the whole pipeline for a program file: run it
inside :func:`~repro.core.capture.capture_session` (so every runtime
it constructs records instead of executing), analyze every captured
trace, and apply ``# hsan: ignore[rule]`` waivers from the program
source. It backs the CLI (``python -m repro.analysis``).

:class:`OnlineChecker` feeds the same rule engine from live scheduler
callbacks during a *real* run — hazards surface as the program executes,
at the cost of only seeing the interleaving that actually happened.
"""

from __future__ import annotations

import contextlib
import runpy
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.analysis.diagnostics import RULES, ActionRef, Diagnostic, Severity
from repro.analysis.waivers import parse_waivers as parse_shared_waivers
from repro.analysis.hb import HBState, RaceDetector
from repro.analysis.lints import (
    BufferStateLint,
    DeadlockLint,
    UnwaitedEventLint,
    ZeroLengthOperandLint,
)
from repro.core.capture import (
    ActionEvent,
    BufferEvent,
    ProgramTrace,
    SyncEvent,
    capture_session,
    policy_dep_seqs,
)
from repro.core.scheduler import SchedulerObserver
from repro.core.sites import user_site as _user_site

__all__ = [
    "RuleEngine",
    "analyze_trace",
    "Report",
    "check_program",
    "OnlineChecker",
    "attach_checker",
]


class RuleEngine:
    """All rule passes behind one deduplicating diagnostic sink.

    Passes emit through :meth:`_emit` with an optional dedup key; a
    repeat of a live key folds into the first diagnostic's
    ``occurrences`` count instead of producing a new entry (iterative
    pipelines would otherwise report the same race once per iteration).
    """

    def __init__(self) -> None:
        self.hb = HBState()
        self.diagnostics: List[Diagnostic] = []
        self._by_key: Dict[tuple, Diagnostic] = {}
        self._passes = [
            RaceDetector(self._emit),
            BufferStateLint(self._emit),
            UnwaitedEventLint(self._emit),
            DeadlockLint(self._emit),
            ZeroLengthOperandLint(self._emit),
        ]

    def _emit(self, diag: Diagnostic, key: Optional[tuple] = None) -> None:
        if key is not None:
            prior = self._by_key.get(key)
            if prior is not None:
                prior.occurrences += 1
                return
            self._by_key[key] = diag
        self.diagnostics.append(diag)

    def feed(self, event: Any) -> None:
        """Incorporate one trace event, in program order."""
        # HB first: the passes query orderings *including* this event.
        self.hb.feed(event)
        for rule_pass in self._passes:
            rule_pass.feed(event, self.hb)

    def finish(self) -> List[Diagnostic]:
        """Run end-of-program rules and return all diagnostics."""
        for rule_pass in self._passes:
            rule_pass.finish(self.hb)
        self.diagnostics.sort(
            key=lambda d: (d.severity is not Severity.ERROR, d.rule)
        )
        return self.diagnostics


def analyze_trace(trace: ProgramTrace) -> List[Diagnostic]:
    """Run every hazard rule over a captured trace."""
    engine = RuleEngine()
    for event in trace:
        engine.feed(event)
    return engine.finish()


# -- program checking ----------------------------------------------------------


def parse_waivers(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line numbers to waived rule sets (``None`` = all).

    ``# hsan: ignore`` waives everything on the line;
    ``# hsan: ignore[rule-a, rule-b]`` waives only the named rules.
    The syntax (and this parser) is shared with staticlint's
    ``# rtsan: ignore`` waivers — see :mod:`repro.analysis.waivers`.
    """
    return parse_shared_waivers(source, "hsan", RULES)


def _is_waived(
    diag: Diagnostic, path: str, waivers: Dict[int, Optional[Set[str]]]
) -> bool:
    """A waiver matches when any offending action sits on a waived line
    of the checked program and the waiver covers the diagnostic's rule."""
    for ref in diag.actions:
        if ref.site is None or ref.site[0] != path:
            continue
        rules = waivers.get(ref.site[1], ...)
        if rules is ...:
            continue
        if rules is None or diag.rule in rules:
            return True
    return False


@dataclass
class Report:
    """The result of checking one program."""

    path: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    waived: List[Diagnostic] = field(default_factory=list)
    #: Traceback summary if the program raised during capture. Numeric
    #: assertions are *expected* to fail under capture (nothing
    #: executes); the captured prefix is still analyzed.
    program_error: Optional[str] = None
    runtimes: int = 0
    actions: int = 0

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def exit_code(self) -> int:
        """CLI convention: 2 on errors, 1 on warnings only, 0 clean."""
        if self.errors:
            return 2
        if self.warnings:
            return 1
        return 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "runtimes": self.runtimes,
            "actions": self.actions,
            "program_error": self.program_error,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "waived": len(self.waived),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def format(self) -> str:
        lines = [
            f"hsan: {self.path}: captured {self.actions} action(s) across "
            f"{self.runtimes} runtime(s)"
        ]
        if self.program_error is not None:
            lines.append(
                "hsan: note: program raised under capture (numeric checks "
                f"cannot pass when nothing executes): {self.program_error}"
            )
        lines.extend(d.format() for d in self.diagnostics)
        verdict = (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
            + (f", {len(self.waived)} waived" if self.waived else "")
        )
        lines.append(f"hsan: {self.path}: {verdict}")
        return "\n".join(lines)


def check_program(path: str) -> Report:
    """Capture-run a program file and analyze everything it enqueued."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    waivers = parse_waivers(source)
    report = Report(path=path)
    with capture_session() as runtimes:
        try:
            # The checked program's own prints go to stderr: stdout is
            # the report stream (--json output must stay parseable).
            with contextlib.redirect_stdout(sys.stderr):
                runpy.run_path(path, run_name="__main__")
        except SystemExit as exc:  # a program's sys.exit is not a crash
            if exc.code not in (None, 0):
                report.program_error = f"SystemExit: {exc.code}"
        except Exception as exc:
            report.program_error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
    report.runtimes = len(runtimes)
    for hs in runtimes:
        trace = hs.capture.trace
        report.actions += len(trace.actions())
        for diag in analyze_trace(trace):
            if _is_waived(diag, path, waivers):
                report.waived.append(diag)
            else:
                report.diagnostics.append(diag)
    report.diagnostics.sort(
        key=lambda d: (d.severity is not Severity.ERROR, d.rule)
    )
    return report


# -- online checking -----------------------------------------------------------


class OnlineChecker(SchedulerObserver):
    """Feed the rule engine from live scheduler callbacks.

    Attach to a *real* (executing) runtime via :func:`attach_checker`;
    call :meth:`finish` after the program's final synchronization to
    collect end-of-program findings. Unlike capture mode, an online
    checker never claims dangling waits — the scheduler's normal
    ``HStreamsBadArgument`` behavior is preserved.
    """

    def __init__(self) -> None:
        self.engine = RuleEngine()
        self._pos = 0
        self._shadows: Dict[int, Any] = {}
        self._finished: Optional[List[Diagnostic]] = None

    def _next_pos(self) -> int:
        self._pos += 1
        return self._pos

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return self.engine.diagnostics

    # -- scheduler callbacks ---------------------------------------------------

    def on_enqueue(self, action, deps, dangling) -> None:
        seqs = {d.seq for d in deps}
        seqs.update(policy_dep_seqs(self._shadows, action))
        self.engine.feed(
            ActionEvent(
                pos=self._next_pos(),
                action=action,
                dep_seqs=tuple(sorted(seqs)),
                dangling=(),
                site=_user_site(),
            )
        )

    def on_host_sync(self, kind, stream=None, events: Sequence = ()) -> None:
        self.engine.feed(
            SyncEvent(
                pos=self._next_pos(),
                kind=kind,
                stream_id=stream.id if stream is not None else None,
                seqs=tuple(
                    ev.action.seq for ev in events if ev.action is not None
                ),
                site=_user_site(),
            )
        )

    def on_buffer(self, kind, buf, domain=None) -> None:
        self.engine.feed(
            BufferEvent(
                pos=self._next_pos(),
                kind=kind,
                buffer=buf,
                domain=domain,
                site=_user_site(),
            )
        )

    def on_action_complete(self, action, record) -> None:
        # Failure-path findings only exist online: capture mode never
        # executes, so nothing can fail or be cancelled there. Repeats
        # of the same (rule, kernel, stream) fold into one diagnostic.
        if record.state not in ("failed", "cancelled"):
            return
        rule = "failed-action" if record.state == "failed" else "cancelled-action"
        ref = ActionRef.from_action(action)
        detail = f": {record.error}" if record.error else ""
        retried = f" after {record.retries} retr{'y' if record.retries == 1 else 'ies'}"
        self.engine._emit(
            Diagnostic(
                rule=rule,
                message=(
                    f"{action.display} {record.state}"
                    + (retried if record.retries else "")
                    + detail
                ),
                actions=[ref],
            ),
            key=(rule, action.kind.value, action.kernel, ref.stream),
        )

    # -- results ---------------------------------------------------------------

    def finish(self) -> List[Diagnostic]:
        """Run end-of-program rules (idempotent) and return findings."""
        if self._finished is None:
            self._finished = self.engine.finish()
        return self._finished


def attach_checker(runtime) -> OnlineChecker:
    """Attach an :class:`OnlineChecker` to an executing runtime."""
    checker = OnlineChecker()
    # The observer list is guarded state: executor threads iterate it
    # under the scheduler lock on every completion.
    with runtime.scheduler._lock:
        runtime.scheduler.observers.append(checker)
    return checker
