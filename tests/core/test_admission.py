"""One admission path: enqueue, a collective's chunks and replay decide
fail_fast, namespace quotas and the ``stats`` counters the same way.

Every entry point is a batch through the scheduler's single admission
loop. fail_fast stays inside the failing namespace, a batch that would
overrun a quota is rejected whole, and only admitted work is counted.
The replay entry runs twice: alone, and with an unrelated namespace's
failure pending (which once sent replay down a per-action fallback that
admitted part of the instance before the quota check fired).
"""

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    HStreams,
    InjectedFault,
    XferDirection,
    inject_faults,
    make_platform,
)
from repro.core.errors import HStreamsQuotaExceeded
from repro.sim.kernels import dgemm

ENTRY_POINTS = ["enqueue", "collective", "replay", "replay_unrelated_failure"]


def _ok(*_args) -> None:
    pass


def _cost(*_args):
    return dgemm(64, 64, 64)


def make_runtime(**kw) -> HStreams:
    hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False, **kw)
    hs.register_kernel("ok", fn=_ok, cost_fn=_cost)
    return hs


def capture_cell(hs, stream):
    """A 3-action h2d -> compute -> d2h template on ``stream``."""
    buf = hs.buffer_create(nbytes=64)
    with hs.capture_graph() as g:
        hs.enqueue_xfer(stream, buf)
        hs.enqueue_compute(stream, "ok", args=(buf.all_inout(),))
        hs.enqueue_xfer(stream, buf, XferDirection.SINK_TO_SRC)
    hs.thread_synchronize()
    return g


class Entry:
    """One admission entry point, prepared on ``stream`` up front (capture
    and collective scratch setup are illegal or noisy once failures or
    quotas are armed)."""

    def __init__(self, hs, kind, stream):
        self.hs = hs
        self.kind = kind
        self.stream = stream
        self.buf = hs.buffer_create(nbytes=64)
        if kind.startswith("replay"):
            self.instance = capture_cell(hs, stream).instantiate()
            self.size = 3
        else:
            self.size = 1

    def admit(self):
        hs, stream = self.hs, self.stream
        if self.kind == "enqueue":
            hs.enqueue_compute(stream, "ok", args=(self.buf.all_inout(),))
        elif self.kind == "collective":
            hs.broadcast(
                self.buf,
                domains=[stream.domain],
                streams={stream.domain: stream},
                schedule="serial",
            )
        else:
            hs.replay(self.instance)


def fail_namespace(hs, namespace):
    """Leave one failure pending in ``namespace``."""
    inject_faults(
        hs, FaultPlan(specs=(FaultSpec(kind="compute", namespace=namespace, nth=1),))
    )
    stream = hs.stream_create(domain=1, ncores=1, namespace=namespace)
    buf = hs.buffer_create(nbytes=64)
    hs.enqueue_compute(stream, "ok", args=(buf.all_inout(),))
    with pytest.raises(InjectedFault):
        hs.stream_synchronize(stream)
    assert hs.failure_errors(namespace)
    return stream, buf


def counted(hs):
    """(stats-side admitted count, scheduler-side admitted count)."""
    stats = hs.stats
    admitted = stats["computes"] + stats["transfers"] + stats["syncs"]
    return admitted, hs.metrics()["actions"]["enqueued"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_fail_fast_never_crosses_namespaces(entry):
    hs = make_runtime(failure_policy="fail_fast")
    try:
        sb = hs.stream_create(domain=1, ncores=1, namespace="B")
        target = Entry(hs, entry, sb)
        fail_namespace(hs, "A")
        before = counted(hs)
        # A's pending failure never rejects B's admission.
        target.admit()
        hs.stream_synchronize(sb)
        after = counted(hs)
        assert after[0] == after[1] == before[0] + target.size
    finally:
        hs.clear_failure()
        hs.fini()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_fail_fast_rejection_admits_and_counts_nothing(entry):
    hs = make_runtime(failure_policy="fail_fast")
    try:
        sa = hs.stream_create(domain=1, ncores=1, namespace="A")
        target = Entry(hs, entry, sa)
        fail_namespace(hs, "A")
        before = counted(hs)
        assert before[0] == before[1]
        with pytest.raises(InjectedFault):
            target.admit()
        assert counted(hs) == before
        assert hs.namespace_inflight("A") == 0
        # Nothing was spent: once acknowledged, the same call admits.
        hs.clear_failure("A")
        target.admit()
        hs.stream_synchronize(sa)
        after = counted(hs)
        assert after[0] == after[1] == before[0] + target.size
    finally:
        hs.fini()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_quota_rejects_the_whole_batch(entry):
    hs = make_runtime()
    try:
        sc = hs.stream_create(domain=1, ncores=1, namespace="C")
        filler = hs.stream_create(domain=1, ncores=1, namespace="C")
        target = Entry(hs, entry, sc)
        if entry == "replay_unrelated_failure":
            fail_namespace(hs, "A")
        limit = 3
        hs.set_namespace_quota("C", limit)
        # Fill C so that this entry's batch overruns the quota by one.
        for _ in range(limit - target.size + 1):
            buf = hs.buffer_create(nbytes=64)
            hs.enqueue_compute(filler, "ok", args=(buf.all_inout(),))
        inflight = hs.namespace_inflight("C")
        assert inflight == limit - target.size + 1
        before = counted(hs)
        assert before[0] == before[1]
        with pytest.raises(HStreamsQuotaExceeded):
            target.admit()
        # Nothing partially admitted, nothing counted.
        assert hs.namespace_inflight("C") == inflight
        assert counted(hs) == before
        # Room again: the same call (the same replay instance) admits.
        hs.stream_synchronize(filler)
        target.admit()
        hs.stream_synchronize(sc)
        after = counted(hs)
        assert after[0] == after[1] == before[0] + target.size
    finally:
        hs.clear_failure()
        hs.fini()
