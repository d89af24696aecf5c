"""A traced sim run emits exactly the pinned timeline.

The sim backend builds its lane and label strings only when the tracer
is on; this pins what a traced run records — every lane, label, kind
and float-exact time of both the interval events and the scheduler's
queue-depth counters — so a change to when those strings are built
cannot change what tracing shows.
"""

import re

from repro import HStreams, XferDirection
from repro.sim.kernels import KernelCost
from repro.sim.platforms import make_cluster_platform

#: (lane, start.hex(), end.hex(), label, kind), in recording order.
EVENTS = [
    ("pcie:d1:h2d", "0x1.fd9ba1b1960fap-12", "0x1.63cee2b0cfa44p-11", "xfer-h2d#0", "transfer"),
    ("pcie:d1:h2d", "0x1.f85d744f5d356p-11", "0x1.2eaf4313b0e8ep-10", "bcast:c:h0c0", "transfer"),
    ("fabric:d1->d2", "0x1.75d13d74d5950p-10", "0x1.a851c660d7e33p-10", "bcast:c:h1c0", "transfer"),
    ("d1:card", "0x1.65e7c1a4e661fp-11", "0x1.795a07e6be0a8p-9", "k#1", "compute"),
    ("pcie:d1:d2h", "0x1.7c3c3a765d4f5p-9", "0x1.957c7eec5e767p-9", "xfer-d2h#2", "transfer"),
    ("d0:host", "0x1.f31f46ed245b2p-12", "0x1.3e597f486ee68p-8", "k#3", "compute"),
]

#: (lane, t.hex(), value), in recording order.
COUNTERS = [
    ("sched:d1:card", "0x1.e68a0d349be90p-12", 1),
    ("sched:d1:card", "0x1.eabbcb1cc9646p-12", 2),
    ("sched:d1:card", "0x1.eeed8904f6dfcp-12", 3),
    ("sched:d0:host", "0x1.f31f46ed245b2p-12", 1),
    ("sched:d1:coll-d1", "0x1.ecd4aa10e0221p-11", 1),
    ("sched:d2:coll-d2", "0x1.700cd855970b5p-10", 1),
    ("sched:d1:card", "0x1.63cee2b0cfa44p-11", 2),
    ("sched:d1:coll-d1", "0x1.2eaf4313b0e8ep-10", 0),
    ("sched:d2:coll-d2", "0x1.a851c660d7e33p-10", 0),
    ("sched:d1:card", "0x1.795a07e6be0a8p-9", 1),
    ("sched:d1:card", "0x1.957c7eec5e767p-9", 0),
    ("sched:d0:host", "0x1.3e597f486ee68p-8", 0),
]


def traced_run():
    """Card pipeline, host compute and a two-hop ring broadcast (a
    host-rooted hop over the host bus, then a peer hop)."""
    hs = HStreams(platform=make_cluster_platform(nnodes=2), backend="sim", trace=True)
    hs.register_kernel(
        "k", cost_fn=lambda op: KernelCost(kernel="k", flops=4e7, size=64)
    )
    card = hs.stream_create(domain=1, ncores=4, name="card")
    host = hs.stream_create(domain=0, ncores=2, name="host")
    a, b, c = (hs.buffer_create(nbytes=1 << 20, name=n) for n in "abc")
    hs.enqueue_xfer(card, a)
    hs.enqueue_compute(card, "k", args=(a.all_inout(),))
    hs.enqueue_xfer(card, a, XferDirection.SINK_TO_SRC)
    hs.enqueue_compute(host, "k", args=(b.all_inout(),))
    hs.broadcast(c, [1, 2], schedule="ring")
    hs.thread_synchronize()
    return hs


def test_traced_sim_run_records_the_pinned_timeline():
    hs = traced_run()
    tracer = hs.tracer
    # Default labels end in the action's seq, drawn from a process-wide
    # counter: count it from the run's first action.
    base = min(r.seq for r in hs.metrics()["records"])

    def label(text):
        return re.sub(r"#(\d+)$", lambda m: f"#{int(m.group(1)) - base}", text)

    assert [
        (e.lane, e.start.hex(), e.end.hex(), label(e.label), e.kind)
        for e in tracer.events
    ] == EVENTS
    assert [(c.lane, c.t.hex(), c.value) for c in tracer.counters] == COUNTERS


def test_untraced_run_records_nothing():
    hs = HStreams(platform=make_cluster_platform(nnodes=2), backend="sim", trace=False)
    hs.register_kernel(
        "k", cost_fn=lambda op: KernelCost(kernel="k", flops=4e7, size=64)
    )
    s = hs.stream_create(domain=1, ncores=4)
    buf = hs.buffer_create(nbytes=1 << 20)
    hs.enqueue_xfer(s, buf)
    hs.enqueue_compute(s, "k", args=(buf.all_inout(),))
    hs.thread_synchronize()
    assert hs.tracer.events == [] and hs.tracer.counters == []
