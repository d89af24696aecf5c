"""Bit-exact pins of the sim backend's schedules.

Every figure in the paper comes out of the simulated schedule, so any
change to what the engine fires, or in what order, must show up here
first. Each case runs one sim program with an unbounded record history
and pins two things by exact value:

* its virtual elapsed time, as ``float.hex``;
* a sha256 over every finished action's lifecycle record
  ``(seq, kind, stream_id, state, t_ready, t_start, t_end)``, in
  completion order, with the timestamps as ``float.hex`` and ``seq``
  counted from the run's first action.

A legitimate change to a cost model or to admission moves these pins on
purpose; re-derive them with ``PYTHONPATH=src python
tests/sim/test_schedule_pins.py``, which prints the current values in
the form of ``PINS`` below. An engine or plumbing refactor must leave
them untouched.
"""

import hashlib

import pytest

from repro import HStreams, RuntimeConfig, make_platform
from repro.apps.rtm import run_rtm
from repro.core.faults import FaultPlan, FaultSpec, inject_faults
from repro.linalg import hetero_cholesky, hetero_matmul
from repro.ompss import runtime as ompss_runtime
from repro.ompss.cholesky import ompss_cholesky
from repro.sim.kernels import KernelCost
from repro.sim.platforms import make_cluster_platform, make_fabric_platform

#: Keep every record: the digest must cover the whole schedule.
HISTORY = 1 << 20

RTM_GRID = (2048, 512, 512)  # the paper-figure grid (bench_rtm.py)
RTM_STEPS = 16


def _config(**kw):
    return RuntimeConfig(metrics_history=HISTORY, **kw)


def _sim(platform, **kw):
    return HStreams(platform=platform, backend="sim", config=_config(),
                    trace=False, **kw)


def schedule_digest(hs) -> str:
    """sha256 over every finished action's lifecycle record."""
    # The scheduler's own snapshot: it outlives fini(), which OmpSs calls.
    records = hs.scheduler.metrics()["records"]
    assert len(records) < HISTORY
    # Action seqs come from one process-wide counter: count from the
    # run's first action so the digest does not depend on test order.
    base = min(r.seq for r in records)
    h = hashlib.sha256()
    for r in records:
        h.update(
            f"{r.seq - base} {r.kind} {r.stream_id} {r.state} {r.t_ready.hex()} "
            f"{r.t_start.hex()} {r.t_end.hex()}\n".encode()
        )
    return h.hexdigest()


# -- the programs -------------------------------------------------------------


def rtm(scheme, nranks, replay=False):
    def run():
        hs = _sim(make_platform("HSW", nranks))
        res = run_rtm(hs, grid=RTM_GRID, nranks=nranks, scheme=scheme,
                      steps=RTM_STEPS, replay=replay)
        return hs, res.elapsed_s
    return run


def fig6_matmul():
    hs = _sim(make_platform("HSW", 2))
    return hs, hetero_matmul(hs, 8000, tile=1000).elapsed_s


def hetero_chol():
    hs = _sim(make_platform("HSW", 1))
    return hs, hetero_cholesky(hs, 8000, tile=400, host_streams=4).elapsed_s


def ompss_chol():
    built = []

    class Recorded(HStreams):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self)

    # OmpSs builds (and finalizes) its runtime inside the call.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ompss_runtime, "HStreams", Recorded)
        res = ompss_cholesky(4800, runtime_config=_config())
    (hs,) = built
    return hs, res.elapsed_s


def fabric_collectives():
    """Multicast broadcast, a write per node, then a gather, on a bus +
    peer cluster fabric: host-rooted hops through both host-bus
    directions, and peer hops."""
    nodes = list(range(1, 9))
    part = 8 << 20
    hs = _sim(make_cluster_platform(nnodes=len(nodes)))
    hs.register_kernel(
        "touch", cost_fn=lambda op: KernelCost(kernel="touch", flops=1e6, size=8)
    )
    buf = hs.buffer_create(nbytes=part * len(nodes), domains=nodes, name="payload")
    hs.thread_synchronize()
    t0 = hs.elapsed()
    hs.broadcast(buf, nodes, schedule="multicast")
    hs.thread_synchronize()
    for i, node in enumerate(nodes):
        s = hs.stream_create(domain=node, ncores=4)
        hs.enqueue_compute(s, "touch", args=(buf.range(i * part, part),))
    hs.thread_synchronize()
    hs.gather(buf, nodes)
    hs.thread_synchronize()
    fabric = hs.metrics()["fabric"]
    assert fabric["peer_transfers"] > 0 and fabric["host_bus_wait_s"] > 0
    return hs, hs.elapsed() - t0


def fabric_peer_tie():
    """A host-rooted copy and a peer hop meet on node 1's ingress port at
    one instant, so calendar order alone decides which gets it first.

    Link and overhead times are dyadic, so every float sum is exact: the
    copy (behind a barrier as long as one wire time) finishes its
    transfer overhead exactly when the 2->3 hop frees node 2's egress
    port for the queued 2->1 hop.
    """
    payload = 1 << 20
    latency = 2.0 ** -20
    wire = latency + payload / (1 << 30)
    cfg = _config(
        enqueue_overhead_s=0.0, transfer_overhead_s=2.0 ** -15,
        sync_overhead_s=wire, alloc_latency_s=0.0, alloc_per_mb_s=0.0,
    )
    platform = make_fabric_platform(
        nnodes=3, fabric_bandwidth_gbs=(1 << 30) / 1e9, fabric_latency_s=latency,
        peer_enabled=True,
    )
    hs = HStreams(platform=platform, backend="sim", config=cfg, trace=False)
    a = hs.buffer_create(nbytes=payload, domains=[2, 3], name="a")
    b = hs.buffer_create(nbytes=payload, domains=[1, 2], name="b")
    x = hs.buffer_create(nbytes=payload, domains=[1], name="x")
    hs.broadcast(a, [2])
    hs.broadcast(b, [2])
    hs.thread_synchronize()
    s1 = hs.stream_create(domain=1, ncores=1)
    t0 = hs.elapsed()
    hs.broadcast(a, [2, 3], schedule="ring")
    hs.broadcast(b, [2, 1], schedule="ring")
    hs.event_stream_wait(s1, [], operands=None)
    hs.enqueue_xfer(s1, x, label="copy")
    hs.thread_synchronize()
    # The copy's wire request waits behind the hop's egress grant, due
    # at the same instant, so the hop takes the port and finishes first.
    recs = {r.label: r for r in hs.metrics()["records"]}
    assert recs["bcast:b:h1c0"].t_end < recs["copy"].t_end
    return hs, hs.elapsed() - t0


def retry_cell():
    """A transient compute fault recovered under ``failure_policy="retry"``."""
    hs = _sim(make_platform("HSW", 1), failure_policy="retry")
    for i in range(4):
        hs.register_kernel(
            f"stage{i}",
            cost_fn=lambda x: KernelCost(kernel="stage", flops=1e6, size=8),
        )
    injector = inject_faults(hs, FaultPlan(
        specs=(FaultSpec(kind="compute", kernel="stage1", nth=1, times=2,
                         transient=True),),
        seed=17,
    ))
    s = hs.stream_create(domain=1, ncores=4)
    buf = hs.buffer_create(nbytes=64)
    op = buf.all_inout()
    t0 = hs.elapsed()
    hs.enqueue_xfer(s, buf)
    for i in range(4):
        hs.enqueue_compute(s, f"stage{i}", args=(op,))
    hs.thread_synchronize()
    assert injector.injected == 2 and hs.metrics()["actions"]["retried"] == 2
    return hs, hs.elapsed() - t0


CASES = {
    **{
        f"rtm-{scheme}-{n}rank": rtm(scheme, n)
        for scheme in ("host", "sync", "async")
        for n in (1, 2, 4)
    },
    **{f"rtm-async-{n}rank-replay": rtm("async", n, replay=True) for n in (1, 2, 4)},
    "fig6-matmul-hsw-2knc": fig6_matmul,
    "cholesky-hetero": hetero_chol,
    "cholesky-ompss": ompss_chol,
    "fabric-multicast-gather": fabric_collectives,
    "fabric-peer-tie": fabric_peer_tie,
    "fault-retry-transient": retry_cell,
}

#: case -> (elapsed_s.hex(), schedule digest)
PINS = {
    "cholesky-hetero": (
        "0x1.84924fb3b69d3p-3",
        "7f9efe57734fa617d764fbcd0f318e2c4539ac2fb23d28cef9f9aafe8adf9597",
    ),
    "cholesky-ompss": (
        "0x1.0da8863b5681bp-4",
        "628c9e7e7ff919bf20d977549697976bb897668e02999456ba36cc4a99eed680",
    ),
    "fabric-multicast-gather": (
        "0x1.261c646da1ca9p-5",
        "eb223ddf58fc74e91036dc9b1acffdf987d49389a4317bccbb22f7eae3fbd6ab",
    ),
    "fabric-peer-tie": (
        "0x1.0240000000000p-8",
        "9e6ea32cc1a644c6ef812f3e271e7fdc16fabc683fe93325499ec1f327c8d4aa",
    ),
    "fault-retry-transient": (
        "0x1.b926412aedd76p-7",
        "593d247f19f2958cfb51e3566170ae98756dab909f0de726d9ebd049705a6b6e",
    ),
    "fig6-matmul-hsw-2knc": (
        "0x1.48780b56560aap-1",
        "fd40bc25c7cbcf0d44f66ea73a4c95015b09fab22a9a2cd5d0c887b43ffdecb4",
    ),
    "rtm-async-1rank": (
        "0x1.b9558fb2f93eep+0",
        "999c7f27f50e16d20e6cda10856aa811ee8cb4062533af13bd85eec23e183c5c",
    ),
    "rtm-async-1rank-replay": (
        "0x1.b26c4481a5d3ep+0",
        "94c90e8ee9f5081c3092dbdf5719e97d01dbe33ed24461938790b19cbc6f1093",
    ),
    "rtm-async-2rank": (
        "0x1.bf96a278f4688p-1",
        "6e7e7899b0e4f2734041fc9823c175166f24b0a762cee3f38f42a8b5f7fb9078",
    ),
    "rtm-async-2rank-replay": (
        "0x1.ba83c54562450p-1",
        "156f9f2ad4452ff78a307f5a2b96a3dd6942a606ba4367dbf49c34c7a1a94841",
    ),
    "rtm-async-4rank": (
        "0x1.d6ad596252a74p-2",
        "3feb75f7a64e60ba58e9f006f7665f136c5f21ed262af56be383b4140f684f36",
    ),
    "rtm-async-4rank-replay": (
        "0x1.c8cd974132e18p-2",
        "e7e6edb08a8a38ab3deca6710b70e5e7bc41a417291607d4ab768d4f71197737",
    ),
    "rtm-host-1rank": (
        "0x1.4a28a2bee4419p+1",
        "d55e5c221a6ee0e9b0109363037e8f0dada4ba839ade8aca37ac36e69bb3fcbd",
    ),
    "rtm-host-2rank": (
        "0x1.4a28a2bee4419p+1",
        "d55e5c221a6ee0e9b0109363037e8f0dada4ba839ade8aca37ac36e69bb3fcbd",
    ),
    "rtm-host-4rank": (
        "0x1.4a28a2bee4419p+1",
        "d55e5c221a6ee0e9b0109363037e8f0dada4ba839ade8aca37ac36e69bb3fcbd",
    ),
    "rtm-sync-1rank": (
        "0x1.c5fdd64dac9d8p+0",
        "e239adfb8cac8ced46456d90dd1ad52f485c392788b2fef608cfa9f0b6e9c32c",
    ),
    "rtm-sync-2rank": (
        "0x1.e3ec5659c6af4p-1",
        "97c2bed911254a4f942aebc795b7c222bbaf72c3f8d6abeaf7c1cc044af34e9c",
    ),
    "rtm-sync-4rank": (
        "0x1.105bc61542f72p-1",
        "156a8a0021777e554f45efcc29a46164e6fce8c1590a0f66f1ccfb3e38d3a1d6",
    ),
}


def run_case(name):
    hs, elapsed = CASES[name]()
    return elapsed.hex(), schedule_digest(hs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_is_pinned(name):
    assert run_case(name) == PINS[name]


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(CASES)


if __name__ == "__main__":
    print("#: case -> (elapsed_s.hex(), schedule digest)")
    print("PINS = {")
    for case in sorted(CASES):
        elapsed_hex, digest = run_case(case)
        print(f'    "{case}": (\n        "{elapsed_hex}",\n        "{digest}",\n    ),')
    print("}")
