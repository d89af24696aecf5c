"""Edge-case tests for the simulation engine's less-traveled paths."""

import pytest

from repro import HStreams, XferDirection, make_platform
from repro.coi.buffer_pool import BufferPool
from repro.coi.coi import COIContext
from repro.coi.scif import ScifFabric
from repro.sim import engine as sim_engine
from repro.sim.engine import AnyOf, Engine, Resource, SimError
from repro.sim.interconnect import Fabric, LinkPair
from repro.sim.kernels import KernelCost


class TestConditionFailures:
    def test_any_of_propagates_failure(self):
        eng = Engine()
        good = eng.timeout(5.0)
        bad = eng.event()
        cond = AnyOf(eng, [good, bad])
        bad.fail(RuntimeError("nope"))
        eng.run()
        assert cond.triggered and not cond.ok
        assert isinstance(cond.value, RuntimeError)

    def test_any_of_value_maps_triggered_children(self):
        eng = Engine()
        t1 = eng.timeout(1.0, value="first")
        t2 = eng.timeout(5.0, value="second")
        values = []
        eng.any_of([t1, t2]).add_callback(lambda e: values.append(dict(e.value)))
        eng.run(until=2.0)
        assert values and values[0][t1] == "first"
        assert t2 not in values[0]

    def test_condition_rejects_non_events(self):
        eng = Engine()
        with pytest.raises(SimError):
            eng.all_of([eng.timeout(1.0), "not an event"])

    def test_any_of_empty_fires_immediately(self):
        eng = Engine()
        fired = []
        eng.any_of([]).add_callback(lambda e: fired.append(eng.now))
        eng.run()
        assert fired == [pytest.approx(0.0)]


class TestRunLimits:
    def test_run_until_event_time_limit(self):
        eng = Engine()
        target = eng.event()

        def ticker():
            while True:
                yield eng.timeout(1.0)

        eng.process(ticker())
        with pytest.raises(SimError, match="time limit"):
            eng.run_until_event(target, limit=10.0)

    def test_run_until_event_returns_value(self):
        eng = Engine()
        ev = eng.timeout(2.0, value=42)
        assert eng.run_until_event(ev) == 42

    def test_run_until_event_raises_failure(self):
        eng = Engine()
        ev = eng.event()

        def failer():
            yield eng.timeout(1.0)
            ev.fail(ValueError("doomed"))

        eng.process(failer())
        with pytest.raises(ValueError, match="doomed"):
            eng.run_until_event(ev)

    def test_pending_count(self):
        eng = Engine()
        assert eng.pending_count == 0
        eng.timeout(1.0)
        eng.timeout(2.0)
        assert eng.pending_count == 2
        eng.run()
        assert eng.pending_count == 0


class TestProcessReturnPaths:
    def test_process_that_never_yields(self):
        eng = Engine()

        def instant():
            return "done"
            yield  # pragma: no cover - makes it a generator

        p = eng.process(instant())
        assert eng.run_until_event(p) == "done"

    def test_nested_processes(self):
        eng = Engine()
        log = []

        def child(tag):
            yield eng.timeout(1.0)
            log.append(tag)
            return tag

        def parent():
            a = eng.process(child("a"))
            b = eng.process(child("b"))
            got_a = yield a
            got_b = yield b
            log.append((got_a, got_b))

        eng.process(parent())
        eng.run()
        assert log[-1] == ("a", "b")

    def test_process_waits_on_another_process(self):
        eng = Engine()
        order = []

        def slow():
            yield eng.timeout(3.0)
            order.append("slow")

        def waiter(target):
            yield target
            order.append("waiter")

        p = eng.process(slow())
        eng.process(waiter(p))
        eng.run()
        assert order == ["slow", "waiter"]


class TestProcessStart:
    def test_first_yield_of_a_fired_event_resumes_in_the_same_step(self):
        eng = Engine()
        ready = eng.event()
        ready.trigger("v")
        broken = eng.event()
        broken.fail(ValueError("bad"))
        got = []

        def proc():
            got.append((yield ready))
            try:
                yield broken
            except ValueError as exc:
                got.append(str(exc))
            yield eng.timeout(1.0)
            got.append(eng.now)

        eng.process(proc())
        eng.step()  # the start entry: runs straight through both fired events
        assert got == ["v", "bad"]
        assert eng.pending_count == 1  # only the timeout it now waits on
        eng.run()
        assert got == ["v", "bad", 1.0]

    def test_process_start_costs_one_calendar_entry(self):
        eng = Engine()

        def proc():
            yield eng.timeout(1.0)

        eng.process(proc())
        assert eng.pending_count == 1


class TestSameTimestampOrder:
    def test_starts_timeouts_and_grants_fire_in_insertion_order(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        order = []

        def proc(tag):
            order.append(tag)
            yield eng.timeout(0.0)

        eng.timeout(0.0).add_callback(lambda e: order.append("timeout"))
        eng.process(proc("p1"))
        res.request().add_callback(lambda e: order.append("grant"))
        eng.process(proc("p2"))
        eng.timeout(0.0).add_callback(lambda e: order.append("timeout2"))
        eng.run()
        assert order == ["timeout", "p1", "grant", "p2", "timeout2"]

    def test_process_started_mid_step_queues_behind_due_entries(self):
        eng = Engine()
        order = []

        def child():
            order.append("child")
            yield eng.timeout(0.0)

        def parent():
            eng.process(child())
            order.append("parent")
            yield eng.timeout(0.0)

        eng.process(parent())
        eng.timeout(0.0).add_callback(lambda e: order.append("queued-before"))
        eng.run()
        assert order == ["parent", "queued-before", "child"]


class TestResourceQueue:
    def test_fifo_head_blocking(self):
        """A large request at the head is never overtaken by a smaller
        one behind it, even when the smaller one would fit."""
        eng = Engine()
        res = Resource(eng, capacity=4)
        grants = []

        def user(tag, units, hold):
            yield res.request(units)
            grants.append((tag, eng.now))
            yield eng.timeout(hold)
            res.release(units)

        eng.process(user("holder", 3, 1.0))
        eng.process(user("big", 2, 1.0))
        eng.process(user("small", 1, 1.0))
        eng.run(until=0.5)
        assert res.in_use == 3 and res.queued == 2  # "small" would fit
        eng.run()
        assert grants == [("holder", 0.0), ("big", 1.0), ("small", 1.0)]
        assert res.in_use == 0 and res.queued == 0

    def test_release_grants_every_fitting_head_in_order(self):
        eng = Engine()
        res = Resource(eng, capacity=3)
        grants = []
        held = res.request(3)
        for tag in "abc":
            res.request(1).add_callback(lambda e, tag=tag: grants.append(tag))
        eng.run()
        assert held.triggered and grants == [] and res.queued == 3
        res.release(3)
        eng.run()
        assert grants == ["a", "b", "c"] and res.in_use == 3


def _coi(peer=False, nodes=2):
    eng = Engine()
    ports = {
        d: LinkPair(eng, bandwidth_gbs=1.0, latency_s=0.0, name=f"p{d}")
        for d in range(1, nodes + 1)
    }
    fabric = ScifFabric(eng, Fabric(eng, ports, peer_enabled=peer))
    ctx = COIContext(eng, fabric, BufferPool(2 << 20, lambda n: 0.0), domains=nodes + 1)
    return eng, fabric, ctx


class TestPlumbingEvents:
    """The event-returning entry points are processes over the same
    generator bodies the sim backend runs inline."""

    def test_run_function_fires_with_its_start_time(self):
        eng, _, ctx = _coi()
        pipe = ctx.pipeline(1)
        got = []
        pipe.run_function(1.0).add_callback(lambda e: got.append(("a", e.value)))
        second = pipe.run_function(1.0)
        second.add_callback(lambda e: got.append(("b", e.value, eng.now)))
        eng.run()
        (_, start_a), (_, start_b, end_b) = got
        assert start_b > start_a and end_b > start_b + 1.0

    def test_run_function_rejects_negative_duration_at_call(self):
        _, _, ctx = _coi()
        with pytest.raises(ValueError):
            ctx.pipeline(1).run_function(-1.0)

    def test_transfers_fire_with_nbytes(self):
        eng, fabric, ctx = _coi(peer=True)
        values = []
        for ev in (
            fabric.fabric.ports[1].h2d.transfer(1000),
            fabric.fabric.transfer(0, 1, 2000),
            fabric.fabric.transfer(1, 2, 3000),
            fabric.fabric.transfer(2, 2, 4000),
            fabric.dma(2, 0, 5000),
            ctx.dma(0, 1, 6000),
        ):
            ev.add_callback(lambda e: values.append(e.value))
        eng.run()
        assert sorted(values) == [1000, 2000, 3000, 4000, 5000, 6000]

    def test_transfer_can_be_waited_on_by_a_process(self):
        eng, fabric, _ = _coi()
        got = []

        def waiter():
            got.append((yield fabric.dma(0, 1, int(1e9))))
            got.append(eng.now)

        eng.process(waiter())
        eng.run()
        assert got == [int(1e9), pytest.approx(1.0)]

    def test_dma_steps_match_yielding_the_dma_event(self):
        """The inline body takes the event form's calendar entries,
        including the zero-delay hop before the wire request. Here a
        host-rooted copy reaches node 1's ingress port at the instant a
        queued peer hop is granted node 2's egress: the grant is already
        due, so the peer hop takes the ingress port first."""

        def run(inline):
            eng, _, ctx = _coi(peer=True, nodes=3)
            done = {}

            def move(tag, src, dst, waits=()):
                for dt in waits:
                    yield eng.timeout(dt)
                if inline:
                    yield from ctx.dma_steps(src, dst, int(1e9))
                else:
                    yield ctx.dma(src, dst, int(1e9))
                done[tag] = eng.now

            eng.process(move("2->3", 2, 3))
            eng.process(move("2->1", 2, 1))  # queued for node 2's egress
            eng.process(move("0->1", 0, 1, waits=(0.5, 0.5)))  # due as 2->3 ends
            eng.run()
            return done

        expected = {"2->3": 1.0, "2->1": 2.0, "0->1": 3.0}
        assert run(inline=True) == run(inline=False) == expected


class TestOneProcessPerAction:
    def test_each_sim_action_is_one_engine_process(self, monkeypatch):
        started = []
        real_init = sim_engine.Process.__init__

        def counting_init(self, *args, **kw):
            started.append(self)
            real_init(self, *args, **kw)

        monkeypatch.setattr(sim_engine.Process, "__init__", counting_init)
        hs = HStreams(platform=make_platform("HSW", 1), backend="sim", trace=False)
        hs.register_kernel(
            "k", cost_fn=lambda op: KernelCost(kernel="k", flops=1e7, size=64)
        )
        s = hs.stream_create(domain=1, ncores=4)
        host = hs.stream_create(domain=0, ncores=2)
        for _ in range(3):
            buf = hs.buffer_create(nbytes=1 << 20)
            hs.enqueue_xfer(s, buf)
            hs.enqueue_compute(s, "k", args=(buf.all_inout(),))
            hs.enqueue_xfer(s, buf, XferDirection.SINK_TO_SRC)
            hs.enqueue_compute(host, "k", args=(buf.all_inout(),))
        hs.thread_synchronize()
        assert len(started) == hs.metrics()["actions"]["completed"] == 12
