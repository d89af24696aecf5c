"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Resource,
    SimError,
)


class TestEventBasics:
    def test_new_event_is_untriggered(self):
        eng = Engine()
        ev = eng.event()
        assert not ev.triggered

    def test_trigger_sets_value(self):
        eng = Engine()
        ev = eng.event()
        ev.trigger(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_value_before_trigger_raises(self):
        eng = Engine()
        ev = eng.event()
        with pytest.raises(SimError):
            _ = ev.value

    def test_double_trigger_raises(self):
        eng = Engine()
        ev = eng.event()
        ev.trigger()
        with pytest.raises(SimError):
            ev.trigger()

    def test_fail_records_exception(self):
        eng = Engine()
        ev = eng.event()
        err = RuntimeError("boom")
        ev.fail(err)
        assert ev.triggered and not ev.ok
        assert ev.value is err

    def test_fail_requires_exception(self):
        eng = Engine()
        ev = eng.event()
        with pytest.raises(SimError):
            ev.fail("not an exception")

    def test_callback_after_trigger_runs_immediately(self):
        eng = Engine()
        ev = eng.event()
        ev.trigger("x")
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_callbacks_run_in_registration_order(self):
        eng = Engine()
        ev = eng.event()
        order = []
        ev.add_callback(lambda e: order.append(1))
        ev.add_callback(lambda e: order.append(2))
        ev.trigger()
        assert order == [1, 2]


class TestTimeoutAndClock:
    def test_timeout_advances_clock(self):
        eng = Engine()
        eng.timeout(2.5)
        eng.run()
        assert eng.now == pytest.approx(2.5)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimError):
            eng.timeout(-1.0)

    def test_at_fires_exactly_at_an_absolute_time(self):
        eng = Engine()
        now, when = 0.2538755144855232, 0.8079437334476703
        eng.run(until=now)
        # The relative form rounds one ulp early here.
        assert now + (when - now) < when
        fired = []
        eng.at(when).add_callback(lambda e: fired.append(eng.now))
        eng.run()
        assert fired == [when]
        with pytest.raises(SimError):
            eng.at(when / 2)

    def test_run_until_stops_clock_at_limit(self):
        eng = Engine()
        eng.timeout(10.0)
        eng.run(until=4.0)
        assert eng.now == pytest.approx(4.0)

    def test_same_time_events_fire_in_insertion_order(self):
        eng = Engine()
        order = []
        eng.timeout(1.0).add_callback(lambda e: order.append("a"))
        eng.timeout(1.0).add_callback(lambda e: order.append("b"))
        eng.timeout(1.0).add_callback(lambda e: order.append("c"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_step_on_empty_calendar_raises(self):
        eng = Engine()
        with pytest.raises(SimError):
            eng.step()

    def test_determinism_across_runs(self):
        def build():
            eng = Engine()
            log = []

            def proc(tag, dt):
                yield eng.timeout(dt)
                log.append((tag, eng.now))
                yield eng.timeout(dt)
                log.append((tag, eng.now))

            for i, dt in enumerate([0.3, 0.1, 0.2]):
                eng.process(proc(i, dt))
            eng.run()
            return log

        assert build() == build()


class TestProcesses:
    def test_process_result_is_return_value(self):
        eng = Engine()

        def work():
            yield eng.timeout(1.0)
            return "done"

        p = eng.process(work())
        result = eng.run_until_event(p)
        assert result == "done"

    def test_process_receives_timeout_value(self):
        eng = Engine()
        got = []

        def work():
            v = yield eng.timeout(1.0, value="payload")
            got.append(v)

        eng.process(work())
        eng.run()
        assert got == ["payload"]

    def test_process_sequencing(self):
        eng = Engine()
        times = []

        def work():
            yield eng.timeout(1.0)
            times.append(eng.now)
            yield eng.timeout(2.0)
            times.append(eng.now)

        eng.process(work())
        eng.run()
        assert times == [pytest.approx(1.0), pytest.approx(3.0)]

    def test_failed_event_raises_inside_process(self):
        eng = Engine()
        caught = []

        def work():
            ev = eng.event()
            ev.fail(ValueError("bad"))
            try:
                yield ev
            except ValueError as exc:
                caught.append(str(exc))

        eng.process(work())
        eng.run()
        assert caught == ["bad"]

    def test_yielding_non_event_fails_loudly(self):
        eng = Engine()

        def work():
            yield 7

        p = eng.process(work())
        with pytest.raises(SimError):
            eng.run()
            if not p.ok:
                raise p.value

    def test_deadlock_detection(self):
        eng = Engine()
        never = eng.event()

        def waiter():
            yield never

        p = eng.process(waiter())
        with pytest.raises(SimError, match="deadlock"):
            eng.run_until_event(p)


class TestConditions:
    def test_all_of_waits_for_every_event(self):
        eng = Engine()
        t1, t2 = eng.timeout(1.0), eng.timeout(3.0)
        done = []
        AllOf(eng, [t1, t2]).add_callback(lambda e: done.append(eng.now))
        eng.run()
        assert done == [pytest.approx(3.0)]

    def test_any_of_fires_on_first(self):
        eng = Engine()
        t1, t2 = eng.timeout(1.0), eng.timeout(3.0)
        done = []
        AnyOf(eng, [t1, t2]).add_callback(lambda e: done.append(eng.now))
        eng.run()
        assert done == [pytest.approx(1.0)]

    def test_all_of_empty_fires_immediately(self):
        eng = Engine()
        fired = []
        eng.all_of([]).add_callback(lambda e: fired.append(eng.now))
        eng.run()
        assert fired == [pytest.approx(0.0)]

    def test_all_of_with_pretriggered_events(self):
        eng = Engine()
        e1 = eng.event()
        e1.trigger("v1")
        t = eng.timeout(2.0, value="v2")
        values = []
        eng.all_of([e1, t]).add_callback(lambda e: values.append(e.value))
        eng.run()
        assert values and values[0][e1] == "v1" and values[0][t] == "v2"

    def test_all_of_propagates_failure(self):
        eng = Engine()
        good = eng.timeout(1.0)
        bad = eng.event()
        cond = eng.all_of([good, bad])
        bad.fail(RuntimeError("nope"))
        eng.run()
        assert cond.triggered and not cond.ok


class TestResource:
    def test_capacity_one_serializes(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        finish = []

        def user(tag):
            yield res.request()
            yield eng.timeout(1.0)
            res.release()
            finish.append((tag, eng.now))

        eng.process(user("a"))
        eng.process(user("b"))
        eng.run()
        assert finish == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]

    def test_capacity_two_allows_pairwise_concurrency(self):
        eng = Engine()
        res = Resource(eng, capacity=2)
        finish = []

        def user(tag):
            yield res.request()
            yield eng.timeout(1.0)
            res.release()
            finish.append((tag, eng.now))

        for tag in "abc":
            eng.process(user(tag))
        eng.run()
        assert [t for _, t in finish] == [
            pytest.approx(1.0),
            pytest.approx(1.0),
            pytest.approx(2.0),
        ]

    def test_fifo_grant_order(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        grants = []

        def user(tag):
            yield res.request()
            grants.append(tag)
            yield eng.timeout(0.5)
            res.release()

        for tag in ["first", "second", "third"]:
            eng.process(user(tag))
        eng.run()
        assert grants == ["first", "second", "third"]

    def test_release_when_idle_raises(self):
        eng = Engine()
        res = Resource(eng, capacity=1)
        with pytest.raises(SimError):
            res.release()

    def test_invalid_capacity_rejected(self):
        eng = Engine()
        with pytest.raises(SimError):
            Resource(eng, capacity=0)

    def test_queue_and_in_use_counters(self):
        eng = Engine()
        res = Resource(eng, capacity=1, name="r")

        def holder():
            yield res.request()
            yield eng.timeout(5.0)
            res.release()

        def waiter():
            yield res.request()
            res.release()

        eng.process(holder())
        eng.process(waiter())
        eng.run(until=1.0)
        assert res.in_use == 1
        assert res.queued == 1
