"""Unit tests for the action graph: lifecycle machine, acyclicity,
retirement, and the deadlock probe."""

import pytest

from repro.core.actions import Action, ActionKind
from repro.core.errors import HStreamsInternalError
from repro.core.graph import ActionGraph, ActionNode, ActionRecord, ActionState


def mk_action(label="a"):
    return Action(kind=ActionKind.COMPUTE, stream=None, kernel="k", label=label)


class TestLifecycle:
    def test_happy_path_transitions(self):
        node = ActionNode(mk_action(), t_enqueue=0.0)
        assert node.state is ActionState.ENQUEUED
        node.transition(ActionState.READY)
        node.transition(ActionState.RUNNING)
        node.transition(ActionState.COMPLETE)
        assert node.state.is_terminal

    def test_ready_may_fail_or_complete_directly(self):
        # Trivial executions (aliased transfers) may skip RUNNING.
        node = ActionNode(mk_action(), t_enqueue=0.0)
        node.transition(ActionState.READY)
        node.transition(ActionState.COMPLETE)
        node2 = ActionNode(mk_action(), t_enqueue=0.0)
        node2.transition(ActionState.READY)
        node2.transition(ActionState.FAILED)
        assert node2.state is ActionState.FAILED

    @pytest.mark.parametrize(
        "path",
        [
            (ActionState.RUNNING,),  # enqueued cannot start without readiness
            (ActionState.COMPLETE,),
            (
                ActionState.READY,
                ActionState.RUNNING,
                ActionState.COMPLETE,
                ActionState.FAILED,  # terminal states are final
            ),
            (
                ActionState.READY,
                ActionState.CANCELLED,
                ActionState.READY,  # cancellation is final too
            ),
            (
                ActionState.READY,
                ActionState.RUNNING,
                ActionState.CANCELLED,  # running work cannot be recalled
            ),
        ],
    )
    def test_illegal_transitions_raise(self, path):
        node = ActionNode(mk_action(), t_enqueue=0.0)
        with pytest.raises(HStreamsInternalError):
            for state in path:
                node.transition(state)

    def test_retry_edges_are_legal(self):
        # failure_policy="retry" re-dispatches: RUNNING -> READY, and a
        # fault raised before on_start leaves READY re-entering READY.
        node = ActionNode(mk_action(), t_enqueue=0.0)
        node.transition(ActionState.READY)
        node.transition(ActionState.RUNNING)
        node.transition(ActionState.READY)
        node.transition(ActionState.READY)
        node.transition(ActionState.RUNNING)
        node.transition(ActionState.COMPLETE)

    def test_poison_edges_are_legal(self):
        # A failed producer cancels ENQUEUED (and not-yet-started READY)
        # dependents.
        node = ActionNode(mk_action(), t_enqueue=0.0)
        node.transition(ActionState.CANCELLED)
        assert node.state.is_terminal
        node2 = ActionNode(mk_action(), t_enqueue=0.0)
        node2.transition(ActionState.READY)
        node2.transition(ActionState.CANCELLED)
        assert node2.state.is_terminal

    def test_terminal_flags(self):
        assert ActionState.COMPLETE.is_terminal
        assert ActionState.FAILED.is_terminal
        assert ActionState.CANCELLED.is_terminal
        for s in (ActionState.ENQUEUED, ActionState.READY, ActionState.RUNNING):
            assert not s.is_terminal

    def test_every_pair_against_the_written_table(self):
        # The lifecycle machine written out here, independently of
        # graph._TRANSITIONS: a dropped or added edge fails this test.
        E, R, U = ActionState.ENQUEUED, ActionState.READY, ActionState.RUNNING
        C, F, X = ActionState.COMPLETE, ActionState.FAILED, ActionState.CANCELLED
        legal = {
            (E, R), (E, X),
            (R, U), (R, C), (R, F), (R, X), (R, R),
            (U, C), (U, F), (U, R),
        }
        assert len(ActionState) == 6
        for old in ActionState:
            for new in ActionState:
                node = ActionNode(mk_action(), t_enqueue=0.0)
                node.state = old
                if (old, new) in legal:
                    node.transition(new)
                    assert node.state is new
                else:
                    with pytest.raises(HStreamsInternalError):
                        node.transition(new)
                    assert node.state is old
        terminal = {C, F, X}
        for state in ActionState:
            assert state.is_terminal is (state in terminal)


class TestRecord:
    def test_stall_decomposition(self):
        node = ActionNode(mk_action(), t_enqueue=1.0)
        node.transition(ActionState.READY)
        node.t_ready = 3.0
        node.transition(ActionState.RUNNING)
        node.t_start = 4.5
        node.transition(ActionState.COMPLETE)
        node.t_end = 7.0
        rec = node.record()
        assert isinstance(rec, ActionRecord)
        assert rec.dep_stall == pytest.approx(2.0)
        assert rec.dispatch_stall == pytest.approx(1.5)
        assert rec.exec_time == pytest.approx(2.5)
        assert rec.total_latency == pytest.approx(6.0)
        assert rec.state == "complete"

    def test_record_contract(self):
        # Field names, order and defaults are part of the record's API
        # (schedule pins and service replies read them).
        assert ActionRecord._fields == (
            "seq", "kind", "stream_id", "label", "state",
            "t_enqueue", "t_ready", "t_start", "t_end", "error", "retries",
        )
        rec = ActionRecord(7, "compute", 2, "k#7", "failed", 1.0, 3.0, 4.5, 7.0)
        assert rec.error is None and rec.retries == 0
        assert rec == ActionRecord(
            seq=7, kind="compute", stream_id=2, label="k#7", state="failed",
            t_enqueue=1.0, t_ready=3.0, t_start=4.5, t_end=7.0,
            error=None, retries=0,
        )
        assert (rec.dep_stall, rec.dispatch_stall) == (2.0, 1.5)
        assert (rec.exec_time, rec.total_latency) == (2.5, 6.0)
        for name in ActionRecord._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
        assert rec.seq == 7

    def test_missing_timestamps_backfill(self):
        # A node that never ran still yields a consistent record.
        node = ActionNode(mk_action(), t_enqueue=2.0)
        rec = node.record()
        assert rec.t_ready == rec.t_start == rec.t_end == 2.0
        assert rec.dep_stall == rec.exec_time == 0.0


class TestGraph:
    def test_add_get_pop(self):
        g = ActionGraph()
        a = mk_action("a")
        node = g.add(a, 0.0)
        assert g.get(a) is node
        assert len(g) == 1
        g.pop(node)
        assert g.get(a) is None
        assert len(g) == 0

    def test_double_add_raises(self):
        g = ActionGraph()
        a = mk_action()
        g.add(a, 0.0)
        with pytest.raises(HStreamsInternalError):
            g.add(a, 0.0)

    def test_edge_wires_waiting_and_dependents(self):
        g = ActionGraph()
        a = mk_action("a")
        na = g.add(a, 0.0)
        nb = g.add(mk_action("b"), 0.0, deps=[a])
        assert nb.waiting == 1
        assert na.dependents == [nb]

    def test_back_edge_is_a_cycle_error(self):
        g = ActionGraph()
        a, b = mk_action("a"), mk_action("b")
        g.add(b, 0.0)
        with pytest.raises(HStreamsInternalError, match="cycle"):
            g.add(a, 0.0, deps=[b])  # newer -> older runs backwards

    def test_stalled_empty_when_progress_possible(self):
        g = ActionGraph()
        a = mk_action("a")
        na = g.add(a, 0.0)
        g.add(mk_action("b"), 0.0, deps=[a])
        na.transition(ActionState.READY)  # a can run -> b is not stalled
        assert g.stalled() == []

    def test_stalled_names_blocked_nodes(self):
        g = ActionGraph()
        a = mk_action("a")
        na = g.add(a, 0.0)
        nb = g.add(mk_action("b"), 0.0, deps=[a])
        # a finishes and retires, but b's waiting count was never
        # decremented (simulating a lost completion): true deadlock.
        na.transition(ActionState.READY)
        na.transition(ActionState.COMPLETE)
        g.pop(na)
        assert [n.action.display for n in g.stalled()] == [nb.action.display]

    def test_stalled_empty_graph(self):
        assert ActionGraph().stalled() == []
