"""The dependence oracle: the paper's definition, kept as test support.

:func:`naive_scan` is the pre-index O(window) newest-first walk. It
returns the **full** conflict set — every incomplete predecessor whose
operands conflict with the probe, cut off at the newest conflicting
barrier — which is what §II of the paper defines as the dependences of
an action. Production code wires only the transitive reduction of that
relation (:meth:`~repro.core.dependences.StreamWindow.conflict_scan`),
so the oracle no longer compares byte for byte. The contract is:

* *reduced ⊆ naive* — the scan never invents an ordering; and
* *every naive dependence is reachable* from the action through the
  recorded (reduced) edges — the scan never loses one.

:func:`assert_reduction` checks both, tracing reachability through
still-live actions only — the edges a scheduler actually holds. That is
the guarantee when actions complete in dependence-respecting order (the
only order a scheduler produces; :func:`completable` lets a fuzzer stay
inside it): a path from an action to a live predecessor then runs
through live actions only.
"""

from typing import Dict, List, Sequence

from repro.core.actions import Action
from repro.core.dependences import DependencePolicy, StreamWindow


def naive_scan(window: StreamWindow, action: Action) -> List[Action]:
    """Every unretired predecessor conflicting with ``action``, oldest
    first.

    Non-mutating; counts its work on the window's scan counters like
    the indexed scan does.
    """
    deps: List[Action] = []
    for prev in reversed(list(window._live.values())):
        window.scan_candidates += 1
        window.scan_comparisons += max(
            1, len(prev.footprint) * len(action.footprint)
        )
        if prev.conflicts_with(action):
            deps.append(prev)
            if prev.barrier:
                break  # the barrier already orders everything older
    deps.reverse()
    return deps


class NaiveRelaxedPolicy(DependencePolicy):
    """Relaxed semantics with the full conflict set as the edge set."""

    __slots__ = ()

    def deps_for(self, window: StreamWindow, action: Action) -> List[Action]:
        return naive_scan(window, action)


def assert_reduction(key, reduced, naive, edges: Dict, live) -> None:
    """Assert ``reduced`` is a sound transitive reduction of ``naive``.

    ``edges`` maps every earlier action key to the (reduced) dependence
    keys recorded when it was admitted; ``live`` holds the keys still
    incomplete. Reachability is traced through live actions only — the
    edges a scheduler still holds. Records ``reduced`` under ``key``
    afterwards, so a caller can feed a whole history through.
    """
    reduced, naive = set(reduced), set(naive)
    assert reduced <= naive, (
        f"{key}: reduced scan returned {sorted(reduced - naive)}, "
        f"which the full conflict set {sorted(naive)} does not contain"
    )
    reachable = set()
    frontier = list(reduced)
    while frontier:
        node = frontier.pop()
        if node in live and node not in reachable:
            reachable.add(node)
            frontier.extend(edges.get(node, ()))
    assert naive <= reachable, (
        f"{key}: conflicting predecessor(s) {sorted(naive - reachable)} are "
        f"not ordered before it through the recorded edges {sorted(reduced)}"
    )
    edges[key] = tuple(reduced)


def completable(live: Sequence, edges: Dict) -> List:
    """The live actions whose recorded producers have all finished.

    Never empty while anything is live: the oldest live action's
    producers are all older, hence finished.
    """
    live_set = set(live)
    return [
        key for key in live
        if not any(dep in live_set for dep in edges.get(key, ()))
    ]
