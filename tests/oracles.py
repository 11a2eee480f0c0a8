"""Independent oracles used by the tests.

These deliberately avoid the package's own shortest-path, label-set and
conditioning code: delays come from exhaustive simple-path enumeration or
Bellman-Ford relaxation, memories from replaying transmissions hop by hop,
conditioning classes from replaying every primitive assignment, and exact
optima from the solvers run on a scenario of ``Fraction`` numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from womctl.infostruct import (
    DEFAULT_ENUM_CAP,
    InfoSet,
    Realization,
    accessible_labels,
    act,
    new_info_labels,
    obs,
)
from womctl.prescription import (
    act as prescribed_action,
    prescription_domain,
    support_prescriptions,
)
from womctl.scenario import Distribution, Scenario, enumerate_primitives
from womctl.topology import Topology


def simple_path_min_delays(t: Topology) -> dict[tuple[int, int], int]:
    """Minimum total delay per ordered pair over all simple paths."""
    adj: dict[int, list[tuple[int, int]]] = {a: [] for a in t.agents()}
    for l in t.links:
        adj[l.src].append((l.dst, l.delay))
    out: dict[tuple[int, int], int] = {}
    for src in t.agents():
        for dst in t.agents():
            if src == dst:
                out[(src, dst)] = 0
                continue
            best = None
            stack = [(src, frozenset((src,)), 0)]
            while stack:
                node, seen, total = stack.pop()
                if node == dst:
                    if best is None or total < best:
                        best = total
                    continue
                for nxt, w in adj[node]:
                    if nxt not in seen:
                        stack.append((nxt, seen | {nxt}, total + w))
            assert best is not None, f"no path {src}->{dst}"
            out[(src, dst)] = best
    return out


def relaxation_delays(t: Topology) -> dict[tuple[int, int], int]:
    """Minimum delays by Bellman-Ford relaxation (no path enumeration)."""
    inf = float("inf")
    n = t.agent_count
    dist = {(a, b): (0 if a == b else inf)
            for a in t.agents() for b in t.agents()}
    for _ in range(n):
        for a in t.agents():
            for l in t.links:
                alt = dist[(a, l.src)] + l.delay
                if alt < dist[(a, l.dst)]:
                    dist[(a, l.dst)] = alt
    return {k: int(v) for k, v in dist.items()}


def replayed_memory(t: Topology, k: int, time: int) -> InfoSet:
    """Memory contents from transmission arrival times.

    Agent j's step-tau broadcast carries its observation at tau and its
    action at tau-1 and reaches k after the minimum relay delay.
    """
    dist = relaxation_delays(t)
    labels = []
    for j, tau in itertools.product(t.agents(), range(time + 1)):
        if tau + dist[(j, k)] <= time:
            labels.append(obs(j, tau))
            if tau > 0:
                labels.append(act(j, tau - 1))
    return InfoSet.of(labels)


def tie_broken_relay_paths(t: Topology) -> dict[tuple[int, int], tuple[int, ...]]:
    """Per ordered pair of distinct agents, the relay path by exhaustive
    simple-path enumeration: least total delay, then least sequence of
    cumulative arrival times, then least node sequence."""
    adj: dict[int, list[tuple[int, int]]] = {a: [] for a in t.agents()}
    for l in t.links:
        adj[l.src].append((l.dst, l.delay))
    best: dict[tuple[int, int], tuple] = {}
    for src in t.agents():
        stack = [((src,), ())]
        while stack:
            nodes, arrivals = stack.pop()
            if len(nodes) > 1:
                key = (arrivals[-1], arrivals, nodes)
                pair = (src, nodes[-1])
                if pair not in best or key < best[pair]:
                    best[pair] = key
            for nxt, w in adj[nodes[-1]]:
                if nxt not in nodes:
                    stack.append((nodes + (nxt,),
                                  arrivals + ((arrivals[-1] if arrivals else 0) + w,)))
    return {pair: key[2] for pair, key in best.items()}


def _values_at(values: dict, labels) -> Realization:
    return Realization(tuple((l, values[l]) for l in labels))


def replayed_members(s, d, k: int, thetas: tuple,
                     cap: int = DEFAULT_ENUM_CAP) -> dict[Realization, list]:
    """Per realization of agent k's shared information at t = len(thetas),
    the (probability, plant state, label values) of every primitive
    assignment that reaches it when the prescriptions ``thetas`` are played."""
    t = len(thetas)
    out: dict[Realization, list] = {}
    for prim in enumerate_primitives(s, cap):
        x, values = prim.x0, {}
        for tau in range(t + 1):
            for j in s.agents():
                values[obs(j, tau)] = s.h(j, tau, x, prim.v[j - 1][tau])
            if tau == t:
                break
            u = tuple(prescribed_action(gamma, _values_at(values, gamma.domain))
                      for gamma in thetas[tau].parts)
            for j in s.agents():
                values[act(j, tau)] = u[j - 1]
            x = s.f(tau, x, u, prim.w[tau])
        a = _values_at(values, accessible_labels(d, k, t))
        out.setdefault(a, []).append((prim.prob, x, values))
    return out


def node_members(s, d, node, cap: int = DEFAULT_ENUM_CAP) -> list:
    """The primitive assignments in one history-tree node's class."""
    return replayed_members(s, d, node.agent, node.thetas, cap)[node.accessible]


@dataclass
class MemberNode:
    """One conditioning class of ``member_history_tree``."""

    time: int
    accessible: Realization
    thetas: tuple
    members: list
    theta_options: list
    # new-information outcomes of the children, per prescription option
    edge_labels: list = field(default_factory=list)

    @property
    def weight(self) -> float:
        return sum(p for p, _x, _values in self.members)


def member_history_tree(s, d, k: int,
                        cap: int = DEFAULT_ENUM_CAP) -> list[MemberNode]:
    """Agent k's reachable conditioning classes in pre-order, each with the
    primitive assignments it holds. Options differ on the values the members
    reach; a child under an option is a class of the longer replay whose
    shared realization extends the parent's."""
    nodes: list[MemberNode] = []

    def grow(t, a, thetas, members):
        doms = [prescription_domain(d, k, j, t) for j in s.agents()]
        node = MemberNode(t, a, thetas, members, list(support_prescriptions(
            s, k, t, doms, [{_values_at(values, dom) for _p, _x, values in members}
                            for dom in doms])))
        nodes.append(node)
        if t == s.horizon:
            return
        z_labels = new_info_labels(d, k, t + 1)
        for theta in node.theta_options:
            classes = replayed_members(s, d, k, thetas + (theta,), cap)
            kids = [a2 for a2 in sorted(classes, key=lambda r: r.items)
                    if a2.restrict(a.domain) == a]
            node.edge_labels.append([a2.restrict(z_labels) for a2 in kids])
            for a2 in kids:
                grow(t + 1, a2, thetas + (theta,), classes[a2])

    classes = replayed_members(s, d, k, (), cap)
    for a0 in sorted(classes, key=lambda r: r.items):
        grow(0, a0, (), classes[a0])
    return nodes


def exact_scenario(s: Scenario) -> Scenario:
    """``s`` with every probability and cost a ``Fraction``: each float read
    as the shortest decimal that prints as it (so a file's decimals are kept
    as written), and each distribution divided by its exact total, so that
    it sums to exactly 1. Without that the routes would differ by about the
    excess mass times the cost bound: a float distribution sums to 1 only
    within ``DIST_TOL``, and ``evaluate_policy`` branches on the plant noise
    at the horizon where the DFS does not. The solvers accumulate from the
    integer 0, so on this scenario they run in exact arithmetic."""
    def exact(dist: Distribution) -> Distribution:
        probs = {v: Fraction(repr(p)) for v, p in dist.probs.items()}
        total = sum(probs.values())
        return Distribution(dist.space, {v: p / total
                                         for v, p in probs.items()})

    return s._replace(
        cost={key: Fraction(repr(c)) for key, c in s.cost.items()},
        init_dist=exact(s.init_dist),
        w_dists={t: exact(dist) for t, dist in s.w_dists.items()},
        v_dists={key: exact(dist) for key, dist in s.v_dists.items()})


def scan_intern(reps: list, b, tol: float) -> int:
    """Belief interning by a plain scan, with no memo: the index of the
    first of ``reps`` whose table is within ``tol`` of ``b``'s in L-infinity
    (a state missing from a table has probability 0), appending ``b`` if
    there is none."""
    for i, r in enumerate(reps):
        if max((abs(r.probs.get(st, 0) - b.probs.get(st, 0))
                for st in r.probs.keys() | b.probs.keys()), default=0) <= tol:
            return i
    reps.append(b)
    return len(reps) - 1
