"""Invariant verification suites behind ``womctl verify``.

Every structural claim the package relies on is checked here against an
independent route: delay matrices against exhaustive path enumeration,
memories against a time-stepped flood of transmissions, filters against
direct conditioning, solver values against each other. A run draws its
seeded cases one at a time and runs every check on each, so reports
reproduce byte-for-byte.
"""

from __future__ import annotations

import functools
import gc
import itertools
import os
from collections import namedtuple
from typing import Iterator

from .belief import (
    BELIEF_TOL,
    BeliefState,
    _Engine,
    belief_linf,
    belief_prescriptions,
    belief_successors,
    class_successors,
    root_classes,
    stage_cost_hat,
    state_step,
    sufficient_info_labels,
)
from .errors import EnumerationCapExceeded, check_cap
from .infostruct import (
    DEFAULT_ENUM_CAP,
    InfoSet,
    accessible_labels,
    act as act_label,
    clear_label_caches,
    history_slots,
    inaccessible_labels,
    memory_labels,
    new_info_labels,
    obs as obs_label,
    realization_at,
)
from .prescription import (
    CompletePrescription,
    act,
    complete_prescription_at,
    policy_to_strategy,
    positional_transfer,
    prescription_domain,
    strategy_to_policy,
)
from .randgen import (
    random_scenario,
    random_strategy,
    random_topology,
    random_total_policy,
    sub_rng,
)
from .scenario import (
    Scenario,
    enumerate_primitives,
    joint_distribution,
    propagate,
    simulate,
)
from .scenario_io import load_scenario
from .solver import (
    DEFAULT_POLICY_CAP,
    _BeliefReps,
    _belief_reps_intern,
    brute_force_optimal,
    common_info_dp,
    domain_comparison,
    evaluate_policy,
    evaluate_strategy,
    structural_search,
)
from .topology import DelayMatrix, Topology, information_paths, min_delay_matrix

EQ_TOL = 1e-12


# -- independent oracles --------------------------------------------------------

def min_delay_by_paths(t: Topology) -> dict[tuple[int, int], int]:
    """All-pairs minimum delay by exhaustive simple-path enumeration: every
    simple path from a source is a prefix met by one walk from it."""
    out = {}
    adj: dict[int, list] = {a: [] for a in t.agents()}
    for l in t.links:
        adj[l.src].append((l.dst, l.delay))
    for a in t.agents():
        best = {a: 0}
        stack = [(a, {a}, 0)]  # (last node, nodes on the path, total delay)
        while stack:
            node, seen, total = stack.pop()
            for nxt, w in adj[node]:
                if nxt not in seen:
                    best[nxt] = min(best.get(nxt, total + w), total + w)
                    stack.append((nxt, seen | {nxt}, total + w))
        out.update(((a, b), best.get(b)) for b in t.agents())
    return out


def replay_memory(t: Topology, k: int, time: int) -> InfoSet:
    """Agent k's memory reconstructed by simulating the transmissions.

    Every agent emits its current observation and previous action at each
    step; receivers relay everything new over their outgoing links. This
    never consults the delay matrix, so it is an independent route to the
    memory contents.
    """
    arrival: dict[tuple[int, int], dict[int, int]] = {}  # packet -> node -> time
    pending: list[tuple[int, tuple[int, int], int]] = []  # (arrive, packet, node)
    out_links = {a: t.out_links(a) for a in t.agents()}

    def deliver(packet, node, when):
        seen = arrival.setdefault(packet, {})
        if node in seen and seen[node] <= when:
            return
        seen[node] = when
        for l in out_links[node]:
            pending.append((when + l.delay, packet, l.dst))

    for now in range(time + 1):
        for j in t.agents():
            deliver((j, now), j, now)
        still = []
        for arrive, packet, node in pending:
            if arrive <= now:
                deliver(packet, node, arrive)
            else:
                still.append((arrive, packet, node))
        pending = still

    labels = []
    for (j, tau), seen in arrival.items():
        if seen.get(k, time + 1) <= time:
            labels.append(obs_label(j, tau))
            if tau > 0:
                labels.append(act_label(j, tau - 1))
    return InfoSet.of(labels)


# -- reachable conditioning histories --------------------------------------------

class HistoryNode(namedtuple(
        "HistoryNode", "agent time accessible thetas weight belief children")):
    """One reachable conditioning class: shared realization + prescriptions,
    with its probability and the sufficient-state conditional given both.
    Below the horizon each prescription option carries its own edges: a
    ``children`` entry is ``(theta, [(z, weight, child node), ...])``. A
    leaf holds no options, as nothing reads them there."""

    __slots__ = ()


def history_tree(s: Scenario, d: DelayMatrix, k: int,
                 assign_cap: int = DEFAULT_ENUM_CAP,
                 node_cap: int = DEFAULT_POLICY_CAP
                 ) -> tuple[list[HistoryNode], list[HistoryNode]]:
    """All reachable conditioning histories of agent k, as a tree.

    Nodes at time t are the conditioning classes for their prescription
    history. One ``_Engine`` per tree steps them all: the roots are
    ``root_classes``, and a node's children under a prescription option are
    its own member classes pushed one step (``class_successors``). Edges
    branch over the prescriptions that differ on the node's support and then
    over the classes that extend the node's shared realization, labelled by
    the new-information outcome. The node list is in pre-order: each node
    precedes its subtree, and subtrees follow in edge order. A node's member
    classes live only while it waits on the stack, and a leaf holds none; one
    table per call shares equal Realizations ``a`` and ``z`` among the nodes.
    Nodes popped and stacked plus a node's options (each has a child) are
    checked against ``node_cap`` before it is expanded, and the finished
    tree's count after, so the cap raises exactly when the tree exceeds it.
    """
    table: dict = {}
    eng = _Engine(s)
    stack = [(HistoryNode(agent=k, time=0, accessible=a0, thetas=(),
                          weight=pa0, belief=pi0, children=[]), classes)
             for a0, pa0, pi0, classes in reversed(
                 root_classes(eng, d, k, table, assign_cap))]
    roots = [root for root, _classes in reversed(stack)]
    all_nodes: list[HistoryNode] = []
    while stack:
        node, classes = stack.pop()
        all_nodes.append(node)
        t = node.time
        if t == s.horizon:
            continue
        options = belief_prescriptions(s, d, node.belief)
        check_cap("conditioning histories", len(all_nodes) + len(stack)
                  + options.size, node_cap, exact=False)
        child_is_leaf = t + 1 == s.horizon
        pending = []
        for theta in options:
            thetas2 = node.thetas + (theta,)
            edges = []
            for a2, z, pa2, pi2, classes2 in class_successors(
                    eng, d, k, t, classes, theta, table):
                child = HistoryNode(agent=k, time=t + 1, accessible=a2,
                                    thetas=thetas2, weight=pa2, belief=pi2,
                                    children=[])
                edges.append((z, pa2, child))
                pending.append((child, None if child_is_leaf else classes2))
            node.children.append((theta, edges))
        stack.extend(reversed(pending))
    check_cap("conditioning histories", len(all_nodes), node_cap)
    return roots, all_nodes


def theta_fingerprint(theta: CompletePrescription) -> tuple:
    return tuple(
        tuple(sorted((l.items, u) for l, u in gamma.table.items()))
        for gamma in theta.parts)


# -- the check catalogue ----------------------------------------------------------

class CheckResult:
    """Running instance count and worst deviation of one check; the first
    instance whose deviation passes ``tol`` times its scale ends the check
    and is its counterexample. A boolean deviation (the instance failed)
    counts as 1.0."""

    __slots__ = ("name", "description", "tol", "instances", "worst_deviation",
                 "counterexample")

    def __init__(self, name: str, description: str, tol: float = BELIEF_TOL):
        self.name, self.description, self.tol = name, description, tol
        self.instances, self.worst_deviation = 0, 0.0
        self.counterexample = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def see(self, deviation: float | bool, witness: dict | None,
            scale: float = 1.0) -> None:
        if self.passed:
            self.instances += 1
            if isinstance(deviation, bool):
                deviation = float(deviation)
            self.worst_deviation = max(self.worst_deviation, deviation)
            if deviation > self.tol * scale:
                self.counterexample = witness

    def merge(self, later: "CheckResult") -> None:
        """Add the tally of the cases after this one's, as ``see`` would have
        seen their instances: nothing once this tally has failed."""
        if self.passed:
            self.instances += later.instances
            self.worst_deviation = max(self.worst_deviation,
                                       later.worst_deviation)
            self.counterexample = later.counterexample


class Case(namedtuple(
        "Case", "seed policy_cap assign_cap graph info scenario pairs",
        defaults=(None, None, None, False))):
    """One case of a verify run, with the settings its checks read. Each part
    feeds the checks of its kind: a random index gives a graph and an info
    part, a scenario file all three parts at once, and one case of every run
    holds the delay-reduction pairs.

    ``graph`` is (name, topology, delays), ``info`` (name, topology, delays,
    horizon) and ``scenario`` (position among the run's scenario cases,
    name, topology, delays, scenario); the model, filter and solver checks
    run on the last."""

    __slots__ = ()


def _case_count(scenario_path: str | None, random_n: int) -> int:
    """The number of cases of a run (see ``_case_key``)."""
    return 1 + (scenario_path is not None) + random_n + 3 * (random_n > 0)


def _case_key(scenario_path: str | None, random_n: int, n: int
              ) -> tuple[str, int]:
    """Case ``n`` of a run as a (source, index) pair: the delay-reduction
    pairs, the scenario file if any, the random indices, then three scenario
    cases when there are random ones."""
    heads = [("pairs", 0)] + [("file", 0)] * (scenario_path is not None)
    if n < len(heads):
        return heads[n]
    n -= len(heads)
    return ("random", n) if n < random_n else ("scn", n - random_n)


def build_inputs(scenario_path: str | None, random_n: int, seed: int,
                 policy_cap: int = DEFAULT_POLICY_CAP,
                 assign_cap: int = DEFAULT_ENUM_CAP,
                 lo: int = 0, hi: int | None = None) -> Iterator[Case]:
    """Cases ``lo`` to ``hi - 1`` of a run, each drawn when it is reached:
    the delay-reduction pairs, the scenario file, graph and info case i for
    every random index i from their own streams, then the random scenario
    cases."""
    first_scn = 0 if scenario_path is None else 1
    count = _case_count(scenario_path, random_n)
    for n in range(*slice(lo, hi).indices(count)):
        source, i = _case_key(scenario_path, random_n, n)
        parts: dict = {}
        if source == "pairs":
            parts["pairs"] = True
        elif source == "file":
            topo, s = load_scenario(scenario_path)
            d = min_delay_matrix(topo)
            parts["graph"] = ("scenario", topo, d)
            parts["info"] = ("scenario", topo, d, s.horizon)
            parts["scenario"] = (0, "scenario", topo, d, s)
        elif source == "random":
            topo = random_topology(sub_rng(seed, 1, i), max_agents=6)
            parts["graph"] = (f"graph-{i}", topo, min_delay_matrix(topo))
            rng = sub_rng(seed, 2, i)
            topo = random_topology(rng, max_agents=5)
            parts["info"] = (f"info-{i}", topo, min_delay_matrix(topo),
                             rng.integers(0, 7))
        elif i < 2:
            rng = sub_rng(seed, 3, i)
            topo = random_topology(rng, max_agents=2, min_agents=2)
            s = random_scenario(rng, topo, horizon=1)
            parts["scenario"] = (first_scn + i, f"scn-{i}", topo,
                                 min_delay_matrix(topo), s)
        else:
            rng = sub_rng(seed, 3, 2)
            topo = Topology.of(1, [])
            s = random_scenario(rng, topo, horizon=1, noisy_obs=True)
            parts["scenario"] = (first_scn + 2, "scn-single", topo,
                                 min_delay_matrix(topo), s)
        yield Case(seed, policy_cap, assign_cap, **parts)


# every check, in the order of definition, which is the report's order
CHECKS: list = []


def _checks(kind: str, run, *specs) -> list:
    """The checks on the cases with a ``kind`` part that one pass
    ``run(case, *tallies)`` feeds, one per ``(name, description[, tol])``
    spec and in spec order, each appended to ``CHECKS``; the pass takes
    their tallies in that order. A check takes the case and the run's
    tallies by name, and returns its own tally. The first check runs the
    pass on the case while any of the pass's checks is still passing; the
    others only return their tally."""
    names = [spec[0] for spec in specs]

    def check_for(spec):
        name = spec[0]
        runs_pass = name == names[0]

        def check(case: Case, results) -> CheckResult:
            tallies = [results[n] for n in names]
            if runs_pass and any(r.passed for r in tallies):
                run(case, *tallies)
            return results[name]
        check.__name__, check.kind, check.spec = name, kind, spec
        CHECKS.append(check)
        return check
    return [check_for(spec) for spec in specs]


def _check(kind: str, name: str, description: str, tol: float = BELIEF_TOL):
    """Turn a generator that yields one (deviation, witness[, scale]) per
    instance of a case into check ``name``, the one check of its own pass:
    the generator is not resumed after the first failing instance, nor
    started once the check has failed."""
    def wrap(instances):
        def run(case: Case, result: CheckResult) -> None:
            for deviation, witness, *scale in instances(case):
                result.see(deviation, witness, *scale)
                if not result.passed:
                    break
        check, = _checks(kind, run, (name, description, tol))
        return functools.wraps(instances)(check)
    return wrap


def _first_over(parts, tol: float = BELIEF_TOL):
    """The (deviation, witness) of an instance made of several parts: the
    first part whose deviation passes ``tol``, else the largest deviation."""
    worst = 0.0
    for deviation, witness in parts:
        if deviation > tol:
            return deviation, witness
        worst = max(worst, deviation)
    return worst, None


@_check("graph", "delay_diagonal_zero",
        "minimum delay of every agent to itself is zero")
def check_delay_diagonal_zero(case: Case):
    name, topo, d = case.graph
    yield _first_over((d.delay(a, a) != 0, {"case": name, "agent": a})
                      for a in topo.agents())


@_check("graph", "delay_triangle_inequality",
        "minimum delays satisfy the triangle inequality")
def check_delay_triangle(case: Case):
    name, topo, d = case.graph
    yield _first_over(
        (d.delay(i, k) > d.delay(i, j) + d.delay(j, k),
         {"case": name, "triple": [i, j, k]})
        for i, j, k in itertools.product(topo.agents(), repeat=3))


@_check("graph", "delay_matrix_matches_path_enumeration",
        "delay matrix equals exhaustive simple-path enumeration")
def check_delay_vs_path_enumeration(case: Case):
    name, topo, d = case.graph
    yield _first_over(
        (abs(d.delay(a, b) - v), {"case": name, "pair": [a, b],
                                  "matrix": d.delay(a, b), "oracle": v})
        for (a, b), v in min_delay_by_paths(topo).items())


def _relay_path_mismatches(name: str, topo: Topology, d: DelayMatrix):
    """Per ordered pair: whether the link delays along the relay path miss
    the delay-matrix entry (or no relay path was found)."""
    link_delay = {(l.src, l.dst): l.delay for l in topo.links}
    for a in topo.agents():
        paths = information_paths(topo, a, d)
        for b in topo.agents():
            if b == a:
                continue
            nodes = paths[b].nodes if b in paths else None
            yield (nodes is None or d.delay(a, b) != sum(
                link_delay[hop] for hop in zip(nodes, nodes[1:])),
                {"case": name, "pair": [a, b],
                 "path": None if nodes is None else list(nodes)})


@_check("graph", "information_path_delay_matches_matrix",
        "relay path delay equals the delay-matrix entry for every pair")
def check_information_path_delay(case: Case):
    yield _first_over(_relay_path_mismatches(*case.graph))


@_check("graph", "delay_matrix_finite",
        "strong connectivity yields finite integer delays everywhere")
def check_delay_finite(case: Case):
    name, _topo, d = case.graph
    yield _first_over((not isinstance(x, int) or x < 0,
                       {"case": name, "entry": repr(x)})
                      for row in d.rows for x in row)


def _primitive_product(s: Scenario, traj) -> float:
    q = s.init_dist.prob(traj.states[0])
    for t in s.times():
        q *= s.w_dists[t].prob(traj.w[t])
        for k in s.agents():
            q *= s.v_dists[(k, t)].prob(traj.v[k - 1][t])
    return q


@_check("scenario", "trajectory_probability_is_primitive_product",
        "trajectory probability equals the product of its primitive "
        "probabilities", tol=EQ_TOL)
def check_trajectory_probability_product(case: Case):
    idx, name, _topo, d, s = case.scenario
    g = random_total_policy(sub_rng(case.seed, 10, idx), s, d, case.assign_cap)
    yield _first_over(
        ((abs(p - _primitive_product(s, traj)), {"case": name})
         for traj, p in joint_distribution(s, d, g, case.assign_cap).items()),
        EQ_TOL)


@_check("scenario", "simulate_matches_enumerated_trajectory",
        "sampled trajectories appear in the exact trajectory distribution")
def check_simulate_matches_enumeration(case: Case):
    idx, name, topo, d, s = case.scenario
    g = random_total_policy(sub_rng(case.seed, 11, idx), s, d, case.assign_cap)
    dist = joint_distribution(s, d, g, case.assign_cap)
    for seed in range(5):
        traj = simulate(s, topo, g, seed)
        yield (traj not in dist or dist[traj] <= 0.0,
               {"case": name, "seed": seed})


@_check("scenario", "trajectory_stage_costs_match_cost_table",
        "recorded stage costs equal the cost table on (t, state, actions)")
def check_stage_costs_match(case: Case):
    idx, name, _topo, d, s = case.scenario
    g = random_total_policy(sub_rng(case.seed, 12, idx), s, d, case.assign_cap)
    yield _first_over(
        (cost != s.c(t, x, u), {"case": name, "t": t})
        for traj in joint_distribution(s, d, g, case.assign_cap)
        for t, (x, u, cost) in enumerate(zip(
            traj.states, zip(*traj.actions), traj.stage_costs)))


@_check("info", "accessible_info_monotone_in_time",
        "shared information only grows with time")
def check_accessible_monotone(case: Case):
    name, topo, d, T = case.info
    yield _first_over(
        (not accessible_labels(d, k, t - 1).issubset(
            accessible_labels(d, k, t)), {"case": name, "agent": k, "t": t})
        for k in topo.agents() for t in range(1, T + 1))


@_check("info", "accessible_info_nested_across_agents",
        "later agents' shared information nests inside earlier agents'")
def check_accessible_nesting(case: Case):
    name, topo, d, T = case.info
    K = topo.agent_count
    yield _first_over(
        (not accessible_labels(d, j, t).issubset(
            accessible_labels(d, k, t)), {"case": name, "pair": [k, j],
                                          "t": t})
        for k in range(1, K + 1) for j in range(k, K + 1)
        for t in range(T + 1))


def _partition_breaks(d: DelayMatrix, k: int, j: int, t: int) -> bool:
    mem = memory_labels(d, k, t)
    acc = accessible_labels(d, j, t)
    lkj = inaccessible_labels(d, k, j, t)
    return lkj.union(acc) != mem or len(lkj.intersect(acc)) != 0


@_check("info", "memory_partition_by_accessible_and_inaccessible",
        "private plus shared information partitions each memory")
def check_memory_partition(case: Case):
    name, topo, d, T = case.info
    K = topo.agent_count
    yield _first_over(
        (_partition_breaks(d, k, j, t), {"case": name, "pair": [k, j],
                                         "t": t})
        for k in range(1, K + 1) for j in range(k, K + 1)
        for t in range(T + 1))


@_check("info", "own_inaccessible_within_common_inaccessible",
        "own private domain is contained in the last agent's view of it")
def check_own_private_within_common_private(case: Case):
    name, topo, d, T = case.info
    K = topo.agent_count
    yield _first_over(
        (not inaccessible_labels(d, k, k, t).issubset(
            inaccessible_labels(d, k, K, t)),
         {"case": name, "agent": k, "t": t})
        for k in range(1, K + 1) for t in range(T + 1))


@_check("info", "memory_monotone_in_time",
        "memories only grow with time (perfect recall)")
def check_memory_monotone(case: Case):
    name, topo, d, T = case.info
    yield _first_over(
        (not memory_labels(d, k, t - 1).issubset(memory_labels(d, k, t)),
         {"case": name, "agent": k, "t": t})
        for k in topo.agents() for t in range(1, T + 1))


@_check("info", "memory_matches_transmission_replay",
        "memory formula agrees with a time-stepped transmission flood")
def check_memory_vs_replay(case: Case):
    name, topo, d, T = case.info
    yield _first_over(
        (memory_labels(d, k, t) != replay_memory(topo, k, t),
         {"case": name, "agent": k, "t": t})
        for k in topo.agents() for t in range(T + 1))


def _induced_actions(s, d, psi, cap):
    """Action profiles per primitive assignment under a strategy."""
    g = strategy_to_policy(s, d, psi, cap)
    return [propagate(s, d, prim, g).actions
            for prim in enumerate_primitives(s, cap)]


@_check("scenario", "prescription_action_consistency_across_owners",
        "re-seated strategies generate identical action profiles everywhere")
def check_prescription_consistency(case: Case):
    cap = case.assign_cap
    idx, name, _topo, d, s = case.scenario
    for k in s.agents():
        psi = random_strategy(sub_rng(case.seed, 13, idx, k), s, d, k, cap)
        base = _induced_actions(s, d, psi, cap)
        for j in s.agents():
            moved = positional_transfer(psi, j, s, d, cap)
            yield (_induced_actions(s, d, moved, cap) != base,
                   {"case": name, "owner": k, "target": j})


@_check("scenario", "policy_strategy_round_trip_identity",
        "splitting a policy into prescriptions and back reproduces it")
def check_round_trip(case: Case):
    cap = case.assign_cap
    idx, name, _topo, d, s = case.scenario
    for rep in range(3):
        g = random_total_policy(sub_rng(case.seed, 14, idx, rep), s, d, cap)
        for k in s.agents():
            g2 = strategy_to_policy(
                s, d, policy_to_strategy(s, d, g, k, cap), cap)
            yield g2.tables != g.tables, {"case": name, "owner": k,
                                          "rep": rep}


@_check("scenario", "prescription_domains_match_partition_rule",
        "every generated prescription has exactly the declared domain")
def check_prescription_domains(case: Case):
    idx, name, _topo, d, s = case.scenario
    for k in s.agents():
        psi = random_strategy(sub_rng(case.seed, 15, idx, k), s, d, k,
                              case.assign_cap)
        want = {key: prescription_domain(d, k, *key) for key in psi.parts}
        yield _first_over(
            (gamma.domain != want[j, t],
             {"case": name, "owner": k, "target": j, "t": t})
            for (j, t), rows in psi.parts.items()
            for gamma in rows.values())


@_check("scenario", "positional_transfer_composition",
        "re-seating via an intermediate agent equals re-seating directly")
def check_transfer_composition(case: Case):
    cap = case.assign_cap
    idx, name, _topo, d, s = case.scenario
    k = s.agent_count  # owner
    psi = random_strategy(sub_rng(case.seed, 16, idx), s, d, k, cap)
    direct = {i: _induced_actions(
        s, d, positional_transfer(psi, i, s, d, cap), cap)
        for i in s.agents()}
    for j in s.agents():
        via = positional_transfer(psi, j, s, d, cap)
        for i in s.agents():
            through = positional_transfer(via, i, s, d, cap)
            yield (_induced_actions(s, d, through, cap) != direct[i],
                   {"case": name, "via": j, "to": i})


def _filter_pass(case: Case, chain: CheckResult, independent: CheckResult,
                 markov: CheckResult, normalized: CheckResult) -> None:
    """The four filter checks, fed by one pre-order walk over the history
    tree of each agent of the case. A root's chained belief is its direct
    conditioning on the empty prescription history; every other node's is
    the filter update of its parent's, and every node carries its own direct
    conditioning as ``node.belief``. An outcome that the filter gives
    probability 0 gets the empty belief, which fails the chain check."""
    _idx, name, _topo, d, s = case.scenario
    for k in s.agents():
        roots, nodes = history_tree(s, d, k, case.assign_cap,
                                    case.policy_cap)
        # chained beliefs of the nodes not visited yet, by node id
        chained = {id(root): root.belief for root in roots}
        seen: dict[tuple, BeliefState] = {}
        # the independence and Markov checks intern into their own lists,
        # one per time: equal (x, values) keys of two times are two states
        reps = [_BeliefReps() for _ in s.times()]
        markov_reps = [_BeliefReps() for _ in s.times()]
        groups: dict[tuple, list] = {}
        for node in nodes:
            pi = chained.pop(id(node))
            at = {"case": name, "agent": k, "t": node.time}
            chain.see(belief_linf(pi, node.belief), at)
            normalized.see(max(abs(pi.total() - 1.0),
                               abs(node.belief.total() - 1.0)), at)
            rid = _belief_reps_intern(reps[node.time], pi)
            if node.time < s.horizon:
                markov_rid = _belief_reps_intern(markov_reps[node.time], pi)
            for theta, edges in node.children:
                tkey = theta_fingerprint(theta)
                posterior = {z: b for z, _pz, b
                             in belief_successors(s, d, pi, theta)}
                # successor law from the history itself: conditional
                # probability of each outcome times the successor class
                law = {}
                for z, w, child in edges:
                    nxt = chained[id(child)] = posterior.get(z) or BeliefState(
                        owner=k, time=node.time + 1, probs={})
                    first = seen.setdefault(
                        (node.time, rid, tkey, z.items), nxt)
                    independent.see(0.0 if first is nxt
                                    else belief_linf(first, nxt), at)
                    nid = _belief_reps_intern(markov_reps[node.time + 1], nxt)
                    law[nid] = law.get(nid, 0.0) + w / node.weight
                groups.setdefault((node.time, markov_rid, tkey), []
                                  ).append(law)
        for (t, _rid, _tkey), (base, *laws) in groups.items():
            markov.see(max((abs(base.get(r, 0.0) - law.get(r, 0.0))
                            for law in laws for r in set(base) | set(law)),
                           default=0.0),
                       {"case": name, "agent": k, "t": t})


_checks(
    "scenario", _filter_pass,
    ("filter_chain_matches_direct_conditioning",
     "chained filter updates equal direct conditioning at every history"),
    ("filter_output_strategy_independent",
     "filter output depends only on (belief, prescription, new info)"),
    ("belief_evolution_markov",
     "histories with equal (belief, prescription) induce equal successor "
     "laws"),
    ("belief_normalization", "every computed belief sums to one"))


@_check("scenario", "sufficient_state_step_deterministic",
        "sufficient state, noises and prescription determine the next step")
def check_sufficient_state_determinism(case: Case):
    idx, name, _topo, d, s = case.scenario
    K = s.agent_count
    for k in s.agents():
        for rep in range(2):
            psi = random_strategy(sub_rng(case.seed, 17, idx, k, rep), s, d,
                                  k, case.assign_cap)
            g = strategy_to_policy(s, d, psi, case.assign_cap)
            for prim in enumerate_primitives(s, case.assign_cap):
                traj = propagate(s, d, prim, g)
                h, us = traj.history, traj.actions
                for t in s.times():
                    at = {"case": name, "agent": k, "t": t}
                    info = realization_at(sufficient_info_labels(d, k, t), h, K)
                    st = (traj.states[t], info.values)
                    theta = complete_prescription_at(
                        s, d, psi, t,
                        realization_at(accessible_labels(d, k, t), h, K))
                    # equal stage costs alone would let a wrong action
                    # with the same cost through
                    if tuple(act(gamma, info.restrict(gamma.domain))
                             for gamma in theta.parts) != tuple(
                            us[j - 1][t] for j in s.agents()):
                        yield True, {**at, "what": "actions"}
                        continue
                    cost_wrong = (stage_cost_hat(s, st, theta, d)
                                  != traj.stage_costs[t])
                    if cost_wrong or t == s.horizon:
                        yield cost_wrong, {**at, "what": "stage cost"}
                        continue
                    vn = tuple(prim.v[j - 1][t + 1] for j in s.agents())
                    st2, z2 = state_step(s, d, st, prim.w[t], vn, theta)
                    want_st2 = (traj.states[t + 1], tuple([
                        h[i] for i in history_slots(
                            sufficient_info_labels(d, k, t + 1), K)]))
                    want_z = realization_at(new_info_labels(d, k, t + 1),
                                            h, K)
                    yield (st2 != want_st2 or z2 != want_z,
                           {**at, "what": "state step"})


def _cost_scale(s: Scenario) -> float:
    """What the tolerance of a check that compares expected costs is
    multiplied by: max(1, B), so that it holds at any cost magnitude."""
    return max(1.0, s.cost_bound)


@_check("scenario", "strategy_policy_cost_equivalence",
        "policy route and prescription route give the same expected cost",
        tol=EQ_TOL)
def check_cost_equivalence(case: Case):
    cap = case.assign_cap
    idx, name, _topo, d, s = case.scenario
    scale = _cost_scale(s)
    for rep in range(5):
        g = random_total_policy(sub_rng(case.seed, 18, idx, rep), s, d, cap)
        base = evaluate_policy(s, d, g, cap)
        for k in s.agents():
            psi = policy_to_strategy(s, d, g, k, cap)
            yield (abs(evaluate_strategy(s, d, psi, cap) - base),
                   {"case": name, "owner": k, "rep": rep}, scale)


def _capped(solve, *args):
    """``solve(*args)``, or None when the solve exceeds an enumeration cap."""
    try:
        return solve(*args)
    except EnumerationCapExceeded:
        return None


def _solver_pass(case: Case, dp_brute: CheckResult, greedy: CheckResult,
                 structural: CheckResult) -> None:
    """The three solver checks, fed by one brute-force and one common-info
    solve of the case; a capped solve skips the checks that need it."""
    _idx, name, _topo, d, s = case.scenario
    caps = (case.policy_cap, case.assign_cap)
    scale = _cost_scale(s)
    br = _capped(brute_force_optimal, s, d, *caps)
    dp = _capped(common_info_dp, s, d, *caps)
    if br is not None and dp is not None:
        dp_brute.see(abs(br.value - dp.value),
                     {"case": name, "brute": br.value, "dp": dp.value}, scale)
    if dp is not None and greedy.passed:
        got = evaluate_strategy(s, d, dp.argmin, case.assign_cap)
        greedy.see(abs(got - dp.value),
                   {"case": name, "value": dp.value, "evaluated": got}, scale)
    if br is None or not structural.passed:
        return
    for k in s.agents():
        st = _capped(structural_search, s, d, k, *caps)
        if st is not None:
            structural.see(abs(st.value - br.value),
                           {"case": name, "agent": k,
                            "brute": br.value, "structural": st.value}, scale)


_checks(
    "scenario", _solver_pass,
    ("dp_matches_brute_force",
     "belief-space backward induction attains the exhaustive optimum"),
    ("dp_greedy_strategy_reproduces_value",
     "evaluating the greedy strategy reproduces the backward value"),
    ("structural_form_matches_brute_force",
     "structural-form search attains the exhaustive optimum for every "
     "agent"))


@_check("pairs", "delay_reduction_never_increases_optimal_cost",
        "uniformly shorter delays never increase the optimal cost", tol=EQ_TOL)
def check_monotone_information(case: Case):
    caps = (case.policy_cap, case.assign_cap)
    for i in range(3):
        rng = sub_rng(case.seed, 19, i)
        K = 2
        delay = rng.integers(2, 4)
        slow = Topology.of(K, [(1, 2, delay), (2, 1, delay)])
        fast = Topology.of(K, [(1, 2, delay - 1), (2, 1, delay - 1)])
        s = random_scenario(rng, slow, horizon=1)
        try:
            j_slow = brute_force_optimal(s, min_delay_matrix(slow), *caps).value
            j_fast = brute_force_optimal(s, min_delay_matrix(fast), *caps).value
        except EnumerationCapExceeded:
            continue
        yield (j_fast - j_slow, {"pair": i, "slow": j_slow, "fast": j_fast},
               _cost_scale(s))


@_check("scenario", "domain_report_subset_relation",
        "domain report certifies the private-domain subset relation")
def check_domain_subset_report(case: Case):
    _idx, name, _topo, d, s = case.scenario
    yield _first_over(
        (not row.subset or row.own_labels > row.common_labels
         or row.own_realizations > row.common_realizations,
         {"case": name, "agent": row.agent, "t": row.time})
        for row in domain_comparison(s, d).rows)


# Cases between two full collections in ``run_cases``. A full collection also
# empties the interpreter's free lists, whose blocks would otherwise keep
# allocator arenas mapped: without it, peak RSS grows by about 1 MB per 1,000
# random cases although no object outlives its case.
_COLLECT_EVERY = 64


def run_cases(scenario_path: str | None, random_n: int, seed: int,
              caps: tuple[int, int] = (DEFAULT_POLICY_CAP, DEFAULT_ENUM_CAP),
              lo: int = 0, hi: int | None = None) -> list[CheckResult]:
    """Every check over cases ``lo`` to ``hi - 1`` of a run, one case at a
    time and in case order; the tallies come in ``CHECKS`` order.

    A case is dropped once its checks have run, and the label caches keyed
    by delay matrix are emptied between cases, so they hold one case's
    entries at most."""
    results = {fn.spec[0]: CheckResult(*fn.spec) for fn in CHECKS}
    for n, case in enumerate(build_inputs(scenario_path, random_n, seed,
                                          *caps, lo, hi)):
        if n:
            clear_label_caches()
            sufficient_info_labels.cache_clear()
            if n % _COLLECT_EVERY == 0:
                gc.collect()
        for fn in CHECKS:
            if getattr(case, fn.kind):
                fn(case, results)
    return list(results.values())


def case_ranges(cases: int, jobs: int) -> list[tuple[int, int]]:
    """Up to ``jobs`` contiguous, non-empty ranges that cover the cases
    ``0 .. cases - 1``, in order and as even as can be."""
    parts = min(jobs, cases)
    return [(cases * i // parts, cases * (i + 1) // parts)
            for i in range(parts)]


def merge_tallies(tallies: list[list[CheckResult]]) -> list[CheckResult]:
    """One tally per check from the tallies of consecutive case ranges."""
    results = tallies[0]
    for later in tallies[1:]:
        for result, part in zip(results, later):
            result.merge(part)
    return results


def run_verify(scenario_path: str | None, random_n: int, seed: int,
               policy_cap: int = DEFAULT_POLICY_CAP,
               assign_cap: int = DEFAULT_ENUM_CAP, jobs: int = 1) -> dict:
    """Run every registered check; the report is a JSON-ready dict. With
    ``jobs`` above one, worker processes take contiguous case ranges, and
    their tallies are merged in case order; no more processes run at once
    than the machine has CPUs."""
    run = functools.partial(run_cases, scenario_path, random_n, seed,
                            (policy_cap, assign_cap))
    ranges = case_ranges(_case_count(scenario_path, random_n), jobs)
    if len(ranges) == 1:
        tallies = [run()]
    else:
        from concurrent.futures import ProcessPoolExecutor
        workers = min(len(ranges), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(run, *zip(*ranges)))
    results = merge_tallies(tallies)
    return {
        "seed": seed,
        "random_instances": random_n,
        "scenario": scenario_path,
        "passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "property": r.description,
                "instances": r.instances,
                "passed": r.passed,
                "worst_deviation": r.worst_deviation,
                "counterexample": r.counterexample,
                "seed": seed,
            }
            for r in results
        ],
    }
