"""Exact solvers and cross-checks for the decentralized control problem.

Three routes to the optimal value are implemented and compared:

* exhaustive search over deterministic memory-feedback policies, enumerated
  stage by stage over reachable memory realizations;
* backward induction over reachable beliefs of the last agent, whose shared
  information plays the role of common information;
* exhaustive search over prescription strategies of a chosen agent that are
  measurable with respect to tuples of information states, the structural
  form whose optimality the suite verifies rather than assumes.

All enumeration orders are canonical so ties break identically across runs.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from operator import itemgetter

from .belief import (
    BELIEF_TOL,
    BeliefState,
    _Engine,
    _grouped,
    belief_linf,
    belief_prescriptions,
    belief_successors,
    conditional_beliefs,
    expected_cost,
    sufficient_info_labels,
)
from .errors import check_cap
from .infostruct import (
    DEFAULT_ENUM_CAP,
    InfoSet,
    Realization,
    accessible_labels,
    count_realizations,
    history_slots,
    inaccessible_labels,
    memory_labels,
)
from .prescription import (
    ActionTables,
    FullStrategy,
    PrescriptionFunction,
    prescription_domain,
    strategy_to_policy,
    total_strategy,
)
from .scenario import Policy, Scenario, enumerate_primitives, propagate
from .topology import DelayMatrix

DEFAULT_POLICY_CAP = 1_000_000


class SolveResult(namedtuple("SolveResult",
                             "method agent value argmin candidates")):
    """A solver's optimal value and argmin (a ``Policy`` for "brute", a
    ``FullStrategy`` of ``agent`` for "common-info" and "structural")."""

    __slots__ = ()


DomainRow = namedtuple("DomainRow", "agent time own_labels common_labels "
                       "own_realizations common_realizations subset")


class DomainReport(namedtuple("DomainReport", "rows")):
    """The ``DomainRow``s of ``domain_comparison``, in a list."""

    __slots__ = ()

    @property
    def all_subset(self) -> bool:
        return all(r.subset for r in self.rows)


def evaluate_policy(s: Scenario, d: DelayMatrix, g: Policy,
                    cap: int = DEFAULT_ENUM_CAP) -> float:
    """Exact expected total cost of a policy via full primitive enumeration."""
    total = 0
    for prim in enumerate_primitives(s, cap):
        total += prim.prob * propagate(s, d, prim, g).total_cost
    return total


def evaluate_strategy(s: Scenario, d: DelayMatrix, psi: FullStrategy,
                      cap: int = DEFAULT_ENUM_CAP) -> float:
    """Exact expected total cost of a prescription strategy."""
    return evaluate_policy(s, d, strategy_to_policy(s, d, psi, cap), cap)


# -- shared stage-by-stage enumeration machinery -------------------------------

class _Search:
    """Exhaustive DFS over one action per (agent, cell) at every stage.

    The particles are ``belief._Engine`` records whose cost is the stage
    costs charged so far: the search holds each stage's action spaces and
    costs, and charges a particle's stage cost before the engine advances
    it. ``stage_cells(t, particles)`` returns, per agent, the key of each
    particle's cell (what its action may depend on at t), and any extra data
    the caller needs to read the chosen tables back; a stage's cells are the
    sorted distinct keys. Its branches are an ``ActionTables`` view, visited
    in canonical order (time, agent, cell, action); ties keep the first
    candidate. Every branch reaches a leaf, so ``count`` plus the branch
    count is checked against the cap before any branch is built: it raises
    exactly when the full count would. At the horizon every branch is a leaf
    whose value is ``sum(p * (c + cost))`` over the particles, in particle
    order. After ``visit(0, eng.initial_particles())``, ``best_value`` is
    the least expected cost, ``best_snapshot`` the (t, cells, extra,
    per-agent tables) choices attaining it per stage, and ``count`` the
    number of candidates. The recursion goes through the instance, not a
    closure over itself, so the search leaves no reference cycle behind.
    """

    def __init__(self, s: Scenario, stage_cells, what: str, policy_cap: int):
        self.eng = _Engine(s)
        self.K, self.T = s.agent_count, s.horizon
        self.actions = [[s.action_space(k, t).values for k in s.agents()]
                        for t in s.times()]
        self.cost = [{(x, u): c for (t2, x, u), c in s.cost.items() if t2 == t}
                     for t in s.times()]
        self.stage_cells = stage_cells
        self.what, self.policy_cap = what, policy_cap
        self.best_value = math.inf
        self.best_snapshot: list | None = None
        self.stack: list = []
        self.count = 0

    def visit(self, t: int, particles) -> None:
        eng = self.eng
        parts = eng.observe(t, particles)
        keys, extra = self.stage_cells(t, parts)
        cells = [sorted(set(ks)) for ks in keys]
        branches = ActionTables(self.actions[t], [len(c) for c in cells])
        least = self.count + branches.size
        check_cap(self.what, least, self.policy_cap, exact=False)
        if t == self.T:
            self.count = least  # the leaves of this stage
        # a particle's action of agent j sits at j's first cell plus the
        # index of its key; one agent's getter takes a slice, so it too
        # gives a tuple
        index = [{key: n for n, key in enumerate(c)} for c in cells]
        at = [[cut + ix[key] for cut, ix, key in zip(branches.cuts, index, pk)]
              for pk in zip(*keys)]
        take = [itemgetter(*ns) for ns in at] if self.K > 1 else [
            itemgetter(slice(n, n + 1)) for (n,) in at]
        cost = self.cost[t]
        for branch in branches:
            u_list = [get(branch) for get in take]
            if t < self.T:
                self.stack.append((t, cells, extra, branches.split(branch)))
                self.visit(t + 1, eng.advance(t, [
                    (p, x, h, c + cost[(x, u)])
                    for (p, x, h, c), u in zip(parts, u_list)], u_list))
                self.stack.pop()
                continue
            value = sum([p * (c + cost[(x, u)])
                         for (p, x, _h, c), u in zip(parts, u_list)])
            if value < self.best_value:
                self.best_value = value
                self.best_snapshot = self.stack + [
                    (t, cells, extra, branches.split(branch))]


def _search(s: Scenario, stage_cells, what: str, policy_cap: int):
    """Run a ``_Search``; returns (best value, best snapshot, candidates)."""
    dfs = _Search(s, stage_cells, what, policy_cap)
    dfs.visit(0, dfs.eng.initial_particles())
    assert dfs.best_snapshot is not None
    return dfs.best_value, dfs.best_snapshot, dfs.count


def _total_strategy(s: Scenario, d: DelayMatrix, k: int, parts,
                    assign_cap: int) -> FullStrategy:
    """Agent k's strategy from prescriptions read off reachable histories.

    ``parts[(j, t)]`` maps the reached conditioning realizations to their
    prescriptions; ``total_strategy`` gives every other one the prescription
    of the target's first action, so that every table is total.
    """
    def rows(j: int, t: int, dom: InfoSet):
        reached = parts.get((j, t), {})
        fallback = PrescriptionFunction(
            owner=k, target=j, time=t, domain=dom, table={},
            default=s.action_space(j, t).values[0])
        return lambda a: reached.get(a, fallback)
    return total_strategy(s, d, k, rows, assign_cap)


def brute_force_optimal(s: Scenario, d: DelayMatrix,
                        policy_cap: int = DEFAULT_POLICY_CAP,
                        assign_cap: int = DEFAULT_ENUM_CAP) -> SolveResult:
    """Global minimum over all deterministic memory-feedback policies.

    Policies are enumerated stage by stage: the action table at time t ranges
    over the memory realizations reachable under the choices already made for
    earlier stages. Ties keep the first candidate in canonical order (time,
    then agent, then realization, then action).
    """
    K, T = s.agent_count, s.horizon
    # per agent and t: the memory labels in the order they arrive, and
    # their slots
    memlab: dict[int, list[tuple[tuple, tuple]]] = {}
    for k in s.agents():
        mems = [memory_labels(d, k, t) for t in range(T + 1)]
        alls = [mems[0].labels]
        for prev, cur in zip(mems, mems[1:]):
            alls.append(alls[-1] + cur.difference(prev).labels)
        memlab[k] = [(l, history_slots(l, K)) for l in alls]

    def memkeys(t: int, parts):
        return [[tuple([h[i] for i in memlab[j][t][1]])
                 for _p, _x, h, _c in parts] for j in s.agents()], None

    value, snapshot, count = _search(s, memkeys, "policy candidates",
                                     policy_cap)
    policy = Policy(agent_count=K, horizon=T)
    for t, reach, _extra, branch in snapshot:
        for j in range(K):
            for memkey, u in zip(reach[j], branch[j]):
                policy.set_action(j + 1, t, Realization.of(
                    zip(memlab[j + 1][t][0], memkey)).values, u)
    return SolveResult(method="brute", agent=None, value=value,
                       argmin=policy, candidates=count)


# -- common-information dynamic programming ------------------------------------

class _BeliefReps(list):
    """Belief representatives in interning order; ``memo`` maps the table
    (the frozenset of its items) of every belief interned to its index."""

    def __init__(self):
        super().__init__()
        self.memo: dict[frozenset, int] = {}


def _belief_reps_intern(reps: _BeliefReps, b: BeliefState) -> int:
    """The index of the first representative within ``BELIEF_TOL`` of ``b``
    in L-infinity, appending ``b`` if there is none. The memo answers exact
    repeats: equal tables are equally far from every representative, and
    representatives are only appended, so the scan would repeat its answer."""
    key = frozenset(b.probs.items())
    i = reps.memo.get(key)
    if i is None:
        i = reps.memo[key] = next((n for n, r in enumerate(reps)
                                   if belief_linf(r, b) <= BELIEF_TOL),
                                  len(reps))
        if i == len(reps):
            reps.append(b)
    return i


class _BeliefDP:
    """The common-information DP, valuing each belief when it is interned.

    ``intern(t, pi)`` files ``pi`` among level t's representatives with
    ``_belief_reps_intern``. A new one adds its number of prescriptions to
    ``candidates``, and the cap is checked, before any is built (so it raises
    exactly when the full count would). It is then valued: ``values[t]`` gets
    the least expected stage cost plus ``sum(pz * V(successor))`` over its
    prescriptions, interning the successors on the way, and ``greedy[t]``
    the first minimiser's option index and (outcome, successor) pairs. Each
    level's representatives are thus found and expanded in breadth-first
    order. The recursion goes through the instance, not a closure over
    itself, so the pass leaves no reference cycle behind.
    """

    def __init__(self, s: Scenario, d: DelayMatrix, policy_cap: int):
        self.s, self.d, self.policy_cap = s, d, policy_cap
        levels = range(s.horizon + 1)
        self.reps = [_BeliefReps() for _ in levels]
        self.values: list[list[float]] = [[] for _ in levels]
        self.greedy: list[list[tuple]] = [[] for _ in levels]
        self.candidates = 0

    def intern(self, t: int, pi: BeliefState) -> int:
        s, d = self.s, self.d
        n = len(self.reps[t])
        found = _belief_reps_intern(self.reps[t], pi)
        if found < n:
            return found
        options = belief_prescriptions(s, d, pi)
        self.candidates += options.size
        check_cap("prescription candidates", self.candidates, self.policy_cap,
                  exact=False)
        best, best_i, best_succ = math.inf, 0, []
        for i, theta in enumerate(options):
            v = expected_cost(s, pi, theta, d)
            succ = []
            if t < s.horizon:
                ahead = self.values[t + 1]
                for z, pz, b2 in belief_successors(s, d, pi, theta):
                    kid = self.intern(t + 1, b2)
                    succ.append((z, kid))
                    v += pz * ahead[kid]
            if v < best:
                best, best_i, best_succ = v, i, succ
        self.values[t].append(best)
        self.greedy[t].append((best_i, best_succ))
        return n


def common_info_dp(s: Scenario, d: DelayMatrix,
                   policy_cap: int = DEFAULT_POLICY_CAP,
                   assign_cap: int = DEFAULT_ENUM_CAP) -> SolveResult:
    """Backward induction over reachable beliefs of the last agent.

    The last agent's shared information is held by everybody, so choosing its
    complete prescription as a function of the belief solves the whole team
    problem: V_t(pi) = min over theta of E_pi c(theta) + sum over z of
    P(z | pi, theta) V_{t+1}(pi_z). ``_BeliefDP`` values each reachable belief
    (deduplicated within an L-infinity tolerance) when it is first reached;
    the greedy strategy is then read off along the reachable paths, rebuilding
    each reached node's greedy prescription from its option index.
    """
    K, T = s.agent_count, s.horizon
    dp = _BeliefDP(s, d, policy_cap)
    root_nodes = [(a, pa, dp.intern(0, b))
                  for a, pa, b in conditional_beliefs(s, d, K, (), assign_cap)]
    total = sum(pa * dp.values[0][n] for _a, pa, n in root_nodes)

    # read the greedy strategy off the reachable tree level by level, then
    # fill the rest; each reached node's prescription is rebuilt once
    parts: dict[tuple[int, int], dict[Realization, PrescriptionFunction]] = {}
    frontier = [(a, n) for a, _pa, n in root_nodes]
    for t in range(T + 1):
        chosen: dict[int, tuple[PrescriptionFunction, ...]] = {}
        later = []
        for a, n in frontier:
            i, succ = dp.greedy[t][n]
            if n not in chosen:
                chosen[n] = next(itertools.islice(
                    belief_prescriptions(s, d, dp.reps[t][n]), i, None)).parts
            for j in s.agents():
                parts.setdefault((j, t), {})[a] = chosen[n][j - 1]
            # the shared information of the successor class grows by the
            # new-information realization attached to the branch
            later += [(a.merge(z), kid) for z, kid in succ]
        frontier = later
    return SolveResult(method="common-info", agent=None, value=total,
                       argmin=_total_strategy(s, d, K, parts, assign_cap),
                       candidates=dp.candidates)


# -- structural-form exhaustive search ------------------------------------------

def structural_search(s: Scenario, d: DelayMatrix, k: int,
                      policy_cap: int = DEFAULT_POLICY_CAP,
                      assign_cap: int = DEFAULT_ENUM_CAP) -> SolveResult:
    """Exhaustive search over agent k's strategies of the structural form.

    Candidate strategies may let each prescription depend on its conditioning
    realization only through the tuple of information states of agents from
    the target (or k, for earlier targets) up to the last agent. Realizations
    that share a belief tuple share one prescription entry. The result is
    meant to be compared against the exhaustive policy optimum by the caller;
    a gap is reported, never asserted away.
    """
    K, T = s.agent_count, s.horizon
    watchers = list(range(k, K + 1))  # agents whose beliefs can be conditioned on
    acc = {i: [accessible_labels(d, i, t) for t in range(T + 1)]
           for i in range(1, K + 1)}
    acc_slots = {i: [history_slots(a, K) for a in acc[i]] for i in acc}
    suff_slots = {i: [history_slots(sufficient_info_labels(d, i, t), K)
                      for t in range(T + 1)] for i in watchers}
    doms = {(j, t): prescription_domain(d, k, j, t)
            for j in range(1, K + 1) for t in range(T + 1)}
    dom_slots = {key: history_slots(dom, K) for key, dom in doms.items()}
    cond_agent = [None] + [k if j < k else j for j in range(1, K + 1)]
    tuple_agents = [None] + [[i for i in watchers if i >= cond_agent[j]]
                             for j in range(1, K + 1)]

    def belief_cells(t: int, parts):
        # accessible keys and information states per watcher agent
        akeys = {i: [tuple([h[n] for n in acc_slots[i][t]])
                     for _p, _x, h, _c in parts] for i in watchers}
        belief_id: dict[int, dict[tuple, int]] = {}
        for i in watchers:
            reps = _BeliefReps()
            belief_id[i] = {ak: _belief_reps_intern(reps, pi)
                            for ak, _pa, pi, _group in _grouped(
                                i, t, parts, akeys[i], suff_slots[i][t])}
        # measurability cells per target: (belief-tuple id, domain realization)
        keys: list[list[tuple]] = []
        cond_pairs: list[tuple] = []
        for j in range(1, K + 1):
            c = cond_agent[j]
            gid_of_ak: dict[tuple, tuple] = {}
            for idx in range(len(parts)):
                ak = akeys[c][idx]
                if ak not in gid_of_ak:
                    gid_of_ak[ak] = tuple(belief_id[i][akeys[i][idx]]
                                          for i in tuple_agents[j])
            slots = dom_slots[(j, t)]
            keys.append([(gid_of_ak[ak], tuple([h[n] for n in slots]))
                         for ak, (_p, _x, h, _c) in zip(akeys[c], parts)])
            cond_pairs.append(tuple(sorted(gid_of_ak.items())))
        return keys, cond_pairs

    value, snapshot, count = _search(s, belief_cells,
                                     "structural strategy candidates",
                                     policy_cap)
    parts_out: dict[tuple[int, int], dict[Realization, PrescriptionFunction]] = {}
    for t, cells_t, cond_pairs_t, branch in snapshot:
        for j in range(1, K + 1):
            for ak, gid in cond_pairs_t[j - 1]:
                table = {Realization(tuple(zip(doms[(j, t)], domkey))): u
                         for (g, domkey), u in zip(cells_t[j - 1], branch[j - 1])
                         if g == gid}
                cond = Realization(tuple(zip(acc[cond_agent[j]][t], ak)))
                parts_out.setdefault((j, t), {})[cond] = PrescriptionFunction(
                    owner=k, target=j, time=t, domain=doms[(j, t)], table=table,
                    default=s.action_space(j, t).values[0])
    return SolveResult(method="structural", agent=k, value=value,
                       argmin=_total_strategy(s, d, k, parts_out, assign_cap),
                       candidates=count)


def domain_comparison(s: Scenario, d: DelayMatrix) -> DomainReport:
    """Tabulate each agent's own prescription domain against the domain the
    last agent would need for it, in labels and in realizations."""
    report = DomainReport([])
    K = s.agent_count
    for k in s.agents():
        for t in s.times():
            own = inaccessible_labels(d, k, k, t)
            common = inaccessible_labels(d, k, K, t)
            report.rows.append(DomainRow(
                agent=k, time=t,
                own_labels=len(own), common_labels=len(common),
                own_realizations=count_realizations(s, own),
                common_realizations=count_realizations(s, common),
                subset=own.issubset(common)))
    return report
