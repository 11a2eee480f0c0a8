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
from dataclasses import dataclass, field
from operator import getitem

from .belief import (
    BELIEF_TOL,
    BeliefState,
    belief_linf,
    belief_prescriptions,
    belief_successors,
    conditional_beliefs,
    expected_cost,
    sufficient_info_labels,
)
from .errors import EnumerationCapExceeded
from .infostruct import (
    DEFAULT_ENUM_CAP,
    InfoSet,
    Kind,
    Realization,
    accessible_labels,
    act,
    count_realizations,
    enumerate_realizations,
    inaccessible_labels,
    memory_labels,
    obs,
)
from .prescription import (
    FullStrategy,
    PrescriptionFunction,
    conditioning_labels,
    prescription_domain,
    strategy_to_policy,
)
from .scenario import Policy, Scenario, enumerate_primitives, propagate
from .topology import DelayMatrix

DEFAULT_POLICY_CAP = 1_000_000


@dataclass
class SolveResult:
    method: str                      # "brute" | "common-info" | "structural"
    agent: int | None
    value: float
    argmin: Policy | FullStrategy
    candidates: int


@dataclass(frozen=True)
class DomainRow:
    agent: int
    time: int
    own_labels: int
    common_labels: int
    own_realizations: int
    common_realizations: int
    subset: bool


@dataclass
class DomainReport:
    rows: list[DomainRow] = field(default_factory=list)

    @property
    def all_subset(self) -> bool:
        return all(r.subset for r in self.rows)


def evaluate_policy(s: Scenario, d: DelayMatrix, g: Policy,
                    cap: int = DEFAULT_ENUM_CAP) -> float:
    """Exact expected total cost of a policy via full primitive enumeration."""
    total = 0.0
    for prim in enumerate_primitives(s, cap):
        total += prim.prob * propagate(s, d, prim, g.action).total_cost
    return total


def evaluate_strategy(s: Scenario, d: DelayMatrix, psi: FullStrategy,
                      cap: int = DEFAULT_ENUM_CAP) -> float:
    """Exact expected total cost of a prescription strategy."""
    return evaluate_policy(s, d, strategy_to_policy(s, d, psi, cap), cap)


# -- shared stage-by-stage enumeration machinery -------------------------------

RawLabel = tuple[int, int, int]  # (agent, time, kind value)


def _raw(labels: InfoSet) -> tuple[RawLabel, ...]:
    return tuple((l.agent, l.time, int(l.kind)) for l in labels)


def _value_of(ys, us, lbl: RawLabel) -> str:
    a, t, kind = lbl
    return ys[a - 1][t] if kind == int(Kind.OBS) else us[a - 1][t]


def _realize(raw: tuple[RawLabel, ...], values) -> Realization:
    return Realization.of({(obs if kind == Kind.OBS else act)(a, t): v
                           for (a, t, kind), v in zip(raw, values)})


class _Engine:
    """Precomputed tables and particle propagation for the DFS solvers.

    A particle is (prob, x, ys, us, cost): one class of primitive assignments
    that agree on everything decision-relevant so far. Particles with
    identical histories are merged, which keeps their number at the count of
    distinguishable trajectory prefixes.
    """

    def __init__(self, s: Scenario, d: DelayMatrix):
        self.s, self.d = s, d
        K, T = s.agent_count, s.horizon
        self.K, self.T = K, T
        self.actions = [[s.action_space(k, t).values for k in s.agents()]
                        for t in range(T + 1)]
        self.trans = [{(x, u, w): x2 for (t2, x, u, w), x2 in s.transition.items()
                       if t2 == t} for t in range(T + 1)]
        self.cost = [{(x, u): c for (t2, x, u), c in s.cost.items() if t2 == t}
                     for t in range(T + 1)]
        self.obsf = [{(k, x, v): y for (k, t2, x, v), y in s.observation.items()
                      if t2 == t} for t in range(T + 1)]
        self.wsup = [s.w_dists[t].support() for t in range(T + 1)]
        self.vprof = []
        for t in range(T + 1):
            axes = [s.v_dists[(k, t)].support() for k in s.agents()]
            prof = []
            for vs in itertools.product(*axes):
                p = 1.0
                for _, pv in vs:
                    p *= pv
                prof.append((tuple(v for v, _ in vs), p))
            self.vprof.append(prof)
        # memory labels per (agent, t), in the order they arrive
        self.memlab: dict[int, list[tuple[RawLabel, ...]]] = {}
        for k in s.agents():
            alls = []
            prev = None
            for t in range(T + 1):
                cur = memory_labels(d, k, t)
                fresh = cur if prev is None else cur.difference(prev)
                alls.append((alls[-1] if alls else ()) + _raw(fresh))
                prev = cur
            self.memlab[k] = alls

    def initial_particles(self):
        empty = tuple(() for _ in range(self.K))
        return [(p, x0, empty, empty, 0.0)
                for x0, p in self.s.init_dist.support()]

    def observe(self, t: int, particles):
        """Branch over sensor noises and extend the observations."""
        merged: dict = {}
        for (p, x, ys, us, c) in particles:
            for vprofile, pv in self.vprof[t]:
                ys2 = tuple(ys[j] + (self.obsf[t][(j + 1, x, vprofile[j])],)
                            for j in range(self.K))
                key = (x, ys2, us, c)
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [p * pv, x, ys2, us, c]
                else:
                    entry[0] += p * pv
        return [tuple(e) for _, e in sorted(merged.items())]

    def advance(self, t: int, particles, u_list):
        """Apply actions, add stage costs, branch over the system noise.
        Only stages before the horizon advance: the last stage's cost is
        added at the leaves of ``_Search.visit``."""
        merged: dict = {}
        for (p, x, ys, us, c), u in zip(particles, u_list):
            us2 = tuple(us[j] + (u[j],) for j in range(self.K))
            c2 = c + self.cost[t][(x, u)]
            for w, pw in self.wsup[t]:
                x2 = self.trans[t][(x, u, w)]
                key = (x2, ys, us2, c2)
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [p * pw, x2, ys, us2, c2]
                else:
                    entry[0] += p * pw
        return [tuple(e) for _, e in sorted(merged.items())]


class _Search:
    """Exhaustive DFS over one action per (agent, cell) at every stage.

    ``stage_cells(t, particles)`` returns, per agent, the sorted cells its
    action may depend on at t, each particle's cell index per agent, and any
    extra data the caller needs to read the chosen tables back. Branches are
    visited in canonical order (time, agent, cell, action) and ties keep the
    first candidate. At the horizon every branch is a leaf whose value is
    ``sum(p * (c + cost))`` over the particles, in particle order. After
    ``visit(0, eng.initial_particles())``,
    ``best_value`` is the least expected cost, ``best_snapshot`` the (t,
    cells, extra, branch) choices attaining it per stage, and ``count`` the
    number of candidates. The recursion goes through the instance, not a
    closure over itself, so the search leaves no reference cycle behind.
    """

    def __init__(self, eng: _Engine, stage_cells, what: str, policy_cap: int):
        self.eng, self.stage_cells = eng, stage_cells
        self.what, self.policy_cap = what, policy_cap
        self.best_value = math.inf
        self.best_snapshot: list | None = None
        self.stack: list = []
        self.count = 0

    def visit(self, t: int, particles) -> None:
        eng = self.eng
        parts = eng.observe(t, particles)
        cells, pcell, extra = self.stage_cells(t, parts)
        option_lists = [
            list(itertools.product(eng.actions[t][j], repeat=len(cells[j])))
            for j in range(eng.K)
        ]
        cost = eng.cost[t]
        for branch in itertools.product(*option_lists):
            u_list = [tuple(map(getitem, branch, ix)) for ix in pcell]
            if t < eng.T:
                self.stack.append((t, cells, extra, branch))
                self.visit(t + 1, eng.advance(t, parts, u_list))
                self.stack.pop()
                continue
            self.count += 1
            if self.count > self.policy_cap:
                raise EnumerationCapExceeded(self.what, self.count,
                                             self.policy_cap, exact=False)
            value = sum([p * (c + cost[(x, u)])
                         for (p, x, _ys, _us, c), u in zip(parts, u_list)])
            if value < self.best_value:
                self.best_value = value
                self.best_snapshot = self.stack + [(t, cells, extra, branch)]


def _search(eng: _Engine, stage_cells, what: str, policy_cap: int):
    """Run a ``_Search``; returns (best value, best snapshot, candidates)."""
    dfs = _Search(eng, stage_cells, what, policy_cap)
    dfs.visit(0, eng.initial_particles())
    assert dfs.best_snapshot is not None
    return dfs.best_value, dfs.best_snapshot, dfs.count


def _total_strategy(s: Scenario, d: DelayMatrix, k: int, parts,
                    assign_cap: int) -> FullStrategy:
    """Agent k's strategy from prescriptions read off reachable histories.

    Conditioning realizations that no history reaches get the prescription
    of the target's first action, so that every table is total.
    """
    for (j, t), rows in parts.items():
        fallback = PrescriptionFunction(
            owner=k, target=j, time=t, domain=prescription_domain(d, k, j, t),
            table={}, default=s.action_space(j, t).values[0])
        for a in enumerate_realizations(s, conditioning_labels(d, k, j, t),
                                        assign_cap):
            rows.setdefault(a, fallback)
    return FullStrategy(owner=k, agent_count=s.agent_count, horizon=s.horizon,
                        parts=parts)


def brute_force_optimal(s: Scenario, d: DelayMatrix,
                        policy_cap: int = DEFAULT_POLICY_CAP,
                        assign_cap: int = DEFAULT_ENUM_CAP) -> SolveResult:
    """Global minimum over all deterministic memory-feedback policies.

    Policies are enumerated stage by stage: the action table at time t ranges
    over the memory realizations reachable under the choices already made for
    earlier stages. Ties keep the first candidate in canonical order (time,
    then agent, then realization, then action).
    """
    eng = _Engine(s, d)
    K = eng.K

    def memkeys(t: int, parts):
        keys = [[tuple(_value_of(pt[2], pt[3], lbl) for lbl in eng.memlab[j][t])
                 for pt in parts] for j in range(1, K + 1)]
        reach = [sorted(set(ks)) for ks in keys]
        pidx = [tuple(r.index(key) for r, key in zip(reach, pkeys))
                for pkeys in zip(*keys)]
        return reach, pidx, None

    value, snapshot, count = _search(eng, memkeys, "policy candidates",
                                     policy_cap)
    policy = Policy(agent_count=K, horizon=eng.T)
    for t, reach, _extra, branch in snapshot:
        for j in range(K):
            for memkey, u in zip(reach[j], branch[j]):
                policy.set_action(j + 1, t,
                                  _realize(eng.memlab[j + 1][t], memkey), u)
    return SolveResult(method="brute", agent=None, value=value,
                       argmin=policy, candidates=count)


# -- common-information dynamic programming ------------------------------------

def _belief_reps_intern(reps: list[BeliefState], b: BeliefState) -> int:
    for i, r in enumerate(reps):
        if belief_linf(r, b) <= BELIEF_TOL:
            return i
    reps.append(b)
    return len(reps) - 1


def _intern(memo: dict, reps: list[BeliefState], b: BeliefState) -> int:
    """``_belief_reps_intern`` behind a memo of exact repeats.

    ``memo`` maps the sorted positive-mass (state key, probability) pairs of
    every belief interned into ``reps`` to its index. A belief with the same
    pairs is at the same L-infinity distance from every rep, and reps are
    only appended, so the scan would return the index it returned before.
    All beliefs of one ``reps`` list share owner and time.
    """
    key = tuple((st.key(), p) for st, p in b.support())
    i = memo.get(key)
    if i is None:
        i = memo[key] = _belief_reps_intern(reps, b)
    return i


def _expand_level(s: Scenario, d: DelayMatrix, level: list[BeliefState],
                  step: bool, shared_z: dict, candidates: int,
                  policy_cap: int) -> tuple[tuple, list[BeliefState], int]:
    """The options of every belief in ``level`` as flat lists, the next level
    their successors are interned into, and the candidate count so far.

    Node n's options are i in ``first_opt[n] .. first_opt[n + 1] - 1``, in
    canonical order, with stage cost ``cost[i]``; option i's successors are
    j in ``first_succ[i] .. first_succ[i + 1] - 1``: outcome ``zs[j]``, with
    probability ``pzs[j]``, into node ``kids[j]`` of the next level. With
    ``step`` false (the last stage) no option has successors.
    """
    nxt: list[BeliefState] = []
    memo: dict = {}
    first_opt, cost, first_succ, zs, pzs, kids = [0], [], [0], [], [], []
    for pi in level:
        for theta in belief_prescriptions(s, d, pi):
            candidates += 1
            if candidates > policy_cap:
                raise EnumerationCapExceeded(
                    "prescription candidates", candidates, policy_cap,
                    exact=False)
            cost.append(expected_cost(s, pi, theta, d))
            if step:
                for z, pz, b2 in belief_successors(s, d, pi, theta):
                    zs.append(shared_z.setdefault(z, z))
                    pzs.append(pz)
                    kids.append(_intern(memo, nxt, b2))
            first_succ.append(len(kids))
        first_opt.append(len(cost))
    return (first_opt, cost, first_succ, zs, pzs, kids), nxt, candidates


def common_info_dp(s: Scenario, d: DelayMatrix,
                   policy_cap: int = DEFAULT_POLICY_CAP,
                   assign_cap: int = DEFAULT_ENUM_CAP) -> SolveResult:
    """Backward induction over reachable beliefs of the last agent.

    The last agent's shared information is held by everybody, so choosing its
    complete prescription as a function of the belief solves the whole team
    problem. Reachable beliefs are expanded forward (deduplicated within an
    L-infinity tolerance), values are computed backward, and the greedy
    strategy is read off along the reachable paths.

    A prescription is only the input at a belief node: the forward pass keeps
    each option's stage cost and successors, not the prescription, and the
    read-out enumerates a reached node's options again to take the greedy one.
    """
    K, T = s.agent_count, s.horizon
    levels: list[list[BeliefState]] = [[]]
    memo: dict = {}
    root_nodes = [(a, pa, _intern(memo, levels[0], b))
                  for a, pa, b in conditional_beliefs(s, d, K, (), assign_cap)]
    candidates = 0
    shared_z: dict[Realization, Realization] = {}  # one object per outcome
    tables = []
    for t in range(T + 1):
        table, nxt, candidates = _expand_level(
            s, d, levels[t], t < T, shared_z, candidates, policy_cap)
        tables.append(table)
        if t < T:
            levels.append(nxt)

    values: list[list[float]] = [[0.0] * len(level) for level in levels]
    greedy: list[list[int]] = [[0] * len(level) for level in levels]  # option i
    for t in range(T, -1, -1):
        first_opt, cost, first_succ, _zs, pzs, kids = tables[t]
        ahead = values[t + 1] if t < T else None
        for n in range(len(levels[t])):
            best, best_i = math.inf, 0
            for i in range(first_opt[n], first_opt[n + 1]):
                v = cost[i]
                for j in range(first_succ[i], first_succ[i + 1]):
                    v += pzs[j] * ahead[kids[j]]
                if v < best:
                    best, best_i = v, i
            values[t][n] = best
            greedy[t][n] = best_i

    total = sum(pa * values[0][n] for _a, pa, n in root_nodes)

    # read the greedy strategy off the reachable tree level by level, then
    # fill the rest; each reached node's prescription is rebuilt once
    parts: dict[tuple[int, int], dict[Realization, PrescriptionFunction]] = {
        (j, t): {} for j in s.agents() for t in s.times()}
    frontier = [(a, n) for a, _pa, n in root_nodes]
    for t in range(T + 1):
        first_opt, _cost, first_succ, zs, _pzs, kids = tables[t]
        chosen: dict[int, tuple[PrescriptionFunction, ...]] = {}
        later = []
        for a, n in frontier:
            i = greedy[t][n]
            if n not in chosen:
                chosen[n] = next(itertools.islice(
                    belief_prescriptions(s, d, levels[t][n]), i - first_opt[n],
                    None)).parts
            for j in s.agents():
                parts[(j, t)][a] = chosen[n][j - 1]
            # the shared information of the successor class grows by the
            # new-information realization attached to the branch
            later += [(a.merge(zs[m]), kids[m])
                      for m in range(first_succ[i], first_succ[i + 1])]
        frontier = later
    return SolveResult(method="common-info", agent=None, value=total,
                       argmin=_total_strategy(s, d, K, parts, assign_cap),
                       candidates=candidates)


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
    eng = _Engine(s, d)
    K, T = eng.K, eng.T
    watchers = list(range(k, K + 1))  # agents whose beliefs can be conditioned on
    acc_raw = {i: [_raw(accessible_labels(d, i, t)) for t in range(T + 1)]
               for i in range(1, K + 1)}
    suff_raw = {i: [_raw(sufficient_info_labels(d, i, t)) for t in range(T + 1)]
                for i in watchers}
    doms = {(j, t): prescription_domain(d, k, j, t)
            for j in range(1, K + 1) for t in range(T + 1)}
    dom_raw = {key: _raw(dom) for key, dom in doms.items()}
    cond_agent = [None] + [k if j < k else j for j in range(1, K + 1)]
    tuple_agents = [None] + [[i for i in watchers if i >= cond_agent[j]]
                             for j in range(1, K + 1)]

    def belief_cells(t: int, parts):
        # accessible keys and information states per watcher agent
        akeys = {i: [tuple(_value_of(pt[2], pt[3], lbl) for lbl in acc_raw[i][t])
                     for pt in parts] for i in watchers}
        belief_id: dict[int, dict[tuple, int]] = {}
        for i in watchers:
            groups: dict[tuple, dict[tuple, float]] = {}
            for pt, ak in zip(parts, akeys[i]):
                skey = (pt[1], tuple(_value_of(pt[2], pt[3], lbl)
                                     for lbl in suff_raw[i][t]))
                bucket = groups.setdefault(ak, {})
                bucket[skey] = bucket.get(skey, 0.0) + pt[0]
            reps: list[BeliefState] = []
            ids: dict[tuple, int] = {}
            for ak in sorted(groups):
                dist = groups[ak]
                mass = sum(dist.values())
                # keyed by (x, private values): interning reads probabilities only
                ids[ak] = _belief_reps_intern(reps, BeliefState(
                    owner=i, time=t,
                    probs={key: q / mass for key, q in dist.items()}))
            belief_id[i] = ids
        # measurability cells per target: (belief-tuple id, domain realization)
        cells: list[list[tuple]] = []
        pcell: list[list[int]] = [[] for _ in parts]
        cond_pairs: list[tuple] = []
        for j in range(1, K + 1):
            c = cond_agent[j]
            gid_of_ak: dict[tuple, tuple] = {}
            for idx in range(len(parts)):
                ak = akeys[c][idx]
                if ak not in gid_of_ak:
                    gid_of_ak[ak] = tuple(belief_id[i][akeys[i][idx]]
                                          for i in tuple_agents[j])
            keys = [(gid_of_ak[akeys[c][idx]],
                     tuple(_value_of(pt[2], pt[3], lbl) for lbl in dom_raw[(j, t)]))
                    for idx, pt in enumerate(parts)]
            cells.append(sorted(set(keys)))
            index = {cell: n for n, cell in enumerate(cells[-1])}
            for idx, key in enumerate(keys):
                pcell[idx].append(index[key])
            cond_pairs.append(tuple(sorted(gid_of_ak.items())))
        return cells, pcell, cond_pairs

    value, snapshot, count = _search(eng, belief_cells,
                                     "structural strategy candidates",
                                     policy_cap)
    parts_out: dict[tuple[int, int], dict[Realization, PrescriptionFunction]] = {
        (j, t): {} for j in range(1, K + 1) for t in range(T + 1)}
    for t, cells_t, cond_pairs_t, branch in snapshot:
        for j in range(1, K + 1):
            for ak, gid in cond_pairs_t[j - 1]:
                table = {_realize(dom_raw[(j, t)], domkey): u
                         for (g, domkey), u in zip(cells_t[j - 1], branch[j - 1])
                         if g == gid}
                parts_out[(j, t)][_realize(acc_raw[cond_agent[j]][t], ak)] = \
                    PrescriptionFunction(owner=k, target=j, time=t,
                                         domain=doms[(j, t)], table=table,
                                         default=s.action_space(j, t).values[0])
    return SolveResult(method="structural", agent=k, value=value,
                       argmin=_total_strategy(s, d, k, parts_out, assign_cap),
                       candidates=count)


def domain_comparison(s: Scenario, d: DelayMatrix) -> DomainReport:
    """Tabulate each agent's own prescription domain against the domain the
    last agent would need for it, in labels and in realizations."""
    report = DomainReport()
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
