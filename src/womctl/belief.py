"""Sufficient state and exact belief filtering for the per-agent reformulation.

From any single agent's standpoint the system behaves like a partially
observed controlled Markov chain whose state couples the plant state with the
private-information realizations of every agent, whose control input is a
complete prescription, and whose output is the newly shared information.
Everything here is exact: beliefs are finite probability tables and updates
enumerate noise branches.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

from .errors import (
    DomainMismatch,
    WomctlError,
    ZeroProbabilityCondition,
    ZeroProbabilityObservation,
)
from .infostruct import (
    DEFAULT_ENUM_CAP,
    EMPTY_INFOSET,
    InfoSet,
    Realization,
    accessible_labels,
    act as act_label,
    enumerate_realizations,
    history_slots,
    new_info_labels,
    obs as obs_label,
)
from .prescription import (
    ActionTables,
    CompletePrescription,
    act,
    prescription_domain,
    support_prescriptions,
)
from .scenario import Scenario, enumerate_primitives
from .topology import DelayMatrix

BELIEF_TOL = 1e-9


@lru_cache(maxsize=None)
def sufficient_info_labels(d: DelayMatrix, k: int, t: int) -> InfoSet:
    """Union of the private-information components of agent k's state.

    The components are exactly the domains of the K prescriptions agent k
    holds, so a state realization determines every prescribed action.
    """
    out = EMPTY_INFOSET
    for j in d.agents():
        out = out.union(prescription_domain(d, k, j, t))
    return out


class BeliefState(namedtuple("BeliefState", "owner time probs")):
    """Exact probability table ``probs[state] -> float`` over agent
    ``owner``'s sufficient states at ``time``. A state is the tuple
    ``(x, values)``: the plant state and the values of
    ``sufficient_info_labels(d, owner, time)``, in that order."""

    __slots__ = ()

    def support(self) -> list[tuple[tuple[str, tuple[str, ...]], float]]:
        # keys are distinct, so the probabilities are never compared
        return sorted([(st, p) for st, p in self.probs.items() if p > 0.0])

    def total(self) -> float:
        return sum(self.probs.values())


def belief_linf(a: BeliefState, b: BeliefState) -> float:
    keys = {st: p for st, p in a.probs.items()}
    worst = 0.0
    for st, p in b.probs.items():
        worst = max(worst, abs(keys.pop(st, 0.0) - p))
    for _, p in keys.items():
        worst = max(worst, abs(p))
    return worst


def sufficient_state_space(s: Scenario, d: DelayMatrix, k: int, t: int,
                           cap: int = DEFAULT_ENUM_CAP) -> list[tuple]:
    """All consistent sufficient states of agent k at t in canonical order.

    Component label sets overlap; enumerating over their union assigns each
    shared label once, which is exactly the consistency requirement.
    """
    info = sufficient_info_labels(d, k, t)
    return [(x, r.values) for x in s.state_space.values
            for r in enumerate_realizations(s, info, cap)]


def _action_plan(s: Scenario, d: DelayMatrix, theta: CompletePrescription,
                 k: int, t: int) -> list[tuple]:
    """``theta``'s plan (see ``_actions_from``) for the values of agent k's
    states at t, which must be ``theta``'s owner and time."""
    if theta.owner != k or theta.time != t:
        raise WomctlError(
            f"prescription of agent {theta.owner} at t={theta.time} applied "
            f"to a state of agent {k} at t={t}")
    where = {l: i for i, l in enumerate(sufficient_info_labels(d, k, t))}
    plan = []
    for j in s.agents():
        gamma, dom = theta.parts[j - 1], prescription_domain(d, k, j, t)
        if gamma.domain != dom:
            raise DomainMismatch.between(dom, gamma.domain)
        plan.append((gamma, tuple([where[l] for l in dom]), {}))
    return plan


def _actions_from(plan: list[tuple], values) -> tuple[str, ...]:
    """The action profile at ``values``. A plan holds, per target, the part,
    the slots of its domain in ``values``, and the actions found so far by
    domain values."""
    u = []
    for gamma, slots, seen in plan:
        key = tuple([values[i] for i in slots])
        uj = seen.get(key)
        if uj is None:
            # sized tuples: one built from an iterator is resized, and the
            # discarded ones pile up in CPython's tuple free lists
            uj = seen[key] = act(gamma, Realization(tuple(list(zip(
                gamma.domain, key)))))
        u.append(uj)
    return tuple(u)


def _state_actions(s: Scenario, d: DelayMatrix, st: tuple,
                   theta: CompletePrescription) -> tuple[str, ...]:
    """The actions ``theta`` prescribes at ``st``, a state of agent
    ``theta.owner`` at ``theta.time`` whose values must fill it."""
    k, t = theta.owner, theta.time
    n = len(sufficient_info_labels(d, k, t))
    if len(st[1]) != n:
        raise WomctlError(f"a state of agent {k} at t={t} holds {n} private "
                          f"values, not {len(st[1])}")
    return _actions_from(_action_plan(s, d, theta, k, t), st[1])


def _advance_plan(s: Scenario, d: DelayMatrix, k: int, t: int) -> tuple:
    """The slots of agent k's next state, and of its new information at
    t + 1, in ``values + ys + u``: a state's values at t, the K observations
    at t + 1 and the K actions at t."""
    where = {l: i for i, l in enumerate([
        *sufficient_info_labels(d, k, t),
        *[obs_label(j, t + 1) for j in s.agents()],
        *[act_label(j, t) for j in s.agents()]])}
    try:
        return (tuple([where[l] for l in sufficient_info_labels(d, k, t + 1)]),
                tuple([where[l] for l in new_info_labels(d, k, t + 1)]))
    except KeyError as e:  # would contradict the sufficiency of the state
        raise WomctlError(f"label {e.args[0]} is not derivable from the "
                          f"sufficient state at t={t}") from None


def state_step(s: Scenario, d: DelayMatrix, st: tuple, w: str,
               v_next: tuple[str, ...], theta: CompletePrescription
               ) -> tuple[tuple[str, tuple[str, ...]], Realization]:
    """Deterministic one-step evolution of the sufficient state ``st`` of
    agent ``theta.owner`` at ``theta.time``.

    Derives all K actions from the complete prescription, advances the plant
    state with w, forms the next observations with each agent's v, and
    re-partitions the accumulated variables into the next private components
    and the newly shared realization.
    """
    k, t = theta.owner, theta.time
    u = _state_actions(s, d, st, theta)
    x2 = s.f(t, st[0], u, w)
    ys = tuple(s.h(j, t + 1, x2, v_next[j - 1]) for j in s.agents())
    nxt, z_at = _advance_plan(s, d, k, t)
    full = st[1] + ys + u
    return (x2, tuple([full[i] for i in nxt])), Realization(tuple(list(zip(
        new_info_labels(d, k, t + 1), [full[i] for i in z_at]))))


def stage_cost_hat(s: Scenario, st: tuple, theta: CompletePrescription,
                   d: DelayMatrix) -> float:
    """Stage cost reconstructed from the sufficient state ``st`` of agent
    ``theta.owner`` at ``theta.time`` and the prescription."""
    return s.c(theta.time, st[0], _state_actions(s, d, st, theta))


def expected_cost(s: Scenario, pi: BeliefState, theta: CompletePrescription,
                  d: DelayMatrix) -> float:
    """Expected stage cost under a belief, as a function of (belief, input)."""
    plan = _action_plan(s, d, theta, pi.owner, pi.time)
    return sum(p * s.c(pi.time, x, _actions_from(plan, values))
               for (x, values), p in pi.support())


def belief_prescriptions(s: Scenario, d: DelayMatrix, pi: BeliefState
                         ) -> ActionTables:
    """The owner's complete prescriptions at ``pi.time`` that differ on the
    support of ``pi``, in canonical order, as a sized view: entries off it
    cannot change the expected cost or the filter."""
    k, t = pi.owner, pi.time
    where = {l: i for i, l in enumerate(sufficient_info_labels(d, k, t))}
    doms = [prescription_domain(d, k, j, t) for j in s.agents()]
    return support_prescriptions(s, k, t, doms, [
        {Realization(tuple(list(zip(dom, [values[where[l]] for l in dom]))))
         for (_x, values), _p in pi.support()} for dom in doms])


def belief_successors(s: Scenario, d: DelayMatrix, pi: BeliefState,
                      theta: CompletePrescription
                      ) -> list[tuple[Realization, float, BeliefState]]:
    """Push a belief through one step and group by new-information outcome.

    Returns (z, prob of z, posterior belief) triples with positive
    probability, in canonical z order. Depends on the prescription only, not
    on any strategy that may have produced it.
    """
    k, t = pi.owner, pi.time
    plan = _action_plan(s, d, theta, k, t)
    w_sup = s.w_dists[t].support()
    v_axes = [s.v_dists[(j, t + 1)].support() for j in s.agents()]
    nxt, z_at = _advance_plan(s, d, k, t)
    # by the values of z: every outcome has the labels of new_info_labels
    buckets: dict[tuple, dict[tuple, float]] = {}
    for (x, values), p in pi.support():
        u = _actions_from(plan, values)
        for w, pw in w_sup:
            x2 = s.f(t, x, u, w)
            # sensor-noise values inducing the same observation merge
            y_axes = []
            for j in s.agents():
                acc: dict[str, float] = {}
                for v, pv in v_axes[j - 1]:
                    y = s.h(j, t + 1, x2, v)
                    acc[y] = acc.get(y, 0) + pv
                y_axes.append(sorted(acc.items()))
            for ycombo in itertools.product(*y_axes):
                q = p * pw
                for _, py in ycombo:
                    q *= py
                full = values + tuple([y for y, _ in ycombo]) + u
                st2 = (x2, tuple([full[i] for i in nxt]))
                bucket = buckets.setdefault(tuple([full[i] for i in z_at]), {})
                bucket[st2] = bucket.get(st2, 0) + q
    z_labels = new_info_labels(d, k, t + 1)
    out = []
    for z in sorted(buckets):
        table = buckets[z]
        pz = sum(table.values())
        if pz <= 0.0:
            continue
        out.append((Realization(tuple(list(zip(z_labels, z)))), pz, BeliefState(
            owner=k, time=t + 1,
            probs={st: q / pz for st, q in table.items() if q > 0.0})))
    return out


def belief_update(s: Scenario, d: DelayMatrix, pi: BeliefState,
                  theta: CompletePrescription, z: Realization) -> BeliefState:
    """One exact filter step: predict through the prescription, then condition
    on the observed new information and renormalize."""
    want = new_info_labels(d, pi.owner, pi.time + 1)
    if z.domain != want:
        raise DomainMismatch.between(want, z.domain)
    for z2, pz, nxt in belief_successors(s, d, pi, theta):
        if z2 == z:
            return nxt
    raise ZeroProbabilityObservation(
        f"new information {z} has probability 0 under the given belief and "
        f"prescription at t={pi.time}")


# -- trajectory-prefix records, pushed one step at a time -----------------------

class _Engine:
    """The one step routine for trajectory-prefix records.

    A record is ``(prob, x, history, cost)``: the primitive assignments that
    agree on the plant state and on every observation and action so far,
    merged. ``history`` holds those values by slot (see
    ``infostruct.history_slots``): at each time the K observations, then the
    K actions. The DFS particles of ``solver`` carry the stage costs charged
    so far, which their search adds before each ``advance``; the conditioning
    classes below carry 0. Both steps merge records with equal (x, history,
    cost), which keeps their number at the count of distinguishable prefixes,
    and return them in that key order.
    """

    def __init__(self, s: Scenario):
        self.s = s
        T = s.horizon
        self.trans = [{(x, u, w): x2 for (t2, x, u, w), x2 in s.transition.items()
                       if t2 == t} for t in range(T + 1)]
        self.wsup = [s.w_dists[t].support() for t in range(T + 1)]
        # per t and plant state, one (K observations, probability) pair per
        # sensor-noise profile
        self.obs_branches = []
        for t in range(T + 1):
            axes = [s.v_dists[(k, t)].support() for k in s.agents()]
            profiles = [(vs, math.prod(pv for _, pv in vs))
                        for vs in itertools.product(*axes)]
            self.obs_branches.append({x: [
                (tuple(s.h(k, t, x, v) for k, (v, _) in enumerate(vs, 1)), p)
                for vs, p in profiles] for x in s.state_space.values})

    def initial_particles(self):
        return [(p, x0, (), 0) for x0, p in self.s.init_dist.support()]

    def observe(self, t: int, records):
        """Branch over sensor noises and append the K observations."""
        branches = self.obs_branches[t]
        return _merged((p * pv, (x, h + ys, c)) for p, x, h, c in records
                       for ys, pv in branches[x])

    def advance(self, t: int, records, u_list):
        """Append each record's action profile and branch over the plant
        noise at t. The cost is carried as it is: only stages before the
        horizon advance, and the DFS adds every stage cost itself."""
        trans, wsup = self.trans[t], self.wsup[t]
        return _merged((p * pw, (trans[(x, u, w)], h + u, c))
                       for (p, x, h, c), u in zip(records, u_list)
                       for w, pw in wsup)


def _merged(branches) -> list:
    """Records from (prob, (x, history, cost)) branches: equal keys summed,
    in key order."""
    merged: dict = {}
    for q, key in branches:
        merged[key] = merged.get(key, 0) + q
    return [(q, *key) for key, q in sorted(merged.items())]


# A conditioning class is a record of cost 0: it tracks only the
# probability of its primitive assignments, and no engine step charges cost.
# ``table`` interns the Realizations ``a`` and ``z`` built from classes: keys
# are plain tuples, and equal ones map to one shared object.

def _shared(table: dict, labels: InfoSet, slots: tuple[int, ...],
            history: tuple[str, ...]) -> Realization:
    values = tuple(history[i] for i in slots)
    r = table.get((slots, values))
    if r is None:
        r = table[(slots, values)] = Realization(tuple(zip(labels, values)))
    return r


def _grouped(k: int, t: int, records: list, keys: list,
             info_slots: tuple[int, ...]) -> list[tuple]:
    """Records grouped by their ``keys``, each group in ``records`` order:
    (key, prob of the group, agent k's conditional at t, whose states' values
    are read at ``info_slots``, records of the group) with positive
    probability, in key order."""
    groups: dict[tuple, list] = {}
    for rec, key in zip(records, keys):
        groups.setdefault(key, []).append(rec)
    out = []
    for key in sorted(groups):
        group = groups[key]
        probs: dict[tuple, float] = {}
        for p, x, history, _c in group:
            st = (x, tuple([history[i] for i in info_slots]))
            probs[st] = probs.get(st, 0) + p
        pa = sum(probs.values())
        if pa > 0.0:
            out.append((key, pa, BeliefState(owner=k, time=t, probs={
                st: p / pa for st, p in probs.items()}), group))
    return out


def _conditionals(d: DelayMatrix, k: int, t: int, records: list, table: dict
                  ) -> list[tuple[Realization, float, BeliefState, list]]:
    """``_grouped`` by agent k's accessible realization ``a`` at t, with ``a``
    in place of its values (their order is ``Realization.items`` order)."""
    want = accessible_labels(d, k, t)
    slots = history_slots(want, d.agent_count)
    info_slots = history_slots(sufficient_info_labels(d, k, t), d.agent_count)
    keys = [tuple([h[i] for i in slots]) for _p, _x, h, _c in records]
    return [(_shared(table, want, slots, group[0][2]), pa, pi, group)
            for _a, pa, pi, group in _grouped(k, t, records, keys, info_slots)]


def root_classes(eng: _Engine, d: DelayMatrix, k: int, table: dict,
                 cap: int = DEFAULT_ENUM_CAP
                 ) -> list[tuple[Realization, float, BeliefState, list]]:
    """Agent k's classes at t = 0: ``eng`` observes its initial particles.
    Returns (a, prob of a, belief, classes of a) with positive probability,
    in canonical ``a`` order. Classes only merge primitive assignments, so
    the assignments' count bounds every class list that follows: it is
    checked against ``cap`` here, and no assignment is built.
    """
    enumerate_primitives(eng.s, cap)
    return _conditionals(d, k, 0, eng.observe(0, eng.initial_particles()),
                         table)


def class_successors(eng: _Engine, d: DelayMatrix, k: int, t: int,
                     classes: list, theta: CompletePrescription, table: dict
                     ) -> list[tuple[Realization, Realization, float,
                                     BeliefState, list]]:
    """Push agent k's classes at t one step under ``theta``.

    Each class's actions are read off ``theta`` at the slots of each part's
    domain; ``eng`` then advances the classes over the plant noise at t and
    observes them at t + 1, and the results are grouped by the accessible
    realization ``a`` at t + 1. Returns (a, new information z, prob of a,
    belief, classes of a) with positive probability, in canonical ``a``
    order. This is direct conditioning, one step at a time: it reads no
    belief.
    """
    agents = d.agent_count
    plan = [(gamma, history_slots(gamma.domain, agents), {})
            for gamma in theta.parts]
    u_list = [_actions_from(plan, history) for _p, _x, history, _c in classes]
    records = eng.observe(t + 1, eng.advance(t, classes, u_list))
    z_labels = new_info_labels(d, k, t + 1)
    z_slots = history_slots(z_labels, agents)
    return [(a, _shared(table, z_labels, z_slots, group[0][2]), pa, pi, group)
            for a, pa, pi, group in _conditionals(d, k, t + 1, records, table)]


def conditional_beliefs(s: Scenario, d: DelayMatrix, k: int,
                        thetas: tuple[CompletePrescription, ...],
                        cap: int = DEFAULT_ENUM_CAP
                        ) -> list[tuple[Realization, float, BeliefState]]:
    """Exact conditionals of the sufficient state at t = len(thetas), one per
    realization of agent k's shared information: the root classes pushed
    through ``thetas`` with ``class_successors``, all by one engine. Classes
    of different realizations never merge, so they are pushed together.
    Returns (a, prob of a, belief) triples with positive probability, in
    canonical ``a`` order.
    """
    table: dict = {}
    eng = _Engine(s)
    level = root_classes(eng, d, k, table, cap)
    for t, theta in enumerate(thetas):
        level = [(a, pa, pi, group) for a, _z, pa, pi, group in class_successors(
            eng, d, k, t, [c for *_a, group in level for c in group], theta,
            table)]
    return [(a, pa, pi) for a, pa, pi, _group in level]


def belief_from_scratch(s: Scenario, d: DelayMatrix, k: int, a: Realization,
                        thetas: tuple[CompletePrescription, ...],
                        cap: int = DEFAULT_ENUM_CAP) -> BeliefState:
    """Exact conditional of the sufficient state given shared information:
    the class of ``conditional_beliefs`` whose accessible realization is
    ``a``."""
    want = accessible_labels(d, k, len(thetas))
    if a.domain != want:
        raise DomainMismatch.between(want, a.domain)
    for a2, _pa, pi in conditional_beliefs(s, d, k, thetas, cap):
        if a2 == a:
            return pi
    raise ZeroProbabilityCondition(
        f"accessible realization {a} with the given prescriptions has "
        f"probability 0")
