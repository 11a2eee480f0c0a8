"""Prescriptions: two-stage action generation from shared and private information.

An agent first forms, from information shared with lower-indexed agents, a
function (the prescription); the function is then applied to the private
remainder of the target agent's memory to produce the action. Because the
shared/private split is pure label algebra, any agent can carry an
action-equivalent strategy for any other agent, which is what positional
transfer constructs.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .errors import DomainMismatch, UndefinedPolicyEntry, WomctlError
from .infostruct import (
    DEFAULT_ENUM_CAP,
    InfoSet,
    Realization,
    accessible_labels,
    enumerate_realizations,
    inaccessible_labels,
)
from .scenario import Policy, Scenario, total_policy
from .topology import DelayMatrix


class PrescriptionFunction(namedtuple(
        "PrescriptionFunction", "owner target time domain table default",
        defaults=(None,))):
    """A table from private-information realizations to one agent's actions:
    agent ``owner``'s prescription for ``target`` at ``time``, its ``table``
    keyed by realizations of the ``InfoSet`` ``domain``.

    ``table`` may be partial when paired with a ``default`` action; lookups
    outside the declared domain always fail.
    """

    __slots__ = ()


def act(gamma: PrescriptionFunction, l: Realization) -> str:
    """Apply a prescription to a private-information realization."""
    if l.domain != gamma.domain:
        raise DomainMismatch.between(gamma.domain, l.domain)
    u = gamma.table.get(l, gamma.default)
    if u is None:
        raise WomctlError(f"prescription table has no entry for {l} and no default")
    return u


class CompletePrescription(namedtuple("CompletePrescription",
                                      "owner time parts")):
    """One prescription per target agent, all held by the same owner; part j
    must target agent j however it is built (see ``FiniteSpace``)."""

    __slots__ = ()

    def __new__(cls, owner: int, time: int,
                parts: tuple[PrescriptionFunction, ...]):
        for j, g in enumerate(parts, start=1):
            if g.target != j:
                raise WomctlError(
                    f"part {j} of a complete prescription targets agent {g.target}")
        return super().__new__(cls, owner, time, parts)

    @classmethod
    def _make(cls, fields) -> "CompletePrescription":
        return cls(*fields)


class FullStrategy(namedtuple("FullStrategy",
                              "owner agent_count horizon parts")):
    """An agent's prescription strategy for every target and time:
    ``parts[(j, t)][conditioning realization] -> PrescriptionFunction``."""

    __slots__ = ()

    def gamma(self, j: int, t: int, conditioning: Realization) -> PrescriptionFunction:
        try:
            return self.parts[(j, t)][conditioning]
        except KeyError:
            raise WomctlError(
                f"strategy of agent {self.owner} has no prescription for target "
                f"{j}, t={t}, conditioning {conditioning}") from None


def prescription_domain(d: DelayMatrix, k: int, j: int, t: int) -> InfoSet:
    """The private-information labels agent k's prescription for j consumes.

    For targets before k this is the part of j's memory that k itself cannot
    rule on from shared information; for k and later targets it is the
    target's own private remainder.
    """
    if j < k:
        return inaccessible_labels(d, j, k, t)
    return inaccessible_labels(d, j, j, t)


def conditioning_labels(d: DelayMatrix, k: int, j: int, t: int) -> InfoSet:
    """The shared-information labels that parameterize the prescription."""
    if j < k:
        return accessible_labels(d, k, t)
    return accessible_labels(d, j, t)


def total_strategy(s: Scenario, d: DelayMatrix, k: int, rows,
                   cap: int = DEFAULT_ENUM_CAP) -> FullStrategy:
    """Agent k's strategy, total over every conditioning realization.

    For each time t, then target j, ``rows(j, t, prescription_domain(d, k,
    j, t))`` does the pair's set-up and returns the map from a realization
    of ``conditioning_labels(d, k, j, t)`` to its prescription; those
    realizations are enumerated after it returns, in canonical order.
    """
    parts: dict[tuple[int, int], dict[Realization, PrescriptionFunction]] = {}
    for t in s.times():
        for j in s.agents():
            cond = conditioning_labels(d, k, j, t)
            row = rows(j, t, prescription_domain(d, k, j, t))
            parts[(j, t)] = {a: row(a) for a in enumerate_realizations(s, cond, cap)}
    return FullStrategy(owner=k, agent_count=s.agent_count,
                        horizon=s.horizon, parts=parts)


def policy_to_strategy(s: Scenario, d: DelayMatrix, g: Policy, k: int,
                       cap: int = DEFAULT_ENUM_CAP) -> FullStrategy:
    """Split a control policy into agent k's prescription strategy.

    For every target j and time t the target's memory realization is the
    disjoint union of a conditioning realization and a private realization;
    each prescription entry is the policy's action on the merged realization.
    Memory realizations absent from the policy table (unreachable ones) fall
    back to the first action of the target's space, keeping tables total.
    Built by ``total_strategy``; a missing (j, t) table raises first.
    """
    def rows(j: int, t: int, dom: InfoSet):
        if (j, t) not in g.tables:
            raise UndefinedPolicyEntry(j, t, "<no table>")
        g_table, fallback = g.tables[(j, t)], s.action_space(j, t).values[0]
        dom_reals = enumerate_realizations(s, dom, cap)
        return lambda a: PrescriptionFunction(
            owner=k, target=j, time=t, domain=dom,
            table={l: g_table.get(a.merge(l).values, fallback) for l in dom_reals})
    return total_strategy(s, d, k, rows, cap)


def strategy_to_policy(s: Scenario, d: DelayMatrix, psi: FullStrategy,
                       cap: int = DEFAULT_ENUM_CAP) -> Policy:
    """Collapse a prescription strategy back into a total control policy.

    Every agent's action on a memory realization is the prescription chosen
    by the strategy on the shared part, applied to the private part, which
    is cut by ``prescription_domain`` so that ``act`` checks the chosen
    prescription's domain. Built by ``total_policy``.
    """
    def actions(j: int, t: int):
        cond = conditioning_labels(d, psi.owner, j, t)
        dom = prescription_domain(d, psi.owner, j, t)
        return lambda m: act(psi.gamma(j, t, m.restrict(cond)), m.restrict(dom))
    return total_policy(s, d, actions, cap)


def positional_transfer(psi: FullStrategy, j: int, s: Scenario,
                        d: DelayMatrix, cap: int = DEFAULT_ENUM_CAP) -> FullStrategy:
    """Re-seat a strategy at agent j without changing any induced action.

    Routes through the induced control policy: the policy generates the same
    actions for every agent, and re-splitting it at agent j yields j's
    action-equivalent prescription strategy.
    """
    return policy_to_strategy(s, d, strategy_to_policy(s, d, psi, cap), j, cap)


def complete_prescription_at(s: Scenario, d: DelayMatrix, psi: FullStrategy,
                             t: int, a: Realization) -> CompletePrescription:
    """Materialize the owner's complete prescription for one accessible
    realization ``a`` of the owner's shared information at time t."""
    k = psi.owner
    want = accessible_labels(d, k, t)
    if a.domain != want:
        raise DomainMismatch.between(want, a.domain)
    gammas = []
    for j in s.agents():
        cond = conditioning_labels(d, k, j, t)
        gammas.append(psi.gamma(j, t, a.restrict(cond)))
    return CompletePrescription(owner=k, time=t, parts=tuple(gammas))


def full_table(s: Scenario, gamma: PrescriptionFunction,
               cap: int = DEFAULT_ENUM_CAP) -> dict[Realization, str]:
    """The prescription's table materialized over its whole domain."""
    out = {}
    for l in enumerate_realizations(s, gamma.domain, cap):
        out[l] = act(gamma, l)
    return out


class ActionTables:
    """One action per cell for each agent, as a sized, re-iterable view.

    Iterating is ``itertools.product`` over one axis of actions per (agent,
    cell): only action tuples are pooled, and the flat tuples come in the
    order of a product of per-agent tables (agent, cell, action, last
    fastest). ``size`` is their number, known before any table is built;
    caps read it, since ``len`` fails above ``sys.maxsize``. ``split`` cuts a
    flat tuple into per-agent tables; given ``build``, iterating yields
    ``build(split(flat))``.
    """

    def __init__(self, actions, counts, build=None):
        self.axes = [acts for acts, n in zip(actions, counts) for _ in range(n)]
        self.cuts = list(itertools.accumulate(counts, initial=0))
        self.size = math.prod(map(len, self.axes))
        self.build = build

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        flats = itertools.product(*self.axes)
        if self.build is None:
            return flats
        return map(self.build, map(self.split, flats))

    def split(self, flat: tuple) -> tuple[tuple, ...]:
        return tuple(flat[a:b] for a, b in itertools.pairwise(self.cuts))


def support_prescriptions(s: Scenario, k: int, t: int, doms: list[InfoSet],
                          reached) -> ActionTables:
    """Agent k's complete prescriptions at t that differ on reached entries.

    ``doms[j - 1]`` is target j's prescription domain and ``reached[j - 1]``
    the set of its realizations that the caller's histories reach. Only
    those entries are enumerated, in canonical order and as a sized view;
    every other entry cannot affect the caller and takes the target's first
    action.
    """
    dreals = [sorted(reals, key=lambda r: r.items) for reals in reached]
    spaces = [s.action_space(j, t).values for j in s.agents()]

    def build(tables) -> CompletePrescription:
        return CompletePrescription(owner=k, time=t, parts=tuple([
            PrescriptionFunction(owner=k, target=j, time=t, domain=dom,
                                 table=dict(zip(reals, table)), default=acts[0])
            for j, dom, reals, table, acts in zip(
                s.agents(), doms, dreals, tables, spaces)]))
    return ActionTables(spaces, [len(reals) for reals in dreals], build)
