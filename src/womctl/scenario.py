"""The finite system model: spaces, dynamics tables, primitives, and exact runs.

A scenario bundles everything Problem-style solvers need: finite value spaces,
the state-transition and observation tables, per-stage costs, and the
distributions of the primitive random variables (initial state, system noise,
per-agent sensor noise). Both simulation and exhaustive enumeration propagate
the same six-step cycle per time step: observe, update memories, transmit,
act, incur cost, advance the state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from .errors import (
    BadDistribution,
    EnumerationCapExceeded,
    MissingTableEntry,
    UndefinedPolicyEntry,
    WomctlError,
)
from .infostruct import DEFAULT_ENUM_CAP, Realization, act, memory_labels, obs
from .topology import DelayMatrix, Topology, min_delay_matrix

if TYPE_CHECKING:
    from .randgen import Rng

DIST_TOL = 1e-12


@dataclass(frozen=True)
class FiniteSpace:
    """An ordered finite set of symbolic values."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise WomctlError(f"space '{self.name}' is empty")
        if len(set(self.values)) != len(self.values):
            raise WomctlError(f"space '{self.name}' has duplicate values")


@dataclass(frozen=True)
class Distribution:
    """A probability table over one finite space."""

    space: FiniteSpace
    probs: dict[str, float]

    def validate(self, name: str) -> None:
        for v, p in self.probs.items():
            if v not in self.space.values:
                raise WomctlError(f"distribution '{name}': unknown value {v!r}")
            if not math.isfinite(p) or p < 0:
                raise BadDistribution(name, sum(self.probs.values()))
        total = sum(self.probs.get(v, 0.0) for v in self.space.values)
        if abs(total - 1.0) > DIST_TOL:
            raise BadDistribution(name, total)

    def prob(self, value: str) -> float:
        return self.probs.get(value, 0.0)

    def support(self) -> list[tuple[str, float]]:
        return [(v, self.probs[v]) for v in self.space.values if self.probs.get(v, 0.0) > 0.0]

    def sample(self, rng: Rng) -> str:
        values = self.space.values
        return values[rng.choice(len(values), [self.probs.get(v, 0.0) for v in values])]


@dataclass(frozen=True)
class Scenario:
    """Finite system model over a fixed horizon.

    Tables are dense dicts: ``transition[(t, x, u_profile, w)] -> x'``,
    ``observation[(k, t, x, v)] -> y`` and ``cost[(t, x, u_profile)] -> float``
    with ``u_profile`` the tuple of actions of agents 1..K.
    """

    agent_count: int
    horizon: int
    state_space: FiniteSpace
    action_spaces: dict[int, FiniteSpace]
    obs_spaces: dict[int, FiniteSpace]
    w_space: FiniteSpace
    v_spaces: dict[int, FiniteSpace]
    transition: dict[tuple, str]
    observation: dict[tuple, str]
    cost: dict[tuple, float]
    init_dist: Distribution
    w_dists: dict[int, Distribution]
    v_dists: dict[tuple[int, int], Distribution]
    # feasible actions are time-invariant unless a step declares its own set
    action_overrides: dict[tuple[int, int], FiniteSpace] = field(
        default_factory=dict)

    def agents(self) -> range:
        return range(1, self.agent_count + 1)

    def times(self) -> range:
        return range(0, self.horizon + 1)

    def action_space(self, k: int, t: int) -> FiniteSpace:
        return self.action_overrides.get((k, t), self.action_spaces[k])

    def action_profiles(self, t: int) -> list[tuple[str, ...]]:
        return list(itertools.product(*(self.action_space(k, t).values
                                        for k in self.agents())))

    def f(self, t: int, x: str, u: tuple[str, ...], w: str) -> str:
        try:
            return self.transition[(t, x, u, w)]
        except KeyError:
            raise MissingTableEntry("transition", (t, x, u, w)) from None

    def h(self, k: int, t: int, x: str, v: str) -> str:
        try:
            return self.observation[(k, t, x, v)]
        except KeyError:
            raise MissingTableEntry("observation", (k, t, x, v)) from None

    def c(self, t: int, x: str, u: tuple[str, ...]) -> float:
        try:
            return self.cost[(t, x, u)]
        except KeyError:
            raise MissingTableEntry("cost", (t, x, u)) from None

    def validate(self) -> None:
        """Check totality of every table and validity of every distribution."""
        if self.horizon < 0:
            raise WomctlError(f"horizon must be >= 0, got {self.horizon}")
        for k in self.agents():
            for name, spaces in (("action", self.action_spaces),
                                 ("obs", self.obs_spaces),
                                 ("vnoise", self.v_spaces)):
                if k not in spaces:
                    raise WomctlError(f"agent {k} has no {name} space")
        for (k, t) in self.action_overrides:
            if not (1 <= k <= self.agent_count and 0 <= t <= self.horizon):
                raise WomctlError(f"action override for unknown (agent {k}, t={t})")
        valid_keys = set()
        for t in self.times():
            profiles = self.action_profiles(t)
            for x in self.state_space.values:
                for u in profiles:
                    valid_keys.add((t, x, u))
                    for w in self.w_space.values:
                        if (t, x, u, w) not in self.transition:
                            raise MissingTableEntry("transition", (t, x, u, w))
                    if (t, x, u) not in self.cost:
                        raise MissingTableEntry("cost", (t, x, u))
                for k in self.agents():
                    for v in self.v_spaces[k].values:
                        if (k, t, x, v) not in self.observation:
                            raise MissingTableEntry("observation", (k, t, x, v))
        for key, x2 in self.transition.items():
            if (key[0], key[1], key[2]) not in valid_keys or \
                    key[3] not in self.w_space.values:
                raise WomctlError(f"transition{key} lies outside the declared domain")
            if x2 not in self.state_space.values:
                raise WomctlError(f"transition{key} -> {x2!r} not a state")
        for key, _c in self.cost.items():
            if key not in valid_keys:
                raise WomctlError(f"cost{key} lies outside the declared domain")
        for key, y in self.observation.items():
            k, t, x, v = key
            if not (k in self.agents() and t in self.times()
                    and x in self.state_space.values
                    and v in self.v_spaces[k].values):
                raise WomctlError(
                    f"observation{key} lies outside the declared domain")
            if y not in self.obs_spaces[key[0]].values:
                raise WomctlError(f"observation{key} -> {y!r} not in the agent's space")
        self.init_dist.validate("init")
        for t in self.times():
            if t not in self.w_dists:
                raise WomctlError(f"no system-noise distribution for t={t}")
            self.w_dists[t].validate(f"w@t={t}")
            for k in self.agents():
                if (k, t) not in self.v_dists:
                    raise WomctlError(f"no sensor-noise distribution for agent {k}, t={t}")
                self.v_dists[(k, t)].validate(f"v{k}@t={t}")


@dataclass(frozen=True)
class PrimitiveAssignment:
    """One joint realization of all primitive random variables."""

    x0: str
    w: tuple[str, ...]                 # w[t]
    v: tuple[tuple[str, ...], ...]     # v[k-1][t]
    prob: float


@dataclass(frozen=True)
class Trajectory:
    """A complete system run, consistent with the per-step activity order."""

    states: tuple[str, ...]                          # x_0 .. x_{T+1}
    w: tuple[str, ...]                               # w_0 .. w_T
    v: tuple[tuple[str, ...], ...]                   # v[k-1][t]
    observations: tuple[tuple[str, ...], ...]        # y[k-1][t]
    actions: tuple[tuple[str, ...], ...]             # u[k-1][t]
    broadcasts: tuple[tuple[tuple[str, str | None], ...], ...]  # (y_t, u_{t-1})[k-1][t]
    stage_costs: tuple[float, ...]

    @property
    def total_cost(self) -> float:
        return sum(self.stage_costs)


@dataclass
class Policy:
    """Per-agent, per-time action tables keyed by memory realizations."""

    agent_count: int
    horizon: int
    tables: dict[tuple[int, int], dict[Realization, str]] = field(default_factory=dict)

    def action(self, k: int, t: int, memory: Realization) -> str:
        try:
            return self.tables[(k, t)][memory]
        except KeyError:
            raise UndefinedPolicyEntry(k, t, str(memory)) from None

    def set_action(self, k: int, t: int, memory: Realization, u: str) -> None:
        self.tables.setdefault((k, t), {})[memory] = u


def propagate(s: Scenario, d: DelayMatrix, prim: PrimitiveAssignment,
              action_fn) -> Trajectory:
    """Run one system trajectory from a primitive assignment.

    ``action_fn(k, t, memory_realization) -> action`` supplies decisions; the
    cycle at each t is: observe, extend memories, record the broadcast pair,
    act, incur the stage cost, then advance the state with w_t.
    """
    T = s.horizon
    K = s.agent_count
    values: dict = {}
    states = [prim.x0]
    ys = [[] for _ in range(K)]
    us = [[] for _ in range(K)]
    casts = [[] for _ in range(K)]
    costs = []
    x = prim.x0
    for t in range(T + 1):
        for k in s.agents():
            y = s.h(k, t, x, prim.v[k - 1][t])
            ys[k - 1].append(y)
            values[obs(k, t)] = y
        for k in s.agents():
            casts[k - 1].append((ys[k - 1][t], us[k - 1][t - 1] if t > 0 else None))
        u_profile = []
        for k in s.agents():
            mem = memory_labels(d, k, t)
            mreal = Realization(tuple((l, values[l]) for l in mem))
            u_profile.append(action_fn(k, t, mreal))
        u_profile = tuple(u_profile)
        for k in s.agents():
            values[act(k, t)] = u_profile[k - 1]
            us[k - 1].append(u_profile[k - 1])
        costs.append(s.c(t, x, u_profile))
        x = s.f(t, x, u_profile, prim.w[t])
        states.append(x)
    return Trajectory(
        states=tuple(states),
        w=prim.w,
        v=prim.v,
        observations=tuple(tuple(col) for col in ys),
        actions=tuple(tuple(col) for col in us),
        broadcasts=tuple(tuple(col) for col in casts),
        stage_costs=tuple(costs),
    )


class PrimitiveAssignments:
    """The positive-probability joint assignments of a scenario's primitives,
    in canonical order: a sized view that builds each assignment while it is
    iterated, and can be iterated again."""

    def __init__(self, count: int, x_sup, w_sups, v_axes):
        self._count = count
        self._x_sup = x_sup
        self._w_sups = w_sups      # w_sups[t]
        self._v_axes = v_axes      # v_axes[(k - 1) * (T + 1) + t]

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[PrimitiveAssignment]:
        steps = len(self._w_sups)
        agents = range(len(self._v_axes) // steps)
        for x0, px in self._x_sup:
            for ws in itertools.product(*self._w_sups):
                pw = px
                for _, p in ws:
                    pw *= p
                w = tuple(value for value, _p in ws)  # one tuple for every vs below
                for vs in itertools.product(*self._v_axes):
                    p = pw
                    for _, pv in vs:
                        p *= pv
                    v = tuple(tuple(vs[k * steps + t][0] for t in range(steps))
                              for k in agents)
                    yield PrimitiveAssignment(x0=x0, w=w, v=v, prob=p)


def enumerate_primitives(s: Scenario, cap: int = DEFAULT_ENUM_CAP
                         ) -> PrimitiveAssignments:
    """Every positive-probability joint assignment of the primitives, as a
    view whose length is checked against ``cap`` here, before any is built."""
    T = s.horizon
    x_sup = s.init_dist.support()
    w_sups = [s.w_dists[t].support() for t in range(T + 1)]
    v_sups = [[s.v_dists[(k, t)].support() for t in range(T + 1)] for k in s.agents()]
    total = len(x_sup)
    for sup in w_sups:
        total *= len(sup)
    for per_agent in v_sups:
        for sup in per_agent:
            total *= len(sup)
    if total > cap:
        raise EnumerationCapExceeded("primitive assignments", total, cap)
    return PrimitiveAssignments(
        total, x_sup, w_sups, [sup for per_agent in v_sups for sup in per_agent])


def joint_distribution(s: Scenario, d: DelayMatrix, g: Policy,
                       cap: int = DEFAULT_ENUM_CAP) -> dict[Trajectory, float]:
    """Exact distribution over trajectories induced by a policy.

    Enumerates every positive-probability primitive assignment, propagates it
    deterministically, and attaches the product-measure weight.
    """
    out: dict[Trajectory, float] = {}
    for prim in enumerate_primitives(s, cap):
        traj = propagate(s, d, prim, g.action)
        out[traj] = out.get(traj, 0.0) + prim.prob
    return out


def simulate(s: Scenario, t: Topology, g: Policy, seed: int) -> Trajectory:
    """Sample one trajectory; identical seeds give identical trajectories.

    Each primitive variable draws from its own generator stream, spawned in a
    fixed order (initial state, then w by time, then each agent's v by time).
    """
    from .randgen import Rng, SeedSequence

    d = min_delay_matrix(t)
    T = s.horizon
    n_streams = 1 + (T + 1) + s.agent_count * (T + 1)
    streams = [Rng(ss) for ss in SeedSequence(seed).spawn(n_streams)]
    x0 = s.init_dist.sample(streams[0])
    w = tuple(s.w_dists[tt].sample(streams[1 + tt]) for tt in range(T + 1))
    v = tuple(
        tuple(s.v_dists[(k, tt)].sample(streams[1 + (T + 1) + (k - 1) * (T + 1) + tt])
              for tt in range(T + 1))
        for k in s.agents()
    )
    prim = PrimitiveAssignment(x0=x0, w=w, v=v, prob=1.0)
    return propagate(s, d, prim, g.action)
