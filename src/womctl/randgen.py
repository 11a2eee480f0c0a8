"""Seeded generators for random desk-scale instances, policies, and strategies.

Everything here is deterministic in the provided generator, so verification
batches reproduce bit-for-bit from a single seed.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .infostruct import (
    DEFAULT_ENUM_CAP,
    Realization,
    enumerate_realizations,
    memory_labels,
)
from .prescription import (
    FullStrategy,
    PrescriptionFunction,
    conditioning_labels,
    prescription_domain,
)
from .scenario import Distribution, FiniteSpace, Policy, Scenario
from .topology import DelayMatrix, Topology

if TYPE_CHECKING:
    from numpy.random import Generator as Rng


def sub_rng(seed: int, *key: int) -> Rng:
    """A generator derived deterministically from a seed and an index path."""
    import numpy as np

    return np.random.default_rng([seed, *key])


def random_topology(rng: Rng, max_agents: int = 5, max_delay: int = 3,
                    min_agents: int = 2) -> Topology:
    """A random strongly connected digraph: a ring plus extra links."""
    K = int(rng.integers(min_agents, max_agents + 1))
    if K == 1:
        return Topology.of(1, [])
    order = [int(a) + 1 for a in rng.permutation(K)]
    links = {}
    for i in range(K):
        a, b = order[i], order[(i + 1) % K]
        links[(a, b)] = int(rng.integers(1, max_delay + 1))
    for a in range(1, K + 1):
        for b in range(1, K + 1):
            if a != b and (a, b) not in links and rng.random() < 0.3:
                links[(a, b)] = int(rng.integers(1, max_delay + 1))
    return Topology.of(K, [(a, b, w) for (a, b), w in links.items()])


def _weights_dist(rng: Rng, space: FiniteSpace) -> Distribution:
    w = rng.integers(1, 10, size=len(space.values)).astype(float)
    return Distribution(space, {v: float(x) / float(w.sum())
                                for v, x in zip(space.values, w)})


def random_scenario(rng: Rng, topology: Topology, horizon: int,
                    noisy_obs: bool = False) -> Scenario:
    """A binary random scenario over the given topology.

    Observations read the state exactly, or through a symmetric error channel
    when ``noisy_obs`` is set. Transition rows are drawn independently per
    (state, action profile, noise), costs uniformly on [0, 2).
    """
    K = topology.agent_count
    states = FiniteSpace("x", ("a", "b"))
    w_space = FiniteSpace("w", ("w0", "w1"))
    action_spaces = {k: FiniteSpace(f"u{k}", ("u0", "u1")) for k in range(1, K + 1)}
    obs_spaces = {k: FiniteSpace(f"y{k}", ("a", "b")) for k in range(1, K + 1)}
    v_values = ("v0", "v1") if noisy_obs else ("v0",)
    v_spaces = {k: FiniteSpace(f"v{k}", v_values) for k in range(1, K + 1)}

    profiles = list(itertools.product(*(action_spaces[k].values
                                        for k in range(1, K + 1))))
    transition, cost, observation = {}, {}, {}
    flip = {"a": "b", "b": "a"}
    for x in states.values:
        for u in profiles:
            for w in w_space.values:
                x2 = states.values[int(rng.integers(0, 2))]
                for t in range(horizon + 1):
                    transition[(t, x, u, w)] = x2
            c = round(float(rng.uniform(0.0, 2.0)), 3)
            for t in range(horizon + 1):
                cost[(t, x, u)] = c
    for k in range(1, K + 1):
        for x in states.values:
            for v in v_values:
                y = x if v == "v0" else flip[x]
                for t in range(horizon + 1):
                    observation[(k, t, x, v)] = y

    init = _weights_dist(rng, states)
    w_dist = _weights_dist(rng, w_space)
    v_dists = {}
    for k in range(1, K + 1):
        if noisy_obs:
            good = 0.6 + 0.3 * float(rng.random())
            dist = Distribution(v_spaces[k], {"v0": good, "v1": 1.0 - good})
        else:
            dist = Distribution(v_spaces[k], {"v0": 1.0})
        for t in range(horizon + 1):
            v_dists[(k, t)] = dist

    s = Scenario(
        agent_count=K, horizon=horizon, state_space=states,
        action_spaces=action_spaces, obs_spaces=obs_spaces,
        w_space=w_space, v_spaces=v_spaces,
        transition=transition, observation=observation, cost=cost,
        init_dist=init,
        w_dists={t: w_dist for t in range(horizon + 1)},
        v_dists=v_dists,
    )
    s.validate()
    return s


def random_total_policy(rng: Rng, s: Scenario, d: DelayMatrix,
                        cap: int = DEFAULT_ENUM_CAP) -> Policy:
    """A policy defined on every memory realization, reachable or not."""
    g = Policy(agent_count=s.agent_count, horizon=s.horizon)
    for k in s.agents():
        for t in s.times():
            actions = s.action_space(k, t).values
            for m in enumerate_realizations(s, memory_labels(d, k, t), cap):
                g.set_action(k, t, m, actions[int(rng.integers(0, len(actions)))])
    return g


def random_strategy(rng: Rng, s: Scenario, d: DelayMatrix, k: int,
                    cap: int = DEFAULT_ENUM_CAP) -> FullStrategy:
    """A random total prescription strategy owned by agent k."""
    parts: dict[tuple[int, int], dict[Realization, PrescriptionFunction]] = {}
    for t in s.times():
        for j in s.agents():
            cond = conditioning_labels(d, k, j, t)
            dom = prescription_domain(d, k, j, t)
            dom_reals = enumerate_realizations(s, dom, cap)
            actions = s.action_space(j, t).values
            rows = {}
            for a in enumerate_realizations(s, cond, cap):
                table = {
                    l: actions[int(rng.integers(0, len(actions)))]
                    for l in dom_reals
                }
                rows[a] = PrescriptionFunction(owner=k, target=j, time=t,
                                               domain=dom, table=table)
            parts[(j, t)] = rows
    return FullStrategy(owner=k, agent_count=s.agent_count,
                        horizon=s.horizon, parts=parts)
