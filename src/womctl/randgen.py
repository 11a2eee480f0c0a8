"""Seeded generators for random desk-scale instances, policies, and strategies.

Everything here is deterministic in the provided generator, so verification
batches reproduce bit-for-bit from a single seed.

The generator is written out here in pure Python, so its streams are fixed
by this file alone; ``tests/test_randgen.py`` checks them draw for draw
against the reference implementation of the same algorithms:

- seeding is ``SeedSequence`` entropy pooling (a pool of four uint32 words);
- the bit generator is PCG64, the 128-bit LCG with XSL-RR 64-bit output
  (O'Neill, PCG, HMC-CS-2014-0905); 32-bit draws use both halves of one
  64-bit output;
- bounded integers use Lemire's multiply-and-reject method (ACM TOMACS 2019),
  shuffles use masked rejection.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys

from .infostruct import DEFAULT_ENUM_CAP, InfoSet, enumerate_realizations
from .prescription import FullStrategy, PrescriptionFunction, total_strategy
from .scenario import Distribution, FiniteSpace, Policy, Scenario, total_policy
from .topology import DelayMatrix, Topology

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_P_ATOL = math.sqrt(sys.float_info.epsilon)


def _words(n: int) -> list[int]:
    """A non-negative integer as little-endian uint32 words ([0] for 0)."""
    if n < 0:
        raise ValueError(f"seed entries must be non-negative, got {n}")
    out = [n & _M32]
    n >>= 32
    while n:
        out.append(n & _M32)
        n >>= 32
    return out


def _pool(entropy: list[int]) -> list[int]:
    """Hash uint32 entropy words into the four-word pool."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class SeedSequence:
    """Entropy (an integer or a list of them) plus a spawn key, pooled."""

    def __init__(self, entropy: int | list[int], spawn_key: tuple[int, ...] = ()):
        self._entropy = entropy
        self._key = spawn_key
        run = [w for n in ([entropy] if isinstance(entropy, int) else entropy)
               for w in _words(n)]
        key = [w for n in spawn_key for w in _words(n)]
        if key:
            # a spawned pool is zero-padded so that the key cannot alias entropy
            run += [0] * (_POOL_SIZE - len(run))
        self._pool = _pool(run + key)

    def spawn(self, n: int) -> list[SeedSequence]:
        """Children ``0..n-1``: the same entropy, keyed by child index."""
        return [SeedSequence(self._entropy, self._key + (i,)) for i in range(n)]

    def generate_state(self, n_words: int) -> list[int]:
        """``n_words`` uint32 words drawn from the pool."""
        const = _INIT_B
        out = []
        for i in range(n_words):
            value = self._pool[i % _POOL_SIZE] ^ const
            const = const * _MULT_B & _M32
            value = value * const & _M32
            out.append(value ^ value >> 16)
        return out


class Rng:
    """PCG64 (XSL-RR 128/64) seeded from a ``SeedSequence``, with the five
    draws that womctl uses."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seq: SeedSequence):
        w = seq.generate_state(8)
        s_hi, s_lo, i_hi, i_lo = (w[j] | w[j + 1] << 32 for j in range(0, 8, 2))
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT
                       + self._inc) & _M128
        self._half = None  # the unused high half of the last 64-bit output

    def _next64(self) -> int:
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        rot = s >> 122
        x = (s >> 64 ^ s) & _M64
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def integers(self, lo: int, hi: int) -> int:
        """Uniform on ``lo..hi-1`` (at most 2**32 values)."""
        n = hi - lo
        if n <= 0:
            raise ValueError(f"empty range [{lo}, {hi})")
        if n > 1 << 32:
            raise ValueError(f"range [{lo}, {hi}) is wider than 2**32")
        if n == 1:
            return lo
        m = self._next32() * n
        if m & _M32 < n:
            threshold = (1 << 32) % n
            while m & _M32 < threshold:
                m = self._next32() * n
        return lo + (m >> 32)

    def random(self) -> float:
        """Uniform on [0, 1), in steps of 2**-53."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def permutation(self, n: int) -> list[int]:
        """A shuffled ``0..n-1`` (Fisher-Yates from the top)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out

    def choice(self, n: int, p: list[float]) -> int:
        """An index in ``0..n-1`` drawn with probabilities ``p``."""
        if len(p) != n:
            raise ValueError(f"{len(p)} probabilities for {n} values")
        if not all(x >= 0.0 for x in p):
            raise ValueError("probabilities must be non-negative")
        if abs(math.fsum(p) - 1.0) > _P_ATOL:
            raise ValueError("probabilities do not sum to 1")
        cdf = list(itertools.accumulate(p))
        total = cdf[-1]
        return bisect.bisect_right([c / total for c in cdf], self.random())


def sub_rng(seed: int, *key: int) -> Rng:
    """A generator derived deterministically from a seed and an index path."""
    return Rng(SeedSequence([seed, *key]))


def random_topology(rng: Rng, max_agents: int = 5, max_delay: int = 3,
                    min_agents: int = 2) -> Topology:
    """A random strongly connected digraph: a ring plus extra links."""
    K = rng.integers(min_agents, max_agents + 1)
    if K == 1:
        return Topology.of(1, [])
    order = [a + 1 for a in rng.permutation(K)]
    links = {}
    for i in range(K):
        a, b = order[i], order[(i + 1) % K]
        links[(a, b)] = rng.integers(1, max_delay + 1)
    for a in range(1, K + 1):
        for b in range(1, K + 1):
            if a != b and (a, b) not in links and rng.random() < 0.3:
                links[(a, b)] = rng.integers(1, max_delay + 1)
    return Topology.of(K, [(a, b, w) for (a, b), w in links.items()])


def _weights_dist(rng: Rng, space: FiniteSpace) -> Distribution:
    w = [rng.integers(1, 10) for _ in space.values]
    return Distribution(space, {v: x / sum(w) for v, x in zip(space.values, w)})


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
                x2 = states.values[rng.integers(0, 2)]
                for t in range(horizon + 1):
                    transition[(t, x, u, w)] = x2
            c = round(rng.uniform(0.0, 2.0), 3)
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
            good = 0.6 + 0.3 * rng.random()
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
    """A policy defined on every memory realization, reachable or not, built
    by ``total_policy``: actions are drawn in (agent, time, memory) order."""
    def actions(k: int, t: int):
        values = s.action_space(k, t).values
        return lambda _m: values[rng.integers(0, len(values))]
    return total_policy(s, d, actions, cap)


def random_strategy(rng: Rng, s: Scenario, d: DelayMatrix, k: int,
                    cap: int = DEFAULT_ENUM_CAP) -> FullStrategy:
    """A random total prescription strategy owned by agent k, built by
    ``total_strategy``: actions are drawn in (time, target, conditioning
    realization, domain realization) order."""
    def rows(j: int, t: int, dom: InfoSet):
        dom_reals = enumerate_realizations(s, dom, cap)
        values = s.action_space(j, t).values
        return lambda _a: PrescriptionFunction(
            owner=k, target=j, time=t, domain=dom,
            table={l: values[rng.integers(0, len(values))] for l in dom_reals})
    return total_strategy(s, d, k, rows, cap)
