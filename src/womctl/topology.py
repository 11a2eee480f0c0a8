"""Directed delay networks: validation, minimum communication delays, relay paths.

Agents are numbered 1..K and the agent order is meaningful throughout the
package (it determines which information counts as shared). Links are
directed and carry a strictly positive integer delay, so the delay from j
to k generally differs from the delay from k to j.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import (
    DuplicateLink,
    NonPositiveDelay,
    NotStronglyConnected,
    SameAgent,
    SelfLink,
    TopologyError,
)


Link = namedtuple("Link", "src dst delay")


class Topology(namedtuple("Topology", "agent_count links")):
    """A directed graph of agents with per-link transmission delays, its
    links a sorted tuple of ``Link``s."""

    __slots__ = ()

    @classmethod
    def of(cls, agent_count: int, links) -> "Topology":
        """Build a topology from (src, dst, delay) triples, sorted canonically."""
        ls = tuple(sorted(Link(int(a), int(b), int(w)) for a, b, w in links))
        return cls(agent_count=int(agent_count), links=ls)

    def agents(self) -> range:
        return range(1, self.agent_count + 1)

    def out_links(self, agent: int) -> list[Link]:
        return [l for l in self.links if l.src == agent]


class InfoPath(namedtuple("InfoPath", "nodes total_delay")):
    """A relay path through the network (a tuple of agents) and its
    accumulated delay."""

    __slots__ = ()


class DelayMatrix(namedtuple("DelayMatrix", "agent_count rows")):
    """Minimum communication delays for every ordered agent pair, as a tuple
    of rows.

    ``delay(j, k)`` is the least total delay over all paths from j to k;
    the diagonal is 0 by convention.
    """

    __slots__ = ()

    def delay(self, src: int, dst: int) -> int:
        return self.rows[src - 1][dst - 1]

    def agents(self) -> range:
        return range(1, self.agent_count + 1)


def validate_topology(t: Topology) -> tuple[tuple[int, ...], ...]:
    """Raise a TopologyError unless ``t`` satisfies every structural invariant;
    otherwise return its all-pairs minimum delays, row by row.

    Checks, in order: agent count, link endpoints, self links, duplicate
    ordered pairs, positive delays, and strong connectivity. One
    Floyd-Warshall pass on the link delays gives the delays, and the first
    ordered pair it leaves unreached is named in the error.
    """
    if t.agent_count < 1:
        raise TopologyError(f"agent count must be >= 1, got {t.agent_count}")
    seen: set[tuple[int, int]] = set()
    for l in t.links:
        if not (1 <= l.src <= t.agent_count and 1 <= l.dst <= t.agent_count):
            raise TopologyError(f"link {l} references an unknown agent")
        if l.src == l.dst:
            raise SelfLink(l.src)
        if (l.src, l.dst) in seen:
            raise DuplicateLink(l.src, l.dst)
        seen.add((l.src, l.dst))
        if l.delay < 1:
            raise NonPositiveDelay(l.src, l.dst, l.delay)
    n = t.agent_count
    inf = float("inf")
    d = [[inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for l in t.links:
        d[l.src - 1][l.dst - 1] = l.delay
    for m in range(n):
        for i in range(n):
            dim = d[i][m]
            if dim == inf:
                continue
            row_m = d[m]
            row_i = d[i]
            for j in range(n):
                alt = dim + row_m[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    for a, b in itertools.product(t.agents(), t.agents()):
        if d[a - 1][b - 1] == inf:
            raise NotStronglyConnected(a, b)
    return tuple(tuple(int(x) for x in row) for row in d)


def min_delay_matrix(t: Topology) -> DelayMatrix:
    """All-pairs minimum communication delays of a valid topology."""
    return DelayMatrix(t.agent_count, validate_topology(t))


def information_paths(t: Topology, k: int, d: DelayMatrix) -> dict[int, InfoPath]:
    """The relay path from k to every other agent, in one walk from k.

    ``d`` is ``min_delay_matrix(t)``. Delays are positive, so every prefix of
    a minimum-delay path is itself a minimum-delay path: the walk extends a
    prefix only while each node on it is reached at its matrix delay, and so
    meets every minimum-delay simple path from k and no other path (it
    revisits no node). Each target keeps the path with the least (arrival
    times, nodes) key; see ``information_path`` for the tie-break.
    """
    out: dict[int, list[Link]] = {a: t.out_links(a) for a in t.agents()}
    best: dict[int, tuple] = {}
    stack: list[tuple] = [((), (k,))]  # (arrival times, nodes) of a prefix
    while stack:
        arrivals, path = stack.pop()
        so_far = arrivals[-1] if arrivals else 0
        for l in out[path[-1]]:
            at = so_far + l.delay
            if at != d.delay(k, l.dst):
                continue
            key = (arrivals + (at,), path + (l.dst,))
            if l.dst not in best or key < best[l.dst]:
                best[l.dst] = key
            stack.append(key)
    return {j: InfoPath(nodes=best[j][1], total_delay=d.delay(k, j))
            for j in t.agents() if j in best}


def information_path(t: Topology, k: int, j: int,
                     d: DelayMatrix | None = None) -> InfoPath:
    """The relay path from k to j used for transmissions.

    Among all simple paths achieving the minimum total delay, ties are broken
    by the lexicographically smallest sequence of cumulative arrival times at
    the successive relays (information reaches each intermediate agent as
    early as possible), and remaining ties by the smallest node sequence.
    A caller that holds ``min_delay_matrix(t)`` passes it as ``d``, which
    skips validating ``t`` and recomputing the matrix.
    """
    if d is None:
        d = min_delay_matrix(t)
    if k == j:
        raise SameAgent(k)
    return information_paths(t, k, d)[j]
