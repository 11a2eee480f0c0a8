"""Independent oracles used by the tests.

These deliberately avoid the package's own shortest-path and label-set code:
delays come from exhaustive simple-path enumeration or Bellman-Ford
relaxation, and memories from replaying transmissions hop by hop.
"""

from __future__ import annotations

import itertools

from womctl.infostruct import InfoSet, act, obs
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
