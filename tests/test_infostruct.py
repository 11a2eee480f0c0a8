import pytest
from hypothesis import given, settings, strategies as st

from womctl.errors import EnumerationCapExceeded, NotBeyond
from womctl.infostruct import (
    InfoSet,
    Kind,
    Realization,
    accessible_labels,
    act,
    enumerate_realizations,
    inaccessible_labels,
    memory_labels,
    new_info_labels,
    obs,
)
from womctl.randgen import random_topology, sub_rng
from womctl.serialize import parse_label
from womctl.solver import structural_search
from womctl.topology import Topology, min_delay_matrix
from womctl.verify import build_inputs

from oracles import replayed_memory

SYM2 = min_delay_matrix(Topology.of(2, [(1, 2, 1), (2, 1, 1)]))


def infoset(*labels):
    return InfoSet.of(labels)


def test_memory_of_agent_one_at_t2():
    assert memory_labels(SYM2, 1, 2) == infoset(
        obs(1, 0), obs(1, 1), obs(1, 2), act(1, 0), act(1, 1),
        obs(2, 0), obs(2, 1), act(2, 0))


def test_memory_at_time_zero_drops_negative_ranges():
    assert memory_labels(SYM2, 1, 0) == infoset(obs(1, 0))


def test_first_agent_accessible_equals_memory():
    for t in range(4):
        assert accessible_labels(SYM2, 1, t) == memory_labels(SYM2, 1, t)


def test_accessible_of_agent_two_at_t2():
    assert accessible_labels(SYM2, 2, 2) == infoset(
        obs(1, 0), obs(1, 1), act(1, 0), obs(2, 0), obs(2, 1), act(2, 0))


def test_new_info_at_time_zero_is_initial_accessible():
    assert new_info_labels(SYM2, 2, 0) == accessible_labels(SYM2, 2, 0)
    assert new_info_labels(SYM2, 1, 0) == infoset(obs(1, 0))


def test_new_info_single_agent():
    d = min_delay_matrix(Topology.of(1, []))
    assert new_info_labels(d, 1, 2) == infoset(obs(1, 2), act(1, 1))


def test_new_info_disjoint_from_previous_accessible():
    for t in range(1, 4):
        for k in (1, 2):
            z = new_info_labels(SYM2, k, t)
            prev = accessible_labels(SYM2, k, t - 1)
            assert len(z.intersect(prev)) == 0


def test_inaccessible_own_view_of_first_agent_is_empty():
    for t in range(4):
        assert inaccessible_labels(SYM2, 1, 1, t) == InfoSet(())


def test_inaccessible_of_one_with_respect_to_two_at_t2():
    assert inaccessible_labels(SYM2, 1, 2, 2) == infoset(obs(1, 2), act(1, 1))


def test_inaccessible_requires_target_at_or_after_base():
    with pytest.raises(NotBeyond):
        inaccessible_labels(SYM2, 2, 1, 1)


def test_beyond_sets():
    # the agents at or after k, range(k, K + 1), are exactly the targets
    # for which k's inaccessible set is defined
    for K in (3, 4):
        ring = min_delay_matrix(Topology.of(
            K, [(a, a % K + 1, 1) for a in range(1, K + 1)]))
        for k in range(1, K + 1):
            admitted = []
            for j in range(1, K + 1):
                try:
                    inaccessible_labels(ring, k, j, 1)
                except NotBeyond:
                    continue
                admitted.append(j)
            assert admitted == list(range(k, K + 1))
            assert len(admitted) == K - k + 1


def test_enumerate_realizations_trivial_and_counts(inst_a):
    _topo, s, _d = inst_a
    assert enumerate_realizations(s, InfoSet(())) == [Realization(())]
    assert len(enumerate_realizations(s, infoset(obs(1, 0)))) == 2
    three = infoset(obs(1, 0), obs(2, 0), act(1, 0))
    reals = enumerate_realizations(s, three)
    assert len(reals) == 8
    assert reals == sorted(reals, key=lambda r: tuple(v for _l, v in r.items))
    with pytest.raises(EnumerationCapExceeded):
        enumerate_realizations(s, three, cap=7)


def test_ring_memory_matches_transmission_replay_at_t3():
    ring = Topology.of(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
    d = min_delay_matrix(ring)
    for k in ring.agents():
        assert memory_labels(d, k, 3) == replayed_memory(ring, k, 3)


def _random_case(seed):
    rng = sub_rng(200, seed)
    topo = random_topology(rng, max_agents=5)
    return topo, min_delay_matrix(topo), int(rng.integers(0, 7))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_memory_matches_transmission_replay(seed):
    topo, d, T = _random_case(seed)
    for k in topo.agents():
        for t in range(T + 1):
            assert memory_labels(d, k, t) == replayed_memory(topo, k, t)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_accessible_closed_form_equals_literal_intersection(seed):
    _topo, d, T = _random_case(seed)
    for k in d.agents():
        for t in range(T + 1):
            literal = memory_labels(d, 1, t)
            for i in range(2, k + 1):
                literal = literal.intersect(memory_labels(d, i, t))
            assert accessible_labels(d, k, t) == literal


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_new_info_telescopes_to_accessible(seed):
    _topo, d, T = _random_case(seed)
    for k in d.agents():
        acc = InfoSet(())
        for t in range(T + 1):
            acc = acc.union(new_info_labels(d, k, t))
            assert acc == accessible_labels(d, k, t)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_partition_and_nesting_and_monotonicity(seed):
    _topo, d, T = _random_case(seed)
    K = d.agent_count
    for k in range(1, K + 1):
        for t in range(T + 1):
            if t > 0:
                assert memory_labels(d, k, t - 1).issubset(memory_labels(d, k, t))
                assert accessible_labels(d, k, t - 1).issubset(
                    accessible_labels(d, k, t))
            mem = memory_labels(d, k, t)
            for j in range(k, K + 1):
                acc = accessible_labels(d, j, t)
                priv = inaccessible_labels(d, k, j, t)
                assert acc.issubset(accessible_labels(d, k, t))
                assert priv.union(acc) == mem
                assert len(priv.intersect(acc)) == 0
            assert inaccessible_labels(d, k, k, t).issubset(
                inaccessible_labels(d, k, K, t))


def _canonical(label):
    return (obs if label.kind == Kind.OBS else act)(label.agent, label.time)


def test_every_route_to_a_label_hands_back_the_shared_object(inst_a):
    _topo, s, d = inst_a
    assert obs(1, 0) is obs(1, 0) and act(2, 1) is act(2, 1)
    assert parse_label("y1@0") is obs(1, 0)
    assert parse_label(" u2@1 ") is act(2, 1)
    # the DFS solvers read values off the flat history by slot, and key
    # structural's strategies by the labels of the sets they read (policy
    # tables are keyed by values alone)
    keys = []
    for by_cond in structural_search(s, d, 1).argmin.parts.values():
        keys += by_cond
        keys += [l for gamma in by_cond.values() for l in gamma.table]
    assert sum(len(r.items) for r in keys) > 0
    assert all(l is _canonical(l) for r in keys for l, _v in r.items)
    for r in enumerate_realizations(s, memory_labels(d, 2, 1)):
        assert all(l is _canonical(l) for l, _v in r.items)


def test_equal_label_sets_are_one_object_over_the_verify_cases():
    shared = {}
    results = 0
    for case in build_inputs(None, 200, 0):
        if not case.info:
            continue
        _name, _topo, d, horizon = case.info
        for k in d.agents():
            for t in range(horizon + 1):
                for info in (memory_labels(d, k, t), accessible_labels(d, k, t)):
                    results += 1
                    assert shared.setdefault(info, info) is info
                    assert all(l is _canonical(l) for l in info)
    assert len(shared) < results
