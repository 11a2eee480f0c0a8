import pytest
from hypothesis import given, settings, strategies as st

from womctl.errors import (
    DuplicateLink,
    NonPositiveDelay,
    NotStronglyConnected,
    SameAgent,
    SelfLink,
)
from womctl.randgen import random_topology, sub_rng
from womctl.topology import (
    Topology,
    information_path,
    information_paths,
    min_delay_matrix,
    validate_topology,
)

from oracles import (
    relaxation_delays,
    simple_path_min_delays,
    tie_broken_relay_paths,
)


def test_symmetric_two_cycle_is_valid():
    validate_topology(Topology.of(2, [(1, 2, 1), (2, 1, 1)]))


def test_missing_return_path_names_the_pair():
    with pytest.raises(NotStronglyConnected) as e:
        validate_topology(Topology.of(2, [(1, 2, 1)]))
    assert (e.value.src, e.value.dst) == (2, 1)


def test_directed_ring_is_valid():
    validate_topology(Topology.of(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)]))


def test_self_link_rejected():
    with pytest.raises(SelfLink):
        validate_topology(Topology.of(2, [(1, 1, 1), (1, 2, 1), (2, 1, 1)]))


def test_duplicate_link_rejected():
    with pytest.raises(DuplicateLink):
        validate_topology(Topology.of(2, [(1, 2, 1), (1, 2, 2), (2, 1, 1)]))


def test_nonpositive_delay_rejected():
    with pytest.raises(NonPositiveDelay):
        validate_topology(Topology.of(2, [(1, 2, 0), (2, 1, 1)]))


def test_single_agent_topology_is_valid():
    validate_topology(Topology.of(1, []))
    assert min_delay_matrix(Topology.of(1, [])).rows == ((0,),)


def test_two_cycle_delay_matrix():
    d = min_delay_matrix(Topology.of(2, [(1, 2, 1), (2, 1, 1)]))
    assert d.rows == ((0, 1), (1, 0))


def test_ring_delays_accumulate_along_the_cycle():
    d = min_delay_matrix(Topology.of(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)]))
    assert d.delay(1, 3) == 2
    assert d.delay(3, 1) == 1


def test_random_graphs_match_simple_path_oracle():
    for i in range(30):
        topo = random_topology(sub_rng(100, i), max_agents=5)
        d = min_delay_matrix(topo)
        oracle = simple_path_min_delays(topo)
        for (a, b), v in oracle.items():
            assert d.delay(a, b) == v
        assert relaxation_delays(topo) == oracle


def test_information_path_unique_route():
    topo = Topology.of(2, [(1, 2, 1), (2, 1, 1)])
    path = information_path(topo, 1, 2)
    assert path.nodes == (1, 2)
    assert path.total_delay == 1


def test_information_path_tie_prefers_earlier_relay_arrivals():
    # both routes take 2 steps in total; the relayed one informs agent 3 at
    # time 1 and wins the tie
    topo = Topology.of(3, [(1, 2, 2), (1, 3, 1), (3, 2, 1), (2, 1, 1)])
    path = information_path(topo, 1, 2)
    assert path.nodes == (1, 3, 2)
    assert path.total_delay == 2


def test_information_path_same_agent_rejected():
    with pytest.raises(SameAgent):
        information_path(Topology.of(2, [(1, 2, 1), (2, 1, 1)]), 1, 1)


def test_information_path_delay_equals_matrix_on_random_graphs():
    for i in range(20):
        topo = random_topology(sub_rng(101, i), max_agents=5)
        d = min_delay_matrix(topo)
        for a in topo.agents():
            for b in topo.agents():
                if a != b:
                    assert information_path(topo, a, b).total_delay == d.delay(a, b)


@pytest.mark.parametrize("max_delay", [1, 3])
def test_relay_paths_match_exhaustive_enumeration_with_tie_break(max_delay):
    # unit delays make many minimum-delay paths tie
    for i in range(150):
        topo = random_topology(sub_rng(103, max_delay, i), max_agents=6,
                               max_delay=max_delay)
        d = min_delay_matrix(topo)
        want = tie_broken_relay_paths(topo)
        for a in topo.agents():
            paths = information_paths(topo, a, d)
            assert sorted(paths) == [b for b in topo.agents() if b != a]
            for b, path in paths.items():
                assert path.nodes == want[(a, b)]
                assert path.total_delay == d.delay(a, b)
                assert information_path(topo, a, b) == path


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_delay_matrix_invariants_hold_on_random_graphs(seed):
    topo = random_topology(sub_rng(102, seed), max_agents=6)
    d = min_delay_matrix(topo)
    agents = list(topo.agents())
    for a in agents:
        assert d.delay(a, a) == 0
        for b in agents:
            if a != b:
                assert d.delay(a, b) >= 1
            for c in agents:
                assert d.delay(a, c) <= d.delay(a, b) + d.delay(b, c)
