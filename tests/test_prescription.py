import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from womctl.belief import conditional_beliefs, sufficient_info_labels
from womctl.errors import DomainMismatch
from womctl.fixtures import instance_a, instance_b
from womctl.infostruct import (
    InfoSet,
    Realization,
    act as act_label,
    enumerate_realizations,
    memory_labels,
    obs as obs_label,
)
from womctl.prescription import (
    ActionTables,
    CompletePrescription,
    PrescriptionFunction,
    act,
    conditioning_labels,
    policy_to_strategy,
    positional_transfer,
    prescription_domain,
    strategy_to_policy,
    support_prescriptions,
)
from womctl.randgen import random_strategy, random_total_policy, sub_rng
from womctl.scenario import Policy, enumerate_primitives, propagate
from womctl.scenario_io import loads_scenario
from womctl.serialize import dump_json, policy_json, strategy_json
from womctl.solver import (
    DEFAULT_POLICY_CAP,
    _BeliefDP,
    common_info_dp,
    structural_search,
)
from womctl.topology import Topology, min_delay_matrix
from womctl.verify import build_inputs

SYM2 = min_delay_matrix(Topology.of(2, [(1, 2, 1), (2, 1, 1)]))


def test_prescription_domain_matches_private_information():
    assert prescription_domain(SYM2, 2, 1, 2) == InfoSet.of(
        [obs_label(1, 2), act_label(1, 1)])
    # a target at or after the owner uses its own private remainder
    assert prescription_domain(SYM2, 1, 2, 2) == InfoSet.of(
        [obs_label(2, 2), act_label(2, 1)])
    assert prescription_domain(SYM2, 1, 1, 2) == InfoSet(())
    assert prescription_domain(SYM2, 2, 2, 2) == InfoSet.of(
        [obs_label(2, 2), act_label(2, 1)])


def test_conditioning_uses_owner_info_for_earlier_targets():
    from womctl.infostruct import accessible_labels
    assert conditioning_labels(SYM2, 2, 1, 2) == accessible_labels(SYM2, 2, 2)
    assert conditioning_labels(SYM2, 1, 2, 2) == accessible_labels(SYM2, 2, 2)
    assert conditioning_labels(SYM2, 1, 1, 2) == accessible_labels(SYM2, 1, 2)


def _constant_policy(s, d, u):
    g = Policy(agent_count=s.agent_count, horizon=s.horizon)
    for k in s.agents():
        for t in s.times():
            for m in enumerate_realizations(s, memory_labels(d, k, t)):
                g.set_action(k, t, m.values, u)
    return g


def test_constant_policy_yields_constant_prescriptions(inst_a):
    _topo, s, d = inst_a
    g = _constant_policy(s, d, "u1")
    for k in (1, 2):
        psi = policy_to_strategy(s, d, g, k)
        for rows in psi.parts.values():
            for gamma in rows.values():
                assert set(gamma.table.values()) == {"u1"}


def test_single_agent_round_trip_is_identity():
    text = """
[agents]
count 1
[links]
[spaces]
state a b
action 1 u0 u1
obs 1 a b
wnoise w
vnoise 1 v
[horizon]
T 1
[init]
init a 0.5
init b 0.5
[noise]
w t=* w 1.0
v 1 t=* v 1.0
[transition]
f t=* a u0 w a
f t=* a u1 w b
f t=* b u0 w b
f t=* b u1 w a
[observation]
h 1 t=* a v a
h 1 t=* b v b
[cost]
c t=* a u0 0.0
c t=* a u1 1.0
c t=* b u0 2.0
c t=* b u1 3.0
"""
    topo, s = loads_scenario(text)
    d = min_delay_matrix(topo)
    g = random_total_policy(sub_rng(20, 0), s, d)
    # single agent: conditioning is the whole memory, private part is empty
    psi = policy_to_strategy(s, d, g, 1)
    for (j, t), rows in psi.parts.items():
        for cond, gamma in rows.items():
            assert gamma.domain == InfoSet(())
            assert gamma.table[Realization(())] == g.tables[(j, t)][cond.values]
    assert strategy_to_policy(s, d, psi).tables == g.tables


def test_round_trip_reproduces_random_policies(inst_a):
    _topo, s, d = inst_a
    for rep in range(20):
        g = random_total_policy(sub_rng(21, rep), s, d)
        for k in (1, 2):
            psi = policy_to_strategy(s, d, g, k)
            assert strategy_to_policy(s, d, psi).tables == g.tables


def test_prescribed_actions_replay_the_policy(inst_a):
    _topo, s, d = inst_a
    g = random_total_policy(sub_rng(22, 0), s, d)
    for k in (1, 2):
        g2 = strategy_to_policy(s, d, policy_to_strategy(s, d, g, k))
        for prim in enumerate_primitives(s):
            assert propagate(s, d, prim, g2).actions == \
                propagate(s, d, prim, g).actions


def test_act_requires_the_exact_domain():
    dom = InfoSet.of([obs_label(1, 0)])
    gamma = PrescriptionFunction(
        owner=1, target=1, time=0, domain=dom,
        table={Realization(((obs_label(1, 0), "a"),)): "u0",
               Realization(((obs_label(1, 0), "b"),)): "u1"})
    assert act(gamma, Realization(((obs_label(1, 0), "a"),))) == "u0"
    with pytest.raises(DomainMismatch) as e:
        act(gamma, Realization(()))
    assert obs_label(1, 0) in e.value.missing
    assert "missing=[y1@0]" in str(e.value)
    assert "VarLabel(" not in str(e.value)
    with pytest.raises(DomainMismatch):
        act(gamma, Realization(((obs_label(1, 0), "a"), (obs_label(2, 0), "a"))))


def test_empty_domain_prescription_returns_its_single_action():
    gamma = PrescriptionFunction(owner=1, target=1, time=0,
                                 domain=InfoSet(()),
                                 table={Realization(()): "u1"})
    assert act(gamma, Realization(())) == "u1"


def _action_tables(s, d, g):
    return [propagate(s, d, prim, g).actions
            for prim in enumerate_primitives(s)]


def test_transfer_to_self_is_action_equivalent(inst_a):
    _topo, s, d = inst_a
    psi = random_strategy(sub_rng(23, 0), s, d, 2)
    same = positional_transfer(psi, 2, s, d)
    assert _action_tables(s, d, strategy_to_policy(s, d, psi)) == \
        _action_tables(s, d, strategy_to_policy(s, d, same))


def test_transfer_of_a_constant_strategy_stays_constant(inst_a):
    _topo, s, d = inst_a
    g = _constant_policy(s, d, "u1")
    psi = policy_to_strategy(s, d, g, 1)
    for j in (1, 2):
        moved = positional_transfer(psi, j, s, d)
        for rows in moved.parts.values():
            for gamma in rows.values():
                assert set(gamma.table.values()) == {"u1"}


def test_transfer_composition_matches_direct_transfer(inst_a):
    _topo, s, d = inst_a
    psi = random_strategy(sub_rng(23, 1), s, d, 1)
    via = positional_transfer(positional_transfer(psi, 2, s, d), 1, s, d)
    direct = positional_transfer(psi, 1, s, d)
    assert _action_tables(s, d, strategy_to_policy(s, d, via)) == \
        _action_tables(s, d, strategy_to_policy(s, d, direct))


def test_transferred_strategies_induce_identical_actions(inst_a):
    _topo, s, d = inst_a
    for rep in range(5):
        for owner in (1, 2):
            psi = random_strategy(sub_rng(23, 2, rep, owner), s, d, owner)
            base = _action_tables(s, d, strategy_to_policy(s, d, psi))
            for j in (1, 2):
                moved = positional_transfer(psi, j, s, d)
                assert _action_tables(s, d, strategy_to_policy(s, d, moved)) \
                    == base


def test_generated_domains_match_the_domain_rule(inst_a):
    _topo, s, d = inst_a
    g = random_total_policy(sub_rng(24, 0), s, d)
    for k in (1, 2):
        psi = policy_to_strategy(s, d, g, k)
        for (j, t), rows in psi.parts.items():
            want_dom = prescription_domain(d, k, j, t)
            want_cond = conditioning_labels(d, k, j, t)
            for cond, gamma in rows.items():
                assert gamma.domain == want_dom
                assert cond.domain == want_cond


def test_prescription_functions_are_unhashable(inst_a):
    _topo, s, d = inst_a
    dom = prescription_domain(d, 2, 1, 1)
    gamma = PrescriptionFunction(owner=2, target=1, time=1, domain=dom,
                                 table={}, default="u0")
    with pytest.raises(TypeError):
        hash(gamma)
    with pytest.raises(TypeError):
        hash(CompletePrescription(owner=2, time=1, parts=(gamma,)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)),
                min_size=1, max_size=3))
def test_action_tables_enumerate_per_agent_tables_in_product_order(shape):
    # (actions, cells) per agent; an agent may have no cell or one action
    actions = [tuple(f"u{j}{i}" for i in range(n)) for j, (n, _c) in
               enumerate(shape)]
    counts = [c for _n, c in shape]
    view = ActionTables(actions, counts)
    want = list(itertools.product(*[itertools.product(acts, repeat=c)
                                    for acts, c in zip(actions, counts)]))
    got = [view.split(flat) for flat in view]
    assert got == want
    assert len(view) == view.size == len(want)
    assert [view.split(flat) for flat in view] == want  # iterable again


def _nested_support_prescriptions(s, k, t, doms, reached):
    """The per-agent tables pooled, then their product: the order that
    ``support_prescriptions`` keeps."""
    dreals = [sorted(reals, key=lambda r: r.items) for reals in reached]
    axes = [itertools.product(s.action_space(j, t).values,
                              repeat=len(dreals[j - 1])) for j in s.agents()]
    return [tuple(PrescriptionFunction(
        owner=k, target=j, time=t, domain=doms[j - 1],
        table=dict(zip(dreals[j - 1], combo[j - 1])),
        default=s.action_space(j, t).values[0]) for j in s.agents())
        for combo in itertools.product(*axes)]


def test_support_prescriptions_keep_the_nested_product_on_dp_beliefs(inst_a):
    _topo, s, d = inst_a
    K = s.agent_count
    dp = _BeliefDP(s, d, DEFAULT_POLICY_CAP)
    for _a, _pa, b in conditional_beliefs(s, d, K, ()):
        dp.intern(0, b)
    seen = 0
    for reps in dp.reps:
        for pi in reps:
            doms = [prescription_domain(d, K, j, pi.time) for j in s.agents()]
            info = sufficient_info_labels(d, K, pi.time)
            reached = [{Realization(tuple(zip(info, values))).restrict(dom)
                        for (_x, values), _p in pi.support()} for dom in doms]
            options = support_prescriptions(s, K, pi.time, doms, reached)
            want = _nested_support_prescriptions(s, K, pi.time, doms, reached)
            assert [theta.parts for theta in options] == want
            assert len(options) == len(want)
            seen += 1
    assert seen == sum(map(len, dp.reps)) > 1


def _fixture_cases():
    for name, load in (("instance_a", instance_a), ("instance_b", instance_b)):
        topo, s = load()
        yield name, s, min_delay_matrix(topo)


def _scenario_cases(random_n: int, seed: int):
    for case in build_inputs(None, random_n, seed):
        if case.scenario:
            _idx, name, _topo, d, s = case.scenario
            yield name, s, d


# sha256 of the serialized random_strategy(sub_rng(900, k), ..., k) for each
# owner k, and of random_total_policy(sub_rng(901), ...): verify's instance
# counts depend on these streams, so the builders' draw order is pinned
DRAWS = {
    "instance_a": (
        ["7f578680992c2b0a3d8843c7ce8b95f33439bbf72a627e22d7bcba9e44a37944",
         "8c19de49c1c56f7c07877eda5c9c0a190e0bc5c32060ee5eae70ed9cc275cc0b"],
        "4c627d6adf5f669c1c9b2b9d3f3e7856b559e7e47b86d650d4a0fba7a62ebd03"),
    "instance_b": (
        ["cdab9f3f1b5e36a882280ce261c9b7799734fff61f10a40832cff30958482065",
         "5e2a4237b9becd081bac1eb31b9b21412f6e63aa028cf3e2a878fa7828b6788d",
         "f39aa1ac901b97f6c13aad782b67f4bb3afb618953bba37de06081c39dd8792b"],
        "72fd719f17b73780beb5d26bf9905565b5e6d9bf12f54a1edc9ab81104dddee2"),
    "scn-0": (
        ["f5cddf250302eb32d00d0c2cdd45afd4a5156624b6b7d90a44a0f22aea2c380c",
         "7407e6a09a6389fa17f9e948d17150f88001946e04aff64007484afc0cfde8c2"],
        "bef58d23cab7df2827f4e1895a938dbcecfe0b28cf80bca2bc3f9054341a6c20"),
    "scn-1": (
        ["282a6eae95cd7303ee0ccb3f6e0307e97bd7341a51e2b082d9536aa006f8805a",
         "d2806a3aeac509b1f19ef54e542aa1a278225136a89260343ceca4ff128020c2"],
        "ee4f96b4f0e8d8c8708879cb998545592f7eff2b7a0cb20164504c86219f703c"),
    "scn-single": (
        ["648a465ad2e1fccb3fa638aafb403baa857882120a699be8bc6536f2c5e79424"],
        "f5af5a7de8e7716418f7471668d2bfe2102e5787ccdf32d7bbf4bce2e2242ad5"),
}


def test_random_builders_draw_in_the_pinned_order():
    def sha(doc):
        return hashlib.sha256(dump_json(doc).encode()).hexdigest()
    got = {}
    for name, s, d in [*_fixture_cases(), *_scenario_cases(1, 0)]:
        got[name] = (
            [sha(strategy_json(s, random_strategy(sub_rng(900, k), s, d, k)))
             for k in s.agents()],
            sha(policy_json(d, random_total_policy(sub_rng(901), s, d))))
    assert got == DRAWS


def _assert_total_policy(s, d, g):
    assert list(g.tables) == [(k, t) for k in s.agents() for t in s.times()]
    for (k, t), table in g.tables.items():
        assert list(table) == [
            m.values for m in enumerate_realizations(s, memory_labels(d, k, t))]


def _assert_total_strategy(s, d, psi):
    k = psi.owner
    assert list(psi.parts) == [(j, t) for t in s.times() for j in s.agents()]
    for (j, t), rows in psi.parts.items():
        assert list(rows) == enumerate_realizations(
            s, conditioning_labels(d, k, j, t))
        dom = prescription_domain(d, k, j, t)
        assert all(gamma.domain == dom for gamma in rows.values())


@pytest.mark.parametrize("s, d", [
    pytest.param(s, d, id=name) for name, s, d in _fixture_cases()] + [
    pytest.param(s, d, id=f"seed{seed}-{name}")
    for seed in range(5) for name, s, d in _scenario_cases(40, seed)])
def test_total_tables_are_keyed_by_every_realization_in_canonical_order(s, d):
    g = random_total_policy(sub_rng(902), s, d)
    _assert_total_policy(s, d, g)
    strategies = [common_info_dp(s, d).argmin]
    for k in s.agents():
        strategies += [policy_to_strategy(s, d, g, k),
                       random_strategy(sub_rng(903, k), s, d, k),
                       structural_search(s, d, k).argmin]
    for psi in strategies:
        _assert_total_strategy(s, d, psi)
        _assert_total_policy(s, d, strategy_to_policy(s, d, psi))
