import itertools
import tracemalloc

import pytest

from womctl.belief import (
    belief_from_scratch,
    belief_linf,
    belief_successors,
    belief_update,
    conditional_beliefs,
    expected_cost,
    stage_cost_hat,
    state_step,
    sufficient_info_labels,
    sufficient_state_space,
)
from womctl.errors import (
    WomctlError,
    ZeroProbabilityCondition,
    ZeroProbabilityObservation,
)
from womctl.infostruct import (
    Realization,
    accessible_labels,
    enumerate_realizations,
    new_info_labels,
)
from womctl.prescription import (
    CompletePrescription,
    PrescriptionFunction,
    complete_prescription_at,
    prescription_domain,
)
from womctl.randgen import random_strategy, sub_rng
from womctl.scenario_io import loads_scenario
from womctl.topology import min_delay_matrix

SINGLE_NOISY = """
[agents]
count 1
[links]
[spaces]
state a b
action 1 u0 u1
obs 1 a b
wnoise w
vnoise 1 v0 v1
[horizon]
T 1
[init]
init a 0.6
init b 0.4
[noise]
w t=* w 1.0
v 1 t=* v0 0.8
v 1 t=* v1 0.2
[transition]
f t=* a u0 w a
f t=* a u1 w b
f t=* b u0 w b
f t=* b u1 w a
[observation]
h 1 t=* a v0 a
h 1 t=* a v1 b
h 1 t=* b v0 b
h 1 t=* b v1 a
[cost]
c t=* a u0 0.25
c t=* a u1 1.0
c t=* b u0 2.0
c t=* b u1 0.5
"""


def _single():
    topo, s = loads_scenario(SINGLE_NOISY)
    return topo, s, min_delay_matrix(topo)


def _const_theta(s, d, k, t, action):
    parts = tuple(
        PrescriptionFunction(owner=k, target=j, time=t,
                             domain=prescription_domain(d, k, j, t),
                             table={}, default=action)
        for j in s.agents())
    return CompletePrescription(owner=k, time=t, parts=parts)


def test_single_agent_state_space_is_one_per_plant_state():
    _topo, s, d = _single()
    for t in (0, 1):
        space = sufficient_state_space(s, d, 1, t)
        assert space == [("a", ()), ("b", ())]


def test_state_space_counts_match_generate_and_filter_oracle(inst_a, inst_b):
    for topo, s, d in (inst_a, inst_b):
        K = s.agent_count
        for k in s.agents():
            for t in s.times():
                components = [
                    enumerate_realizations(s, prescription_domain(d, k, j, t))
                    for j in s.agents()
                ]
                merged = set()
                for combo in itertools.product(*components):
                    values = {}
                    ok = True
                    for r in combo:
                        for l, v in r.items:
                            if values.setdefault(l, v) != v:
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        merged.add(tuple(sorted(values.items())))
                space = sufficient_state_space(s, d, k, t)
                assert len(space) == len(s.state_space.values) * len(merged)


def test_instance_a_agent1_space_at_t1_has_eight_states(inst_a):
    _topo, s, d = inst_a
    assert len(sufficient_state_space(s, d, 1, 1)) == 8


def test_single_agent_state_step_applies_the_prescription():
    _topo, s, d = _single()
    st = sufficient_state_space(s, d, 1, 0)[0]
    assert st == ("a", ())
    theta = _const_theta(s, d, 1, 0, "u1")
    st2, z = state_step(s, d, st, "w", ("v0",), theta)
    assert st2 == ("b", ())  # f(a, u1, w) = b
    assert z.domain == new_info_labels(d, 1, 1)
    from womctl.infostruct import act as act_label, obs as obs_label
    assert dict(z.items) == {act_label(1, 0): "u1", obs_label(1, 1): "b"}


def test_state_step_is_deterministic(inst_a):
    _topo, s, d = inst_a
    st = sufficient_state_space(s, d, 2, 1)[3]
    theta = _const_theta(s, d, 2, 1, "u0")
    a = state_step(s, d, st, "w0", ("v0", "v0"), theta)
    b = state_step(s, d, st, "w0", ("v0", "v0"), theta)
    assert a == b


def test_scratch_belief_is_one_step_bayes_at_time_zero():
    _topo, s, d = _single()
    a = Realization.of({next(iter(accessible_labels(d, 1, 0))): "a"})
    pi = belief_from_scratch(s, d, 1, a, ())
    post_a = 0.6 * 0.8 / (0.6 * 0.8 + 0.4 * 0.2)
    by_x = {x: p for (x, _values), p in pi.support()}
    assert abs(by_x["a"] - post_a) < 1e-12
    assert abs(by_x["b"] - (1 - post_a)) < 1e-12


def test_zero_probability_condition_is_an_error():
    text = SINGLE_NOISY.replace("init a 0.6", "init a 1.0") \
                       .replace("init b 0.4", "init b 0.0") \
                       .replace("v 1 t=* v0 0.8", "v 1 t=* v0 1.0") \
                       .replace("v 1 t=* v1 0.2", "v 1 t=* v1 0.0")
    topo, s = loads_scenario(text)
    d = min_delay_matrix(topo)
    a = Realization.of({next(iter(accessible_labels(d, 1, 0))): "b"})
    with pytest.raises(ZeroProbabilityCondition):
        belief_from_scratch(s, d, 1, a, ())


def test_point_mass_belief_with_deterministic_dynamics_stays_point_mass():
    text = SINGLE_NOISY.replace("v 1 t=* v0 0.8", "v 1 t=* v0 1.0") \
                       .replace("v 1 t=* v1 0.2", "v 1 t=* v1 0.0") \
                       .replace("init a 0.6", "init a 1.0") \
                       .replace("init b 0.4", "init b 0.0")
    topo, s = loads_scenario(text)
    d = min_delay_matrix(topo)
    a = Realization.of({next(iter(accessible_labels(d, 1, 0))): "a"})
    pi = belief_from_scratch(s, d, 1, a, ())
    assert [p for _st, p in pi.support()] == [1.0]
    theta = _const_theta(s, d, 1, 0, "u1")
    succ = belief_successors(s, d, pi, theta)
    assert len(succ) == 1
    _z, pz, nxt = succ[0]
    assert abs(pz - 1.0) < 1e-15
    assert [p for _st, p in nxt.support()] == [1.0]
    assert next(iter(nxt.probs))[0] == "b"


def test_zero_probability_observation_is_an_error():
    _topo, s, d = _single()
    a = Realization.of({next(iter(accessible_labels(d, 1, 0))): "a"})
    pi = belief_from_scratch(s, d, 1, a, ())
    theta = _const_theta(s, d, 1, 0, "u0")
    z_labels = sorted(new_info_labels(d, 1, 1))
    bad = Realization.of({z_labels[0]: "u1", z_labels[1]: "a"})
    with pytest.raises(ZeroProbabilityObservation):
        belief_update(s, d, pi, theta, bad)


def test_empty_new_information_is_a_pure_prediction_step(inst_b):
    _topo, s, d = inst_b
    assert len(new_info_labels(d, 3, 1)) == 0
    a0 = Realization(())
    pi0 = belief_from_scratch(s, d, 3, a0, ())
    theta = _const_theta(s, d, 3, 0, "u0")
    succ = belief_successors(s, d, pi0, theta)
    assert len(succ) == 1 and succ[0][0] == Realization(())
    nxt = belief_update(s, d, pi0, theta, Realization(()))
    assert abs(nxt.total() - 1.0) < 1e-12
    # agrees with direct conditioning on the longer history
    scratch = belief_from_scratch(s, d, 3, accessible_realization_b1(), (theta,))
    assert belief_linf(nxt, scratch) <= 1e-9


def accessible_realization_b1():
    return Realization(())


def test_expected_cost_trivial_cases():
    _topo, s, d = _single()
    a = Realization.of({next(iter(accessible_labels(d, 1, 0))): "a"})
    pi = belief_from_scratch(s, d, 1, a, ())
    theta = _const_theta(s, d, 1, 0, "u0")
    want = sum(p * s.c(0, x, ("u0",)) for (x, _values), p in pi.support())
    assert abs(expected_cost(s, pi, theta, d) - want) < 1e-15
    # a point mass reduces to the stage cost at that state
    point = [st for st, _p in pi.support()][0]
    from womctl.belief import BeliefState
    assert expected_cost(s, BeliefState(1, 0, {point: 1.0}), theta, d) == \
        stage_cost_hat(s, point, theta, d)


@pytest.mark.parametrize("owner, time", [(1, 0), (2, 1)])
def test_a_prescription_of_another_owner_or_time_is_rejected(inst_a, owner,
                                                             time):
    _topo, s, d = inst_a
    pi = belief_from_scratch(s, d, 2, Realization(()), ())
    theta = _const_theta(s, d, owner, time, "u0")
    want = (f"prescription of agent {owner} at t={time} applied to a state "
            f"of agent 2 at t=0")
    with pytest.raises(WomctlError, match=want):
        belief_successors(s, d, pi, theta)
    with pytest.raises(WomctlError, match=want):
        expected_cost(s, pi, theta, d)


def test_a_state_of_the_wrong_length_is_rejected(inst_a):
    # agent 2's states at t = 1 hold four private values
    _topo, s, d = inst_a
    st = sufficient_state_space(s, d, 2, 1)[3]
    theta = _const_theta(s, d, 2, 1, "u0")
    for bad in ((st[0], st[1][:-1]), (st[0], st[1] + ("a",))):
        with pytest.raises(WomctlError, match="holds 4 private values"):
            state_step(s, d, bad, "w0", ("v0", "v0"), theta)
        with pytest.raises(WomctlError, match="holds 4 private values"):
            stage_cost_hat(s, bad, theta, d)


def test_state_step_detects_model_perturbation(inst_a):
    """Fault injection: an altered transition row makes the reconstructed
    step disagree with trajectories generated by the original model."""
    import dataclasses
    from womctl.scenario import enumerate_primitives, propagate
    from womctl.prescription import strategy_to_policy
    from womctl.infostruct import history_slots, realization_at

    _topo, s, d = inst_a
    flip = {"a": "b", "b": "a"}
    bad_transition = {
        key: (flip[x2] if key[0] == 0 and key[1] == "a" else x2)
        for key, x2 in s.transition.items()
    }
    s_bad = dataclasses.replace(s, transition=bad_transition)

    psi = random_strategy(sub_rng(31, 0), s, d, 2)
    g = strategy_to_policy(s, d, psi)
    mismatch = False
    for prim in enumerate_primitives(s):
        traj = propagate(s, d, prim, g)
        for t in range(s.horizon):
            st = (traj.states[t], tuple([
                traj.history[i]
                for i in history_slots(sufficient_info_labels(d, 2, t), 2)]))
            a_t = realization_at(accessible_labels(d, 2, t), traj.history, 2)
            theta = complete_prescription_at(s, d, psi, t, a_t)
            vn = tuple(prim.v[j - 1][t + 1] for j in s.agents())
            st2, _z = state_step(s_bad, d, st, prim.w[t], vn, theta)
            if st2[0] != traj.states[t + 1]:
                mismatch = True
    assert mismatch


def _alternating_theta(s, d, k, t):
    """A complete prescription that alternates actions over each domain."""
    parts = []
    for j in s.agents():
        dom = prescription_domain(d, k, j, t)
        actions = s.action_space(j, t).values
        parts.append(PrescriptionFunction(
            owner=k, target=j, time=t, domain=dom,
            table={l: actions[i % len(actions)] for i, l in enumerate(
                enumerate_realizations(s, dom))}))
    return CompletePrescription(owner=k, time=t, parts=tuple(parts))


@pytest.mark.parametrize("k", [1, 2])
def test_conditional_beliefs_split_the_mass_as_the_filter_does(inst_a, k):
    _topo, s, d = inst_a
    roots = conditional_beliefs(s, d, k, ())
    assert abs(sum(pa for _a, pa, _pi in roots) - 1.0) < 1e-12
    theta = _alternating_theta(s, d, k, 0)
    want = {}
    for a0, pa0, pi0 in roots:
        assert belief_from_scratch(s, d, k, a0, ()) == pi0
        for z, pz, b in belief_successors(s, d, pi0, theta):
            want[a0.merge(z)] = (pa0 * pz, b)
    got = conditional_beliefs(s, d, k, (theta,))
    assert [a for a, _pa, _pi in got] == sorted(want, key=lambda r: r.items)
    for a, pa, pi in got:
        assert abs(pa - want[a][0]) < 1e-12
        assert belief_linf(pi, want[a][1]) <= 1e-9
        assert belief_from_scratch(s, d, k, a, (theta,)) == pi


def test_root_conditioning_streams_the_primitive_assignments(inst_b):
    # the roots are the engine's initial particles observed at 0, so none
    # of instance_b's 8,192 assignments is built (as one list they would
    # take 3.2 MB)
    _topo, s, d = inst_b
    conditional_beliefs(s, d, 3, ())  # fills the label caches
    tracemalloc.start()
    try:
        conditional_beliefs(s, d, 3, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6
