import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from womctl.errors import (
    BadDistribution,
    EnumerationCapExceeded,
    MissingTableEntry,
    ParseError,
    UndefinedPolicyEntry,
    WomctlError,
)
from womctl.fixtures import fixture_path
from womctl.infostruct import memory_labels
from womctl.randgen import random_total_policy, sub_rng
from womctl.scenario import (
    Distribution,
    FiniteSpace,
    Policy,
    enumerate_primitives,
    joint_distribution,
    simulate,
)
from womctl.scenario_io import loads_scenario
from womctl.solver import evaluate_policy
from womctl.topology import min_delay_matrix

MINIMAL = """
[agents]
count 1
[links]
[spaces]
state s
action 1 go
obs 1 o
wnoise w
vnoise 1 v
[horizon]
T 0
[init]
init s 1.0
[noise]
w t=* w 1.0
v 1 t=* v 1.0
[transition]
f t=* s go w s
[observation]
h 1 t=* s v o
[cost]
c t=* s go 2.5
"""


def test_minimal_single_agent_document_loads():
    topo, s = loads_scenario(MINIMAL)
    assert s.agent_count == 1 and s.horizon == 0
    assert topo.links == ()


def test_instance_a_round_trip(inst_a):
    topo, s, _d = inst_a
    assert s.agent_count == 2 and s.horizon == 2
    assert s.state_space.values == ("a", "b")
    assert len(s.transition) == 3 * 16  # time-invariant rows expanded per t
    assert {l.delay for l in topo.links} == {1}


def test_instance_b_round_trip(inst_b):
    topo, s, _d = inst_b
    assert s.agent_count == 3 and s.horizon == 2
    delays = {(l.src, l.dst): l.delay for l in topo.links}
    assert delays == {(1, 2): 1, (2, 3): 1, (3, 1): 2}


def test_missing_transition_row_is_reported():
    text = MINIMAL.replace("f t=* s go w s\n", "")
    with pytest.raises(MissingTableEntry) as e:
        loads_scenario(text)
    assert e.value.table == "transition"
    assert e.value.key == (0, "s", ("go",), "w")


def test_bad_distribution_sum_is_reported():
    text = MINIMAL.replace("init s 1.0", "init s 0.9")
    with pytest.raises(BadDistribution):
        loads_scenario(text)
    for p in (math.nan, math.inf):
        with pytest.raises(BadDistribution):
            Distribution(FiniteSpace("x", ("s",)), {"s": p}).validate("init")


def test_unknown_keys_are_rejected():
    with pytest.raises(ParseError):
        loads_scenario(MINIMAL + "\n[cost]\nbogus 1 2 3\n")
    with pytest.raises(ParseError):
        loads_scenario("[nonsense]\n" + MINIMAL)


def test_duplicate_rows_are_rejected():
    with pytest.raises(ParseError):
        loads_scenario(MINIMAL + "\n[cost]\nc t=* s go 1.0\n")


@pytest.mark.parametrize("row, bad", [
    ("count 1", "count"), ("T 0", "T"), ("action 1 go", "action"),
    ("obs 1 o", "obs"), ("vnoise 1 v", "vnoise"),
    ("h 1 t=* s v o", "h 2 t=* s v o")])
def test_short_rows_and_unknown_agents_are_parse_errors_at_their_line(row, bad):
    text = MINIMAL.replace(row + "\n", bad + "\n")
    with pytest.raises(ParseError) as e:
        loads_scenario(text)
    assert e.value.line == text.splitlines().index(bad) + 1


INSTANCE_A_ROWS = [line.split() for line in Path(
    fixture_path("instance_a.wom")).read_text(encoding="utf-8").splitlines()]

# (operation, row, token, length): each edit deletes, duplicates or truncates
# one row or one token of instance_a, so numbers stay as small as the file's
EDITS = st.lists(st.tuples(
    st.sampled_from(("drop-row", "dup-row", "cut-row",
                     "drop-token", "dup-token", "cut-token")),
    st.integers(0, 100), st.integers(0, 10), st.integers(0, 6)), max_size=6)


def _edited_instance_a(edits) -> str:
    rows = [list(row) for row in INSTANCE_A_ROWS]
    for op, i, j, n in edits:
        if not rows:
            break
        i %= len(rows)
        row = rows[i]
        if op == "drop-row":
            del rows[i]
        elif op == "dup-row":
            rows.insert(i, list(row))
        elif op == "cut-row":
            del row[n:]
        elif row:
            j %= len(row)
            if op == "drop-token":
                del row[j]
            elif op == "dup-token":
                row.insert(j, row[j])
            else:
                row[j] = row[j][:n]
    return "\n".join(" ".join(row) for row in rows)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(EDITS)
def test_edited_instance_a_loads_or_raises_a_package_error(edits):
    try:
        loads_scenario(_edited_instance_a(edits))
    except WomctlError:
        pass


def _constant_policy(s, d, action_of):
    g = Policy(agent_count=s.agent_count, horizon=s.horizon)
    for k in s.agents():
        for t in s.times():
            from womctl.infostruct import enumerate_realizations
            for m in enumerate_realizations(s, memory_labels(d, k, t)):
                g.set_action(k, t, m, action_of(k))
    return g


def test_singleton_primitives_give_one_trajectory():
    topo, s = loads_scenario(MINIMAL)
    d = min_delay_matrix(topo)
    g = _constant_policy(s, d, lambda k: "go")
    dist = joint_distribution(s, d, g)
    assert len(dist) == 1
    ((traj, p),) = dist.items()
    assert p == 1.0
    assert traj.total_cost == 2.5


def test_uniform_initial_state_splits_the_measure():
    text = MINIMAL.replace("state s", "state s1 s2") \
                  .replace("init s 1.0", "init s1 0.5\ninit s2 0.5") \
                  .replace("f t=* s go w s", "f t=* s1 go w s1\nf t=* s2 go w s2") \
                  .replace("h 1 t=* s v o", "h 1 t=* s1 v o\nh 1 t=* s2 v o") \
                  .replace("c t=* s go 2.5", "c t=* s1 go 2.5\nc t=* s2 go 2.5")
    topo, s = loads_scenario(text)
    d = min_delay_matrix(topo)
    g = _constant_policy(s, d, lambda k: "go")
    dist = joint_distribution(s, d, g)
    assert len(dist) == 2
    assert all(abs(p - 0.5) < 1e-15 for p in dist.values())
    assert abs(sum(dist.values()) - 1.0) < 1e-9


def test_instance_a_support_size_matches_primitive_product(inst_a):
    _topo, s, d = inst_a
    g = random_total_policy(sub_rng(7, 0), s, d)
    dist = joint_distribution(s, d, g)
    assert len(dist) == 2 * 2 ** 3  # |X0| * |W|^(T+1), sensor noise singleton
    assert abs(sum(dist.values()) - 1.0) < 1e-9


def test_probabilities_are_products_of_primitives(inst_a):
    _topo, s, d = inst_a
    g = random_total_policy(sub_rng(7, 1), s, d)
    for traj, p in joint_distribution(s, d, g).items():
        q = s.init_dist.prob(traj.states[0])
        for t in s.times():
            q *= s.w_dists[t].prob(traj.w[t])
            for k in s.agents():
                q *= s.v_dists[(k, t)].prob(traj.v[k - 1][t])
        assert abs(p - q) < 1e-15


def test_stage_costs_match_cost_table(inst_a):
    _topo, s, d = inst_a
    g = random_total_policy(sub_rng(7, 2), s, d)
    for traj in joint_distribution(s, d, g):
        for t in s.times():
            u = tuple(traj.actions[k - 1][t] for k in s.agents())
            assert traj.stage_costs[t] == s.c(t, traj.states[t], u)


def test_observations_follow_the_observation_table(inst_a):
    _topo, s, d = inst_a
    g = random_total_policy(sub_rng(7, 3), s, d)
    for traj in joint_distribution(s, d, g):
        for k in s.agents():
            for t in s.times():
                assert traj.observations[k - 1][t] == s.h(
                    k, t, traj.states[t], traj.v[k - 1][t])


def test_deterministic_scenario_simulates_identically_for_any_seed():
    topo, s = loads_scenario(MINIMAL)
    d = min_delay_matrix(topo)
    g = _constant_policy(s, d, lambda k: "go")
    runs = {simulate(s, topo, g, seed) for seed in range(5)}
    assert len(runs) == 1


def test_same_seed_same_trajectory(inst_a):
    topo, s, d = inst_a
    g = random_total_policy(sub_rng(7, 4), s, d)
    assert simulate(s, topo, g, 123) == simulate(s, topo, g, 123)


def test_sampled_trajectories_lie_in_the_exact_support(inst_a):
    topo, s, d = inst_a
    g = random_total_policy(sub_rng(7, 5), s, d)
    dist = joint_distribution(s, d, g)
    for seed in range(10):
        assert simulate(s, topo, g, seed) in dist


def test_monte_carlo_mean_within_three_standard_errors(inst_a):
    topo, s, d = inst_a
    g = random_total_policy(sub_rng(7, 6), s, d)
    exact = evaluate_policy(s, d, g)
    n = 10_000
    costs = [simulate(s, topo, g, seed).total_cost for seed in range(n)]
    mean = sum(costs) / n
    var = sum((c - mean) ** 2 for c in costs) / (n - 1)
    se = math.sqrt(var / n)
    assert abs(mean - exact) <= 3 * se


def test_partial_policy_raises_on_reachable_memory(inst_a):
    _topo, s, d = inst_a
    g = Policy(agent_count=s.agent_count, horizon=s.horizon)
    g.tables[(1, 0)] = {}  # defined but empty
    with pytest.raises(UndefinedPolicyEntry):
        joint_distribution(s, d, g)


def test_enumeration_cap_guards_joint_distribution(inst_a):
    _topo, s, d = inst_a
    g = random_total_policy(sub_rng(7, 7), s, d)
    with pytest.raises(EnumerationCapExceeded):
        joint_distribution(s, d, g, cap=15)


@pytest.mark.parametrize("instance", ["inst_a", "inst_b"])
def test_primitive_view_is_sized_capped_at_the_call_and_re_iterable(
        instance, request):
    _topo, s, _d = request.getfixturevalue(instance)
    prims = enumerate_primitives(s)
    first = list(prims)
    assert len(prims) == len(first) == {"inst_a": 16, "inst_b": 8192}[instance]
    assert list(prims) == first
    with pytest.raises(EnumerationCapExceeded):
        enumerate_primitives(s, cap=len(first) - 1)
