import gc
import weakref

import pytest

from womctl import solver
from womctl.errors import EnumerationCapExceeded
from womctl.fixtures import instance_a, instance_b
from womctl.infostruct import enumerate_realizations, memory_labels
from womctl.prescription import policy_to_strategy
from womctl.randgen import random_scenario, random_total_policy, sub_rng
from womctl.scenario import Policy
from womctl.scenario_io import loads_scenario
from womctl.serialize import dump_json, strategy_json
from womctl.solver import (
    brute_force_optimal,
    common_info_dp,
    domain_comparison,
    evaluate_policy,
    evaluate_strategy,
    structural_search,
)
from womctl.topology import Topology, min_delay_matrix
from womctl.verify import build_inputs

ONE_SHOT = """
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
T 0
[init]
init a 0.3
init b 0.7
[noise]
w t=* w 1.0
v 1 t=* v 1.0
[transition]
f t=* a u0 w a
f t=* a u1 w a
f t=* b u0 w b
f t=* b u1 w b
[observation]
h 1 t=* a v a
h 1 t=* b v b
[cost]
c t=* a u0 0.4
c t=* a u1 0.9
c t=* b u0 1.5
c t=* b u1 0.2
"""


def test_one_shot_perfect_observation_picks_per_state_minimum():
    topo, s = loads_scenario(ONE_SHOT)
    d = min_delay_matrix(topo)
    res = brute_force_optimal(s, d)
    assert abs(res.value - (0.3 * 0.4 + 0.7 * 0.2)) < 1e-12
    table = res.argmin.tables[(1, 0)]
    actions = {next(v for _l, v in m.items): u for m, u in table.items()}
    assert actions == {"a": "u0", "b": "u1"}


def test_zero_cost_problem_solves_to_zero():
    text = ONE_SHOT
    for row, val in (("a u0", "0.4"), ("a u1", "0.9"),
                     ("b u0", "1.5"), ("b u1", "0.2")):
        text = text.replace(f"c t=* {row} {val}", f"c t=* {row} 0.0")
    topo, s = loads_scenario(text)
    d = min_delay_matrix(topo)
    br = brute_force_optimal(s, d)
    assert br.value == 0.0
    # ties keep the first candidate in canonical order: all-first-action
    assert set(br.argmin.tables[(1, 0)].values()) == {"u0"}
    assert common_info_dp(s, d).value == 0.0
    assert structural_search(s, d, 1).value == 0.0


def test_single_agent_dp_equals_brute_force_with_noisy_sensor():
    topo = Topology.of(1, [])
    s = random_scenario(sub_rng(40, 0), topo, horizon=1, noisy_obs=True)
    d = min_delay_matrix(topo)
    br = brute_force_optimal(s, d)
    dp = common_info_dp(s, d)
    assert abs(br.value - dp.value) <= 1e-9


NOISY_ISOLATED = """
# two agents whose broadcasts take longer than the horizon: nothing is ever
# shared, agent 2's sensor is noisy, so beliefs stay strict mixtures
[agents]
count 2
[links]
link 1 2 2
link 2 1 2
[spaces]
state a b
action 1 u0 u1
action 2 u0 u1
obs 1 a b
obs 2 a b
wnoise w0 w1
vnoise 1 v
vnoise 2 v0 v1
[horizon]
T 1
[init]
init a 0.45
init b 0.55
[noise]
w t=* w0 0.8
w t=* w1 0.2
v 1 t=* v 1.0
v 2 t=* v0 0.75
v 2 t=* v1 0.25
[transition]
f t=* a u0 u0 w0 a
f t=* a u0 u0 w1 b
f t=* a u0 u1 w0 b
f t=* a u0 u1 w1 a
f t=* a u1 u0 w0 b
f t=* a u1 u0 w1 a
f t=* a u1 u1 w0 a
f t=* a u1 u1 w1 b
f t=* b u0 u0 w0 b
f t=* b u0 u0 w1 a
f t=* b u0 u1 w0 a
f t=* b u0 u1 w1 b
f t=* b u1 u0 w0 b
f t=* b u1 u0 w1 a
f t=* b u1 u1 w0 a
f t=* b u1 u1 w1 b
[observation]
h 1 t=* a v a
h 1 t=* b v b
h 2 t=* a v0 a
h 2 t=* a v1 b
h 2 t=* b v0 b
h 2 t=* b v1 a
[cost]
c t=* a u0 u0 0.15
c t=* a u0 u1 1.2
c t=* a u1 u0 0.7
c t=* a u1 u1 0.4
c t=* b u0 u0 1.05
c t=* b u0 u1 0.25
c t=* b u1 u0 0.95
c t=* b u1 u1 0.6
"""


def test_all_methods_agree_under_noisy_partial_information():
    topo, s = loads_scenario(NOISY_ISOLATED)
    d = min_delay_matrix(topo)
    br = brute_force_optimal(s, d)
    assert br.candidates == 4096  # 2^(2+4) action tables per agent
    dp = common_info_dp(s, d)
    assert abs(dp.value - br.value) <= 1e-9
    for k in (1, 2):
        st = structural_search(s, d, k)
        assert abs(st.value - br.value) <= 1e-9


def test_structural_search_of_last_agent_matches_dp(inst_a):
    _topo, s, d = inst_a
    dp = common_info_dp(s, d)
    st = structural_search(s, d, s.agent_count)
    assert abs(st.value - dp.value) <= 1e-9


def test_deterministic_scenario_evaluates_to_its_single_run():
    text = ONE_SHOT.replace("init a 0.3", "init a 1.0") \
                   .replace("init b 0.7", "init b 0.0")
    topo, s = loads_scenario(text)
    d = min_delay_matrix(topo)
    g = Policy(agent_count=1, horizon=0)
    for m in enumerate_realizations(s, memory_labels(d, 1, 0)):
        g.set_action(1, 0, m, "u1")
    assert evaluate_policy(s, d, g) == 0.9


def test_equivalence_between_policy_and_strategy_routes(inst_a):
    _topo, s, d = inst_a
    for rep in range(5):
        g = random_total_policy(sub_rng(41, rep), s, d)
        base = evaluate_policy(s, d, g)
        for k in (1, 2):
            psi = policy_to_strategy(s, d, g, k)
            assert abs(evaluate_strategy(s, d, psi) - base) <= 1e-12


def test_solver_results_evaluate_to_their_reported_value(inst_a):
    _topo, s, d = inst_a
    br = brute_force_optimal(s, d)
    assert abs(evaluate_policy(s, d, br.argmin) - br.value) <= 1e-12
    dp = common_info_dp(s, d)
    assert abs(evaluate_strategy(s, d, dp.argmin) - dp.value) <= 1e-9


def test_domain_comparison_on_the_symmetric_pair(inst_a):
    _topo, s, d = inst_a
    report = domain_comparison(s, d)
    assert report.all_subset
    rows = {(r.agent, r.time): r for r in report.rows}
    # the first agent's own private domain is empty; the last agent's view
    # of it at t=2 holds the fresh observation and action
    r = rows[(1, 2)]
    assert (r.own_labels, r.common_labels) == (0, 2)
    assert (r.own_realizations, r.common_realizations) == (1, 4)
    # for the last agent both columns coincide
    r = rows[(2, 2)]
    assert r.own_labels == r.common_labels == 2
    assert r.own_realizations == r.common_realizations == 4


def test_domain_comparison_subset_on_random_topologies():
    for i in range(20):
        rng = sub_rng(42, i)
        from womctl.randgen import random_topology
        topo = random_topology(rng, max_agents=4)
        s = random_scenario(rng, topo, horizon=2)
        assert domain_comparison(s, min_delay_matrix(topo)).all_subset


def test_shorter_delays_never_hurt():
    for i in range(3):
        rng = sub_rng(43, i)
        slow = Topology.of(2, [(1, 2, 2), (2, 1, 2)])
        fast = Topology.of(2, [(1, 2, 1), (2, 1, 1)])
        s = random_scenario(rng, slow, horizon=1)
        j_slow = brute_force_optimal(s, min_delay_matrix(slow)).value
        j_fast = brute_force_optimal(s, min_delay_matrix(fast)).value
        assert j_fast <= j_slow + 1e-12


TIMED_ACTIONS = """
# the first step offers an extra cheap action that later steps lack
[agents]
count 1
[links]
[spaces]
state a
action 1 u0 u1
action 1 t=0 u0 u1 u2
obs 1 o
wnoise w
vnoise 1 v
[horizon]
T 1
[init]
init a 1.0
[noise]
w t=* w 1.0
v 1 t=* v 1.0
[transition]
f t=* a u0 w a
f t=* a u1 w a
f t=0 a u2 w a
[observation]
h 1 t=* a v o
[cost]
c t=* a u0 0.5
c t=* a u1 0.3
c t=0 a u2 0.1
"""


def test_per_step_action_override_is_honored_end_to_end():
    topo, s = loads_scenario(TIMED_ACTIONS)
    d = min_delay_matrix(topo)
    assert s.action_space(1, 0).values == ("u0", "u1", "u2")
    assert s.action_space(1, 1).values == ("u0", "u1")
    res = brute_force_optimal(s, d)
    # u2 (0.1) is available only at the first step; afterwards u1 (0.3) wins
    assert abs(res.value - 0.4) < 1e-12
    assert res.candidates == 3 * 2
    dp = common_info_dp(s, d)
    assert abs(dp.value - res.value) <= 1e-9
    st = structural_search(s, d, 1)
    assert abs(st.value - res.value) <= 1e-9


def test_rows_outside_the_declared_domain_are_rejected():
    bad = TIMED_ACTIONS.replace("f t=0 a u2 w a", "f t=* a u2 w a")
    with pytest.raises(Exception) as e:
        loads_scenario(bad)
    assert "outside the declared domain" in str(e.value)


def test_policy_cap_aborts_brute_force(inst_a):
    _topo, s, d = inst_a
    with pytest.raises(EnumerationCapExceeded) as e:
        brute_force_optimal(s, d, policy_cap=1000)
    assert e.value.cap == 1000


def test_last_stage_is_evaluated_without_advance(monkeypatch):
    # the DFS observes at the horizon, but its leaves add the last stage cost
    # themselves: no particle is advanced past T
    topo, s = loads_scenario(ONE_SHOT.replace("T 0", "T 1"))
    d = min_delay_matrix(topo)
    calls = []
    for name in ("observe", "advance"):
        real = getattr(solver._Engine, name)

        def spy(eng, t, *args, name=name, real=real):
            calls.append((name, t))
            return real(eng, t, *args)
        monkeypatch.setattr(solver._Engine, name, spy)
    for run in (brute_force_optimal, lambda s, d: structural_search(s, d, 1)):
        calls.clear()
        run(s, d)
        assert ("observe", 1) in calls and ("advance", 0) in calls
        assert ("advance", 1) not in calls


def test_candidate_count_is_exact_on_instance_a(inst_a):
    _topo, s, d = inst_a
    res = brute_force_optimal(s, d)
    # stage table sizes: 2 then 3 then 4 reachable memories per agent
    assert res.candidates == (2 ** (2 + 3 + 4)) ** 2


def test_solvers_leave_no_cyclic_garbage(inst_a):
    # a solve must free its option graph or search stack at return, not at
    # the next collection; a warm-up solve absorbs one-off lazy set-up
    _topo, s, d = inst_a
    tiny_topo, tiny = loads_scenario(ONE_SHOT)
    tiny_d = min_delay_matrix(tiny_topo)
    runs = {"common-info": common_info_dp,
            "brute": brute_force_optimal,
            "structural-k1": lambda s, d: structural_search(s, d, 1)}
    gc.disable()
    try:
        for run in runs.values():
            run(tiny, tiny_d)
        garbage = {}
        for name, run in runs.items():
            gc.collect()
            run(s, d)
            garbage[name] = gc.collect()
    finally:
        gc.enable()
    assert garbage == {name: 0 for name in runs}


def test_no_prescription_outlives_the_forward_pass(inst_a, monkeypatch):
    # the DP keeps costs and successor indices per option; only the greedy
    # prescriptions are rebuilt, and only their parts reach the strategy
    _topo, s, d = inst_a
    made: list[weakref.ref] = []
    live_at_readout: list[int] = []
    real_prescriptions = solver.belief_prescriptions
    real_total = solver._total_strategy

    def tracked(*args):
        for theta in real_prescriptions(*args):
            made.append(weakref.ref(theta))
            yield theta

    def counted(*args):
        gc.collect()
        live_at_readout.append(sum(ref() is not None for ref in made))
        return real_total(*args)

    monkeypatch.setattr(solver, "belief_prescriptions", tracked)
    monkeypatch.setattr(solver, "_total_strategy", counted)
    assert common_info_dp(s, d).candidates == 176
    assert live_at_readout == [0]
    # the spy saw every option of the forward pass, and the read-out's
    # rebuilds up to each greedy one
    assert len(made) == 186


def test_common_info_argmin_attains_its_value_on_random_cases():
    solved = 0
    for seed in range(5):
        for case in build_inputs(None, 40, seed):
            if not case.scenario:
                continue
            _idx, _name, _topo, d, s = case.scenario
            dp = common_info_dp(s, d)
            assert abs(evaluate_strategy(s, d, dp.argmin) - dp.value) <= 1e-9
            solved += 1
    assert solved == 15


def _dp_cases():
    # (interns, answered by the memo) pinned on the bundled instances
    for name, load, counts in (("instance_a", instance_a, (177, 160)),
                               ("instance_b", instance_b, (8257, 8064))):
        topo, s = load()
        yield pytest.param(s, min_delay_matrix(topo), counts, id=name)
    for seed in range(5):
        for case in build_inputs(None, 40, seed):
            if case.scenario:
                _idx, name, _topo, d, s = case.scenario
                yield pytest.param(s, d, None, id=f"seed{seed}-{name}")


@pytest.mark.parametrize("s, d, counts", _dp_cases())
def test_intern_memo_returns_what_the_scan_returns(s, d, counts, monkeypatch):
    real = solver._intern
    memo_hits = []

    def checked(memo, reps, b):
        want = solver._belief_reps_intern(list(reps), b)
        before = len(memo)
        got = real(memo, reps, b)
        assert got == want
        memo_hits.append(len(memo) == before)
        return got

    def scan_only(memo, reps, b):
        return solver._belief_reps_intern(reps, b)

    def solved():
        dp = common_info_dp(s, d)
        return dp.value.hex(), dump_json(strategy_json(s, dp.argmin))

    monkeypatch.setattr(solver, "_intern", checked)
    with_memo = solved()
    monkeypatch.setattr(solver, "_intern", scan_only)
    assert with_memo == solved()
    assert memo_hits
    if counts:
        assert (len(memo_hits), sum(memo_hits)) == counts
