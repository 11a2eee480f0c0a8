import gc
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from womctl import belief, solver, verify
from womctl.belief import conditional_beliefs
from womctl.errors import EnumerationCapExceeded
from womctl.fixtures import instance_a, instance_b
from womctl.infostruct import (
    DEFAULT_ENUM_CAP,
    enumerate_realizations,
    history_slots,
    memory_labels,
)
from womctl.prescription import (
    CompletePrescription,
    PrescriptionFunction,
    policy_to_strategy,
    prescription_domain,
)
from womctl.randgen import (
    random_scenario,
    random_topology,
    random_total_policy,
    sub_rng,
)
from womctl.scenario import Policy, joint_distribution
from womctl.scenario_io import loads_scenario
from womctl.serialize import dump_json, strategy_json
from womctl.solver import (
    DEFAULT_POLICY_CAP,
    brute_force_optimal,
    common_info_dp,
    domain_comparison,
    evaluate_policy,
    evaluate_strategy,
    structural_search,
)
from womctl.topology import Topology, min_delay_matrix
from womctl.verify import build_inputs

from oracles import exact_scenario, scan_intern

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
    actions = {m[0]: u for m, u in table.items()}
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
        g.set_action(1, 0, m.values, "u1")
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


@pytest.mark.parametrize("solve, cap", [
    (brute_force_optimal, 262_144),
    (lambda s, d, policy_cap: structural_search(s, d, 1, policy_cap), 212_992),
], ids=["brute", "structural-k1"])
def test_dfs_policy_cap_is_exact(inst_a, solve, cap):
    # the full count fits its cap and raises one below it
    _topo, s, d = inst_a
    assert solve(s, d, policy_cap=cap).candidates == cap
    with pytest.raises(EnumerationCapExceeded, match=f"at least {cap} exceeds"):
        solve(s, d, policy_cap=cap - 1)


def test_common_info_policy_cap_is_exact(inst_b):
    _topo, s, d = inst_b
    assert common_info_dp(s, d, policy_cap=5184).candidates == 5184
    with pytest.raises(EnumerationCapExceeded, match="at least 5184 exceeds"):
        common_info_dp(s, d, policy_cap=5183)


BOUNDED_DFS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from womctl.errors import EnumerationCapExceeded
from womctl.randgen import random_scenario, random_topology, sub_rng
from womctl.solver import brute_force_optimal, structural_search
from womctl.topology import min_delay_matrix
rng = sub_rng(50, 2)
topo = random_topology(rng, max_agents=2, min_agents=2)
s = random_scenario(rng, topo, horizon=2, noisy_obs=True)
d = min_delay_matrix(topo)
for solve in (brute_force_optimal,
              lambda s, d, policy_cap: structural_search(s, d, 1, policy_cap)):
    try:
        solve(s, d, policy_cap=60_000)
    except EnumerationCapExceeded as e:
        print(e)
"""


def test_dfs_raises_its_cap_before_building_the_branches():
    # the first stage over the cap has 2**40 branches, 2**20 tables per
    # agent: pooling those tables ran out of a 1 GiB address space before
    # the cap was checked
    src = Path(__file__).resolve().parent.parent / "src"
    r = subprocess.run([sys.executable, "-c", BOUNDED_DFS], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                       timeout=120)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 2
    assert all("at least" in line and "exceeds cap 60000" in line
               for line in lines)


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
    # the DP keeps each belief's value and its greedy option's index and
    # successors; only the greedy prescriptions are rebuilt, and only their
    # parts reach the strategy
    _topo, s, d = inst_a
    made: list[int] = []  # the ids of the prescriptions built
    live_at_readout: list[int] = []
    real_prescriptions = solver.belief_prescriptions
    real_total = solver._total_strategy

    def tracked(*args):
        # the DP reads the view's size before its loop, so spy on the
        # view's builder and keep the view
        options = real_prescriptions(*args)
        build = options.build

        def spy(tables):
            theta = build(tables)
            made.append(id(theta))
            return theta
        options.build = spy
        return options

    def counted(*args):
        gc.collect()
        # a prescription takes no weak reference, being a tuple: count the
        # built ones that the collector still finds
        ids = set(made)
        live_at_readout.append(sum(
            type(o) is CompletePrescription and id(o) in ids
            for o in gc.get_objects()))
        return real_total(*args)

    monkeypatch.setattr(solver, "belief_prescriptions", tracked)
    monkeypatch.setattr(solver, "_total_strategy", counted)
    assert common_info_dp(s, d).candidates == 176
    assert live_at_readout == [0]
    # the spy saw every option the DP valued, and the read-out's
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


# two-agent horizon-2 cases, so that the DP recurses through levels 1 and 2
# outside the bundled files: (sub_rng key, max_delay, noisy_obs) -> value
# float.hex, candidates, sha256 of the exported strategy. With noisy sensors
# each agent's own three observations alone give brute force 2**14 action
# tables per agent, so the noisy cases are checked on the argmin's exact cost.
HORIZON_2 = {
    ((61, 21), 3, False): (
        "0x1.efbbc182b770ap+0", 184,
        "b34bd6836791083565074a83f4b3dcadb8e3b071fa136e7a79b136f0d1c2dd3b"),
    ((63, 0), 1, False): (
        "0x1.202bb0cf87d9cp+0", 120,
        "5eacfbb868caffc2193a097cc72b177e83cef2afc99e99c065261bd3c966c440"),
    ((50, 0), 1, True): (
        "0x1.09b09fa2f349cp-1", 1488,
        "0473bd9a8aa3ffbc47523363138c585590cb557eff769a6febdf51ed87cac215"),
    ((50, 1), 1, True): (
        "0x1.071c12ab39547p+1", 1392,
        "17f19de173dce55dec8e78a3ec4e6ca435d58a842fb982e04f6261b8bd144918"),
}


def _horizon_2(key, max_delay, noisy):
    rng = sub_rng(*key)
    topo = random_topology(rng, max_agents=2, min_agents=2, max_delay=max_delay)
    s = random_scenario(rng, topo, horizon=2, noisy_obs=noisy)
    return s, min_delay_matrix(topo)


@pytest.mark.parametrize("key, max_delay, noisy", HORIZON_2,
                         ids=lambda v: str(v).replace(" ", ""))
def test_common_info_dp_at_horizon_two_on_seeded_cases(key, max_delay, noisy):
    s, d = _horizon_2(key, max_delay, noisy)
    dp = common_info_dp(s, d)
    digest = hashlib.sha256(
        dump_json(strategy_json(s, dp.argmin)).encode("utf-8")).hexdigest()
    assert (dp.value.hex(), dp.candidates, digest) == \
        HORIZON_2[(key, max_delay, noisy)]
    assert abs(evaluate_strategy(s, d, dp.argmin) - dp.value) <= 1e-9
    if not noisy:
        assert abs(brute_force_optimal(s, d).value - dp.value) <= 1e-9


# instance_b pins the DP only: its filter pass alone would check 19,320
# interns against full scans
_INSTANCE_B_INTERNS = ((8257, 8064), None)


def _dp_cases():
    # (interns, answered by the memo) pinned on the bundled instances, in
    # the DP and in verify's filter pass
    for name, load, counts in (
            ("instance_a", instance_a, ((177, 160), (1418, 1364))),
            ("instance_b", instance_b, _INSTANCE_B_INTERNS)):
        topo, s = load()
        yield pytest.param(s, min_delay_matrix(topo), counts, id=name)
    for seed in range(5):
        for case in build_inputs(None, 40, seed):
            if case.scenario:
                _idx, name, _topo, d, s = case.scenario
                yield pytest.param(s, d, None, id=f"seed{seed}-{name}")


# the DP's cases and the horizon-2 ones: only the noisy sensors of the
# latter let two agents observe different values
RECORD_CASES = [(p.id, *p.values[:2]) for p in _dp_cases()] + [
    ("horizon2-" + str(case).replace(" ", ""), *_horizon_2(*case))
    for case in HORIZON_2]


@pytest.mark.parametrize("n, s, d", [
    pytest.param(n, s, d, id=name)
    for n, (name, s, d) in enumerate(RECORD_CASES)])
def test_particles_run_a_policy_to_its_exact_cost(n, s, d):
    # drive the DFS engine by hand: each agent's memory values are read off
    # a particle's flat history at the slots of its memory labels, and
    # the stage cost is charged before each advance, as the search does
    g = random_total_policy(sub_rng(902, n), s, d)
    eng = solver._Engine(s)
    K = s.agent_count
    parts = eng.initial_particles()
    for t in s.times():
        parts = eng.observe(t, parts)
        assert {len(h) for _p, _x, h, _c in parts} == {2 * K * t + K}
        u_list = [tuple(g.action(k, t, tuple([h[i] for i in history_slots(
                            memory_labels(d, k, t), K)]))
                        for k in s.agents())
                  for _p, _x, h, _c in parts]
        if t < s.horizon:
            parts = eng.advance(t, [(p, x, h, c + s.c(t, x, u)) for (
                p, x, h, c), u in zip(parts, u_list)], u_list)
    value = sum(p * (c + s.c(s.horizon, x, u))
                for (p, x, _h, c), u in zip(parts, u_list))
    assert abs(value - evaluate_policy(s, d, g)) <= 1e-12
    # the particles and the policy's trajectories share one history layout:
    # both give the same law of the last state and the whole history
    engine_law, traj_law = {}, {}
    for (p, x, h, _c), u in zip(parts, u_list):
        key = (x, h + u)
        engine_law[key] = engine_law.get(key, 0.0) + p
    for traj, p in joint_distribution(s, d, g).items():
        key = (traj.states[s.horizon], traj.history)
        traj_law[key] = traj_law.get(key, 0.0) + p
    assert engine_law.keys() == traj_law.keys()
    assert max(abs(engine_law[key] - traj_law[key])
               for key in engine_law) <= 1e-12


def _random_thetas(rng, s, d, k):
    """Agent k's complete prescriptions, one per stage before the horizon,
    with every table entry drawn at random."""
    thetas = []
    for t in range(s.horizon):
        parts = []
        for j in s.agents():
            dom = prescription_domain(d, k, j, t)
            values = s.action_space(j, t).values
            parts.append(PrescriptionFunction(
                owner=k, target=j, time=t, domain=dom,
                table={l: values[rng.integers(0, len(values))]
                       for l in enumerate_realizations(s, dom)}))
        thetas.append(CompletePrescription(owner=k, time=t, parts=tuple(parts)))
    return tuple(thetas)


# the bundled instances and the noisy horizon-2 cases
CLASS_CASES = [case for case in RECORD_CASES
               if case[0].startswith("instance_") or case[0].endswith("True)")]


@pytest.mark.parametrize("n, s, d", [
    pytest.param(n, s, d, id=name)
    for n, (name, s, d) in enumerate(CLASS_CASES)])
def test_conditioning_classes_are_never_charged(n, s, d, monkeypatch):
    # the engine's advance leaves a record's cost alone, so the classes that
    # conditional_beliefs pushes through the engine keep cost 0, and each
    # group's records carry its probability
    real = belief._conditionals
    seen = []

    def grouped(d, k, t, records, table):
        out = real(d, k, t, records, table)
        seen.extend((t, pa, group) for _a, pa, _pi, group in out)
        return out
    monkeypatch.setattr(belief, "_conditionals", grouped)
    for k in s.agents():
        conditional_beliefs(s, d, k, _random_thetas(sub_rng(903, n, k), s, d, k))
    assert {t for t, _pa, _group in seen} == set(s.times())
    for _t, pa, group in seen:
        assert all(c == 0.0 for _p, _x, _h, c in group)
        assert abs(sum(p for p, _x, _h, _c in group) - pa) <= 1e-12


@pytest.mark.parametrize("s, d, counts", _dp_cases())
def test_intern_memo_returns_what_the_scan_returns(s, d, counts, monkeypatch):
    # the DP, the filter pass and structural_search share one interning
    # routine: each answer, and the list it leaves, must be what a plain
    # scan over a copy of the list gives
    real = solver._belief_reps_intern
    memo_hits = []

    def checked(reps, b):
        before, copy = len(reps.memo), list(reps)
        want = scan_intern(copy, b, solver.BELIEF_TOL)
        got = real(reps, b)
        assert (got, list(reps)) == (want, copy)
        memo_hits.append(len(reps.memo) == before)
        return got

    def solved():
        dp = common_info_dp(s, d)
        return dp.value.hex(), dump_json(strategy_json(s, dp.argmin))

    for module in (solver, verify):
        monkeypatch.setattr(module, "_belief_reps_intern", checked)
    with_memo = solved()
    assert memo_hits
    if counts:
        assert (len(memo_hits), sum(memo_hits)) == counts[0]
    if counts != _INSTANCE_B_INTERNS:
        memo_hits.clear()
        verify._filter_pass(
            verify.Case(0, DEFAULT_POLICY_CAP, DEFAULT_ENUM_CAP,
                        scenario=(0, "case", None, d, s)),
            *(verify.CheckResult(n, "") for n in "abcd"))
        assert memo_hits
        if counts:
            assert (len(memo_hits), sum(memo_hits)) == counts[1]
        memo_hits.clear()
        for k in s.agents():
            structural_search(s, d, k)
        assert memo_hits
    monkeypatch.setattr(solver, "_belief_reps_intern", lambda reps, b:
                        scan_intern(reps, b, solver.BELIEF_TOL))
    assert solved() == with_memo


def _kept_dps(monkeypatch) -> list:
    """Every ``_BeliefDP`` that ``common_info_dp`` makes from here on."""
    made = []
    real = solver._BeliefDP

    def keep(*args):
        made.append(real(*args))
        return made[-1]
    monkeypatch.setattr(solver, "_BeliefDP", keep)
    return made


@pytest.mark.parametrize("s, d, counts", _dp_cases())
def test_belief_representatives_never_outnumber_candidates(s, d, counts,
                                                           monkeypatch):
    # a new representative adds its prescriptions, at least one, to
    # candidates before it is valued
    dps = _kept_dps(monkeypatch)
    candidates = common_info_dp(s, d).candidates
    assert sum(map(len, dps[0].reps)) <= candidates == dps[0].candidates


@pytest.mark.parametrize("cap", [100, 1000, 5183])
def test_a_capped_dp_holds_at_most_cap_plus_one_representatives(inst_b, cap,
                                                                monkeypatch):
    # the cap is checked right after a new representative is counted, so
    # the one that crosses it is the only one beyond the cap
    _topo, s, d = inst_b
    dps = _kept_dps(monkeypatch)
    with pytest.raises(EnumerationCapExceeded):
        common_info_dp(s, d, policy_cap=cap)
    assert sum(map(len, dps[0].reps)) <= cap + 1


# -- the exact-arithmetic oracle ------------------------------------------------

# the optimum of each bundled instance, its decimals read exactly
EXACT_OPTIMA = {"instance_a": Fraction(3657, 5000),
                "instance_b": Fraction(231, 400)}

# the bundled instances and the scenario cases of build_inputs(None, 40, s)
EXACT_CASES = [case for case in RECORD_CASES
               if not case[0].startswith("horizon2-")]


def _exact_optimum(name, s, d, solved, monkeypatch):
    """The exact DP's value on ``exact_scenario(s)``, interning beliefs at
    tolerance 0 so that only equal beliefs share a representative."""
    monkeypatch.setattr(solver, "BELIEF_TOL", 0)
    return solved(f"exact-dp-{name}",
                  lambda: common_info_dp(exact_scenario(s), d).value)


@pytest.mark.parametrize("name, s, d", [
    pytest.param(*case, id=case[0]) for case in EXACT_CASES])
def test_exact_solvers_agree_on_the_optimum(name, s, d, solved, monkeypatch):
    optimum = _exact_optimum(name, s, d, solved, monkeypatch)
    e = exact_scenario(s)
    values = [brute_force_optimal(e, d).value,
              *(structural_search(e, d, k).value for k in s.agents())]
    assert type(optimum) is Fraction
    assert values == [optimum] * len(values)
    if name in EXACT_OPTIMA:
        assert optimum == EXACT_OPTIMA[name]


def _float_routes(tag, s, d, solved, dp_only):
    """Route -> the float solver's result. The bundled instances are tagged
    A and B, so their results are keyed as the acceptance criteria key
    them, and each is solved once."""
    routes = {f"dp-{tag}": lambda: common_info_dp(s, d)}
    if not dp_only:
        routes[f"brute-{tag}"] = lambda: brute_force_optimal(s, d)
        for k in s.agents():
            routes[f"struct-{tag}-{k}"] = (
                lambda k=k: structural_search(s, d, k))
    return {route: solved(route, solve) for route, solve in routes.items()}


@pytest.mark.parametrize("name, s, d", [
    pytest.param(*case, id=case[0]) for case in RECORD_CASES])
def test_float_argmins_cost_exactly_the_optimum(name, s, d, solved,
                                                monkeypatch):
    # every argmin of the float solvers is exactly optimal; the noisy
    # horizon-2 cases are too big for the DFS solvers, so there only the
    # DP runs. The float DP's value is under 2 ulps off the optimum (1.05 at
    # most on these cases), and on the bundled instances it is the optimum
    # correctly rounded
    tag = {"instance_a": "A", "instance_b": "B"}.get(name, name)
    results = _float_routes(tag, s, d, solved,
                            dp_only=name.startswith("horizon2-"))
    optimum = _exact_optimum(name, s, d, solved, monkeypatch)
    e = exact_scenario(s)
    for route, r in results.items():
        cost = (evaluate_policy(e, d, r.argmin) if route.startswith("brute")
                else evaluate_strategy(e, d, r.argmin))
        assert (route, cost) == (route, optimum)
    value = results[f"dp-{tag}"].value
    assert abs(Fraction(value) - optimum) < 2 * Fraction(math.ulp(value))
    if name in EXACT_OPTIMA:
        assert value == float(optimum)
