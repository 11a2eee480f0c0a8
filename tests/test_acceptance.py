"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Golden optimal values were frozen from the first verified run in which the
exhaustive search, the belief-space induction, and the structural search all
agreed to machine precision (run with `pytest -s` to see the lines).
"""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from womctl.belief import (
    belief_from_scratch,
    belief_linf,
    belief_prescriptions,
    belief_update,
    expected_cost,
    stage_cost_hat,
    state_step,
    sufficient_info_labels,
)
from womctl.infostruct import (
    Realization,
    accessible_labels,
    history_slots,
    inaccessible_labels,
    memory_labels,
    new_info_labels,
    realization_at,
)
from womctl.fixtures import fixture_path
from womctl.prescription import (
    act,
    complete_prescription_at,
    policy_to_strategy,
    positional_transfer,
    strategy_to_policy,
)
from womctl.randgen import (
    random_strategy,
    random_topology,
    random_total_policy,
    sub_rng,
)
from womctl.scenario import enumerate_primitives, propagate
from womctl.serialize import dump_json, policy_json, strategy_json
from womctl.solver import (
    brute_force_optimal,
    common_info_dp,
    evaluate_policy,
    evaluate_strategy,
    structural_search,
)
from womctl.topology import min_delay_matrix
from womctl.verify import history_tree, theta_fingerprint

from oracles import node_members, simple_path_min_delays

EQ_TOL = 1e-12
TOL = 1e-9
GOLDEN_VALUE_A = 0.7314
GOLDEN_VALUE_B = 0.5775


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_policy_strategy_equivalence(inst_a):
    _topo, s, d = inst_a
    started = time.perf_counter()
    worst = 0.0
    for rep in range(100):
        g = random_total_policy(sub_rng(1000, rep), s, d)
        base = evaluate_policy(s, d, g)
        for k in (1, 2):
            got = evaluate_strategy(s, d, policy_to_strategy(s, d, g, k))
            worst = max(worst, abs(got - base))
    elapsed = time.perf_counter() - started
    assert worst <= EQ_TOL, f"equivalence gap {worst}"
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    _report(1, f"100 policies x 2 owners, worst gap {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_2_common_information_optimality(inst_a, inst_b, solved):
    for name, (_topo, s, d), golden in (
            ("A", inst_a, GOLDEN_VALUE_A), ("B", inst_b, GOLDEN_VALUE_B)):
        started = time.perf_counter()
        br = solved(f"brute-{name}", lambda s=s, d=d: brute_force_optimal(s, d))
        dp = solved(f"dp-{name}", lambda s=s, d=d: common_info_dp(s, d))
        elapsed = time.perf_counter() - started
        gap = abs(br.value - dp.value)
        assert gap <= TOL, f"instance {name}: |dp - brute| = {gap}"
        assert abs(br.value - golden) <= TOL
        assert elapsed <= 600.0, f"instance {name} took {elapsed:.1f}s"
        _report(2, f"instance {name}: brute {br.value:.12g} vs dp "
                   f"{dp.value:.12g} (gap {gap:.2e}), {elapsed:.1f}s")


def test_criterion_3_structural_form_reaches_the_optimum(inst_a, inst_b, solved):
    for name, (_topo, s, d) in (("A", inst_a), ("B", inst_b)):
        br = solved(f"brute-{name}", lambda s=s, d=d: brute_force_optimal(s, d))
        for k in s.agents():
            st = solved(f"struct-{name}-{k}",
                        lambda s=s, d=d, k=k: structural_search(s, d, k))
            gap = abs(st.value - br.value)
            if gap > TOL:
                witness = {
                    "instance": name, "agent": k,
                    "brute": br.value, "structural": st.value,
                }
                pytest.fail(f"structural-form gap detected: {witness}")
            _report(3, f"instance {name}, agent {k}: structural "
                       f"{st.value:.12g} matches brute (gap {gap:.2e})")


# sha256 of each solver's serialized argmin, frozen before the DFS solvers
# were merged onto one search loop; ties must keep breaking identically
GOLDEN_ARGMINS = {
    "brute-A": "f84aeb865dff275d5c5b989eed72fdb8020ddeb979db76742329e16b1cad2033",
    "dp-A": "00970d78a3d44b5cd557f2f266843e4259088404ef058abe8939d18ea497d7b1",
    "struct-A-1": "819c86edbd42479a63ab43dd007dca20334de8a4b913f6a88c54579331fe5b28",
    "struct-A-2": "00970d78a3d44b5cd557f2f266843e4259088404ef058abe8939d18ea497d7b1",
    "brute-B": "144877c05556bf9afab03b36adb96bda66870f95ce33756b0a9b2347ed4607b1",
    "dp-B": "4f8614c528acde0ff767d7c8aa504aa7b1a56002ceded556f79c637e89f6275b",
    "struct-B-1": "2359bb587f554343d7ccbd4e5188b49b711203c9d056f0784c508044ceab9fc5",
    "struct-B-2": "d0ad9abb529ea1424003398f93169f2e79e6e74d8ad1bd1cdbc3706ac4c78246",
    "struct-B-3": "4f8614c528acde0ff767d7c8aa504aa7b1a56002ceded556f79c637e89f6275b",
}


# float.hex of each solver's value: summation order can move the last bit
GOLDEN_VALUES = {
    "brute-A": "0x1.767a0f9096bb9p-1",
    "dp-A": "0x1.767a0f9096bbap-1",
    "struct-A-1": "0x1.767a0f9096bb9p-1",
    "struct-A-2": "0x1.767a0f9096bb9p-1",
    "brute-B": "0x1.27ae147ae147cp-1",
    "dp-B": "0x1.27ae147ae147bp-1",
    "struct-B-1": "0x1.27ae147ae147cp-1",
    "struct-B-2": "0x1.27ae147ae147cp-1",
    "struct-B-3": "0x1.27ae147ae147cp-1",
}


def test_solver_argmins_match_golden_hashes(inst_a, inst_b, solved):
    def sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    got, values = {}, {}
    for name, (_topo, s, d) in (("A", inst_a), ("B", inst_b)):
        br = solved(f"brute-{name}", lambda s=s, d=d: brute_force_optimal(s, d))
        got[f"brute-{name}"] = sha(dump_json(policy_json(br.argmin)))
        values[f"brute-{name}"] = br.value.hex()
        dp = solved(f"dp-{name}", lambda s=s, d=d: common_info_dp(s, d))
        got[f"dp-{name}"] = sha(dump_json(strategy_json(s, dp.argmin)))
        values[f"dp-{name}"] = dp.value.hex()
        for k in s.agents():
            st = solved(f"struct-{name}-{k}",
                        lambda s=s, d=d, k=k: structural_search(s, d, k))
            got[f"struct-{name}-{k}"] = sha(dump_json(strategy_json(s, st.argmin)))
            values[f"struct-{name}-{k}"] = st.value.hex()
    assert got == GOLDEN_ARGMINS
    assert values == GOLDEN_VALUES


def _chained_walk(s, d, roots):
    out = []

    def walk(node, pi):
        out.append((node, pi))
        for theta, edges in node.children:
            for z, _w, child in edges:
                walk(child, belief_update(s, d, pi, theta, z))

    for root in roots:
        walk(root, belief_from_scratch(s, d, root.agent, root.accessible, ()))
    return out


def test_criterion_4_filter_matches_direct_conditioning(inst_a):
    _topo, s, d = inst_a
    worst, nodes = 0.0, 0
    for k in (1, 2):
        roots, _all = history_tree(s, d, k)
        for node, pi in _chained_walk(s, d, roots):
            nodes += 1
            scratch = belief_from_scratch(s, d, k, node.accessible, node.thetas)
            worst = max(worst, belief_linf(pi, scratch))
    assert worst <= TOL, f"filter deviation {worst}"
    _report(4, f"{nodes} reachable histories, both agents, "
               f"worst deviation {worst:.2e}")


def test_criterion_5_markov_property(inst_a):
    _topo, s, d = inst_a
    worst, groups_checked = 0.0, 0
    for k in (1, 2):
        roots, _all = history_tree(s, d, k)
        pairs = _chained_walk(s, d, roots)
        reps = []

        def rep_of(b):
            for i, r in enumerate(reps):
                if belief_linf(r, b) <= TOL:
                    return i
            reps.append(b)
            return len(reps) - 1

        groups = {}
        for node, pi in pairs:
            if node.time >= s.horizon:
                continue
            rid = rep_of(pi)
            for theta, edges in node.children:
                law = {}
                for z, w, _child in edges:
                    nxt = rep_of(belief_update(s, d, pi, theta, z))
                    law[nxt] = law.get(nxt, 0.0) + w / node.weight
                key = (node.time, rid, theta_fingerprint(theta))
                groups.setdefault(key, []).append(law)
        for laws in groups.values():
            groups_checked += 1
            base = laws[0]
            for law in laws[1:]:
                for rid in set(base) | set(law):
                    worst = max(worst,
                                abs(base.get(rid, 0.0) - law.get(rid, 0.0)))
    assert worst <= TOL, f"successor laws differ by {worst}"
    _report(5, f"{groups_checked} (belief, prescription) groups, "
               f"worst deviation {worst:.2e}")


def test_criterion_6_expected_cost_property(inst_a):
    _topo, s, d = inst_a
    worst, pairs = 0.0, 0
    for k in (1, 2):
        roots, _all = history_tree(s, d, k)
        for node, pi in _chained_walk(s, d, roots):
            members = node_members(s, d, node)
            mass = sum(p for p, _x, _values in members)
            for theta in belief_prescriptions(s, d, node.belief):
                pairs += 1
                by_enum = 0.0
                for p, x, values in members:
                    u = []
                    for j in s.agents():
                        gamma = theta.parts[j - 1]
                        l = Realization(tuple((lbl, values[lbl])
                                              for lbl in gamma.domain))
                        u.append(act(gamma, l))
                    by_enum += p * s.c(node.time, x, tuple(u))
                by_enum /= mass
                got = expected_cost(s, pi, theta, d)
                worst = max(worst, abs(got - by_enum))
    assert worst <= TOL, f"cost deviation {worst}"
    _report(6, f"{pairs} (belief, prescription) pairs, "
               f"worst deviation {worst:.2e}")


def test_criterion_7_sufficient_state_determinism(inst_a):
    _topo, s, d = inst_a
    K = s.agent_count
    checked = 0
    for k in (1, 2):
        for rep in range(10):
            psi = random_strategy(sub_rng(1007, k, rep), s, d, k)
            g = strategy_to_policy(s, d, psi)
            for prim in enumerate_primitives(s):
                traj = propagate(s, d, prim, g)
                h = traj.history
                for t in s.times():
                    st = (traj.states[t], tuple([h[i] for i in history_slots(
                        sufficient_info_labels(d, k, t), K)]))
                    theta = complete_prescription_at(
                        s, d, psi, t,
                        realization_at(accessible_labels(d, k, t), h, K))
                    assert stage_cost_hat(s, st, theta, d) == \
                        traj.stage_costs[t]
                    checked += 1
                    if t == s.horizon:
                        continue
                    vn = tuple(prim.v[j - 1][t + 1] for j in s.agents())
                    st2, z2 = state_step(s, d, st, prim.w[t], vn, theta)
                    assert st2 == (traj.states[t + 1], tuple([
                        h[i] for i in history_slots(
                            sufficient_info_labels(d, k, t + 1), K)]))
                    assert z2 == realization_at(new_info_labels(d, k, t + 1),
                                                h, K)
    _report(7, f"{checked} (state, noise, prescription) tuples, "
               f"zero violations")


def test_criterion_8_set_algebra_invariants():
    started = time.perf_counter()
    for i in range(100):
        rng = sub_rng(1008, i)
        topo = random_topology(rng, max_agents=5, max_delay=3)
        T = int(rng.integers(0, 7))
        d = min_delay_matrix(topo)
        K = topo.agent_count
        for k in range(1, K + 1):
            for t in range(T + 1):
                if t > 0:
                    assert accessible_labels(d, k, t - 1).issubset(
                        accessible_labels(d, k, t))
                    assert memory_labels(d, k, t - 1).issubset(
                        memory_labels(d, k, t))
                mem = memory_labels(d, k, t)
                for j in range(k, K + 1):
                    acc = accessible_labels(d, j, t)
                    priv = inaccessible_labels(d, k, j, t)
                    assert acc.issubset(accessible_labels(d, k, t))
                    assert priv.union(acc) == mem
                    assert len(priv.intersect(acc)) == 0
                assert inaccessible_labels(d, k, k, t).issubset(
                    inaccessible_labels(d, k, K, t))
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    _report(8, f"100 topologies, zero violations, {elapsed:.1f}s")


def test_criterion_9_delay_correctness():
    import itertools
    for i in range(100):
        topo = random_topology(sub_rng(1009, i), max_agents=6, max_delay=3)
        d = min_delay_matrix(topo)
        oracle = simple_path_min_delays(topo)
        for (a, b), v in oracle.items():
            assert d.delay(a, b) == v
        for a in topo.agents():
            assert d.delay(a, a) == 0
        for a, b, c in itertools.product(topo.agents(), repeat=3):
            assert d.delay(a, c) <= d.delay(a, b) + d.delay(b, c)
    _report(9, "100 graphs against the simple-path oracle, zero violations")


def test_criterion_10_positional_transfer(inst_a):
    _topo, s, d = inst_a
    prims = enumerate_primitives(s)
    checked = 0
    for rep in range(20):
        owner = 1 + rep % 2
        psi = random_strategy(sub_rng(1010, rep), s, d, owner)
        base = [propagate(s, d, p, strategy_to_policy(s, d, psi)).actions
                for p in prims]
        for j in (1, 2):
            moved = positional_transfer(psi, j, s, d)
            got = [propagate(s, d, p, strategy_to_policy(s, d, moved)).actions
                   for p in prims]
            assert got == base, f"transfer {owner}->{j} changed the actions"
            checked += 1
    _report(10, f"20 strategies x all ordered pairs "
                f"({checked} transfers), identical action profiles")


def _run_cli(*args):
    r = subprocess.run([sys.executable, "-m", "womctl", *args],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_criterion_11_byte_identical_outputs():
    verify_args = ("verify", "--random", "10", "--seed", "0")
    first = _run_cli(*verify_args, "--jobs", "1")
    again = _run_cli(*verify_args, "--jobs", "1")
    parallel = _run_cli(*verify_args, "--jobs", "4")
    assert first == again == parallel
    assert json.loads(first)["passed"] is True

    compare_args = ("compare", "--scenario", fixture_path("instance_a.wom"))
    assert _run_cli(*compare_args) == _run_cli(*compare_args)
    _report(11, "verify byte-identical across runs and jobs 1/4, "
                "compare byte-identical across runs")
