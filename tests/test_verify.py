"""Failure paths and call counts of the verify suite.

Each failure-path test corrupts one primitive that several checks consume
and asserts how every consumer reports it: the checks that see the
corruption fail at the first instance that shows it, the others still pass
with their usual instance counts.
"""

import concurrent.futures
import dataclasses
import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import womctl.verify as verify
from womctl.belief import (
    BELIEF_TOL,
    belief_from_scratch,
    belief_prescriptions,
    sufficient_info_labels,
)
from womctl.cli import main
from womctl.errors import EnumerationCapExceeded
from womctl.fixtures import instance_a
from womctl.infostruct import accessible_labels, memory_labels
from womctl.randgen import random_scenario, random_topology, sub_rng
from womctl.scenario import PrimitiveAssignments
from womctl.topology import DelayMatrix, min_delay_matrix

from oracles import member_history_tree, node_members

SCN0_AGENT1_T1 = {"case": "scn-0", "agent": 1, "t": 1}


def _results(random_n, seed=0):
    """Every check's tally on ``run_cases``, by check name."""
    return {r.name: r for r in verify.run_cases(None, random_n, seed)}


def _check(results, name):
    r = results[name]
    return r.name, r.instances, r.passed, r.counterexample


def test_skewed_filter_update_fails_the_chain_and_normalization_checks(
        monkeypatch):
    real = verify.belief_successors

    def skewed(*args, **kwargs):
        out = real(*args, **kwargs)
        for _z, _pz, posterior in out:
            st = next(iter(posterior.probs))
            posterior.probs[st] *= 1 + 1e-6
        return out

    monkeypatch.setattr(verify, "belief_successors", skewed)
    results = _results(1)
    assert _check(results, "filter_chain_matches_direct_conditioning") == (
        "filter_chain_matches_direct_conditioning", 2, False, SCN0_AGENT1_T1)
    assert _check(results, "belief_normalization") == (
        "belief_normalization", 2, False, SCN0_AGENT1_T1)
    assert _check(results, "filter_output_strategy_independent") == (
        "filter_output_strategy_independent", 81, True, None)
    assert _check(results, "belief_evolution_markov") == (
        "belief_evolution_markov", 52, True, None)


def test_filter_that_loses_an_outcome_fails_the_chain_check(monkeypatch,
                                                            capsys):
    # an outcome of the history tree that the filter gives probability 0 is
    # a failed check with a counterexample, not an input error
    real = verify.belief_successors

    def lossy(*args, **kwargs):
        out = real(*args, **kwargs)
        return out[:-1] if len(out) > 1 else out

    monkeypatch.setattr(verify, "belief_successors", lossy)
    assert main(["verify", "--random", "1", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    failed = {c["name"]: (c["instances"], c["worst_deviation"],
                          c["counterexample"])
              for c in json.loads(out)["checks"] if not c["passed"]}
    assert failed == {
        "filter_chain_matches_direct_conditioning": (4, 1.0, SCN0_AGENT1_T1),
        "belief_normalization": (4, 1.0, SCN0_AGENT1_T1)}


def test_offset_dp_value_fails_the_dp_checks_only(monkeypatch):
    real = verify.common_info_dp

    def offset(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, value=res.value + 1.0)

    monkeypatch.setattr(verify, "common_info_dp", offset)
    results = _results(1)
    for name in ("dp_matches_brute_force",
                 "dp_greedy_strategy_reproduces_value"):
        r = results[name]
        assert (r.name, r.instances, r.passed) == (name, 1, False)
        assert r.counterexample["case"] == "scn-0"
    r = results["structural_form_matches_brute_force"]
    assert (r.name, r.instances, r.passed) == (
        "structural_form_matches_brute_force", 5, True)


def test_capped_brute_force_leaves_only_the_greedy_check_running(monkeypatch):
    def capped(*args, **kwargs):
        raise EnumerationCapExceeded("policy candidates", 2, 1)

    monkeypatch.setattr(verify, "brute_force_optimal", capped)
    results = _results(1)
    assert results["dp_matches_brute_force"].instances == 0
    assert results["structural_form_matches_brute_force"].instances == 0
    assert results["dp_greedy_strategy_reproduces_value"].instances == 3


def test_verify_builds_each_shared_input_once(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("history_tree", "brute_force_optimal", "common_info_dp",
                 "root_classes"):
        monkeypatch.setattr(verify, name, counted(name))
    report = verify.run_verify(None, 1, 0)
    assert report["passed"]
    assert len(report["checks"]) == len(verify.CHECKS) == 29
    # one tree per (scenario case, agent): scn-0 and scn-1 have two agents,
    # scn-single one; brute runs once per scenario case plus twice per pair of
    # the delay-monotonicity check
    assert {name: calls[name] for name in (
        "history_tree", "brute_force_optimal", "common_info_dp")} == {
        "history_tree": 5, "brute_force_optimal": 9, "common_info_dp": 3}
    # the filter pass iterates no primitive assignment: each tree's roots
    # are its engine's initial particles observed at 0 (root_classes), and
    # every other node is its parent's classes pushed one step
    real_iter = PrimitiveAssignments.__iter__

    def counted_iter(self):
        calls["primitive assignment iterations"] += 1
        return real_iter(self)

    monkeypatch.setattr(PrimitiveAssignments, "__iter__", counted_iter)
    calls.clear()
    for case in verify.build_inputs(None, 1, 0):
        if case.scenario:
            verify._filter_pass(case, *(verify.CheckResult(n, "")
                                        for n in "abcd"))
    assert (calls["primitive assignment iterations"],
            calls["root_classes"]) == (0, 5)


def test_verify_leaves_no_cyclic_garbage():
    # each case's history tree and walk state must be freed at return, not at
    # the next collection; a warm-up run absorbs one-off lazy set-up
    verify.run_verify(None, 5, 3)
    gc.disable()
    try:
        gc.collect()
        verify.run_verify(None, 5, 3)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


def test_no_delay_matrix_outlives_its_case():
    def live():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, DelayMatrix)]

    before = live()  # kept alive, so that no id is reused
    known = {id(o) for o in before}
    verify.run_verify(None, 200, 0)
    # only the last case's matrix may stay, held by the label caches: the
    # case scn-single, with one agent and horizon 1, so two (k, t) keys
    assert len([o for o in live() if id(o) not in known]) <= 1
    for cache in (memory_labels, accessible_labels, sufficient_info_labels):
        assert cache.cache_info().currsize <= 2


def test_case_ranges_are_contiguous_and_never_empty():
    assert verify.case_ranges(3, 64) == [(0, 1), (1, 2), (2, 3)]
    assert verify.case_ranges(10, 1) == [(0, 10)]
    assert verify.case_ranges(10, 4) == [(0, 2), (2, 5), (5, 7), (7, 10)]
    for cases in range(1, 12):
        for jobs in range(1, 14):
            ranges = verify.case_ranges(cases, jobs)
            assert len(ranges) == min(cases, jobs)
            assert [lo for lo, _hi in ranges] == [0] + [
                hi for _lo, hi in ranges[:-1]]
            assert ranges[-1][1] == cases
            assert all(lo < hi for lo, hi in ranges)
    # a scenario-only run has two cases: the delay-reduction pairs and the file
    assert verify._case_count("x.wom", 0) == 2
    assert verify._case_count(None, 6) == 1 + 6 + 3


def test_case_keys_come_in_run_order():
    for path in (None, "x.wom"):
        keys = [verify._case_key(path, 2, n)
                for n in range(verify._case_count(path, 2))]
        assert keys == [("pairs", 0)] + [("file", 0)] * (path is not None) + [
            ("random", 0), ("random", 1), ("scn", 0), ("scn", 1), ("scn", 2)]


LATE_CASES = """
import json, resource, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from womctl.verify import build_inputs
n = 10**9
tracemalloc.start()
cases = list(build_inputs(None, n, 0, lo=n, hi=n + 2))
print(json.dumps([c.graph[0] if c.graph else c.scenario[1] for c in cases]))
print(tracemalloc.get_traced_memory()[1])
"""


def test_a_late_case_is_drawn_without_listing_the_ones_before_it():
    # the last random case of a 10**9-case run and the scenario case after
    # it; listing the run's case keys ran out of a 1 GiB address space
    src = Path(__file__).resolve().parent.parent / "src"
    r = subprocess.run([sys.executable, "-c", LATE_CASES], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                       timeout=120)
    assert r.returncode == 0, r.stderr
    names, peak = r.stdout.splitlines()
    assert json.loads(names) == [f"graph-{10**9 - 1}", "scn-0"]
    assert int(peak) < 1_000_000


def test_verify_starts_no_more_workers_than_cpus(monkeypatch):
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    report = verify.run_verify(None, 5, 0, jobs=64)
    # 9 cases: the delay-reduction pairs, 5 random and 3 scenario cases
    assert asked == [min(9, os.cpu_count() or 1)]
    assert report == verify.run_verify(None, 5, 0)


def _tree_cases():
    topo, s = instance_a()
    # prescriptions stored per agent: inner nodes only (312 and 5,712 when
    # the leaves held theirs too)
    yield pytest.param(s, min_delay_matrix(topo), {1: 56, 2: 336},
                       id="instance_a")
    for case in verify.build_inputs(None, 6, 0):
        if case.scenario:
            _idx, name, _topo, d, s = case.scenario
            yield pytest.param(s, d, None, id=name)
    # every sensor above is deterministic; here both are noisy, so agent 2's
    # noise weighs agent 1's classes
    rng = sub_rng(70, 0)
    topo = random_topology(rng, max_agents=2, min_agents=2)
    yield pytest.param(random_scenario(rng, topo, horizon=1, noisy_obs=True),
                       min_delay_matrix(topo), None, id="scn-noisy-pair")


def _member_conditional(d, node, members):
    """A class's weight and sufficient-state conditional, summed from the
    primitive assignments it holds."""
    weight = sum(p for p, _x, _values in members)
    info = sufficient_info_labels(d, node.agent, node.time)
    conditional: dict[tuple, float] = {}
    for p, x, values in members:
        st = (x, tuple(values[l] for l in info))
        conditional[st] = conditional.get(st, 0.0) + p / weight
    return weight, conditional


@pytest.mark.parametrize("s, d, stored", _tree_cases())
def test_history_tree_matches_the_member_replay(s, d, stored):
    for k in s.agents():
        _roots, nodes = verify.history_tree(s, d, k)
        if stored:
            assert sum(len(n.children) for n in nodes) == stored[k]
        oracle = member_history_tree(s, d, k)
        assert [(n.time, n.accessible, n.thetas,
                 list(belief_prescriptions(s, d, n.belief)))
                for n in nodes] == [
            (o.time, o.accessible, o.thetas, o.theta_options) for o in oracle]
        for node, want in zip(nodes, oracle):
            if node.time == s.horizon:
                assert node.children == []
            else:
                assert [theta for theta, _edges in node.children
                        ] == want.theta_options
            assert [[z for z, _w, _child in edges]
                    for _theta, edges in node.children] == want.edge_labels
            for theta, edges in node.children:
                for z, w, child in edges:
                    assert (child.thetas, child.accessible, w) == (
                        node.thetas + (theta,), node.accessible.merge(z),
                        child.weight)
            weight, conditional = _member_conditional(d, node, want.members)
            assert abs(node.weight - weight) <= 1e-12
            # the tree's push and the `belief --history` path both match
            for pi in (node.belief, belief_from_scratch(
                    s, d, k, node.accessible, node.thetas)):
                assert set(pi.probs) == set(conditional)
                assert max(abs(pi.probs[st] - p)
                           for st, p in conditional.items()) <= BELIEF_TOL


def test_history_tree_on_instance_b_pushes_what_direct_conditioning_gives(
        inst_b):
    # the member replay of agent 1 alone takes about 90 s here, so the first
    # two nodes of each level stand in for it
    _topo, s, d = inst_b
    assert [len(verify.history_tree(s, d, k)[1]) for k in s.agents()] == [
        146, 1153, 8257]
    _roots, nodes = verify.history_tree(s, d, 1)
    for t in s.times():
        for node in [n for n in nodes if n.time == t][:2]:
            weight, conditional = _member_conditional(
                d, node, node_members(s, d, node))
            assert abs(node.weight - weight) <= 1e-12
            assert set(node.belief.probs) == set(conditional)
            assert max(abs(node.belief.probs[st] - p)
                       for st, p in conditional.items()) <= 1e-12


def test_history_tree_caps_its_replay_and_its_node_count(inst_a):
    _topo, s, d = inst_a
    # instance_a has 16 primitive assignments and 78 nodes for agent 1
    with pytest.raises(EnumerationCapExceeded, match="primitive assignments"):
        verify.history_tree(s, d, 1, assign_cap=15)
    with pytest.raises(EnumerationCapExceeded, match="conditioning histories"):
        verify.history_tree(s, d, 1, node_cap=10)


@pytest.mark.parametrize("s, d, stored", _tree_cases())
def test_history_tree_node_cap_is_exact(s, d, stored):
    # the tree fits a cap of its node count and raises one below it. The
    # check before each expansion counts one child per option; where some
    # option has more, as in most scenario cases, the check of the finished
    # tree is the one that raises
    for k in s.agents():
        n = len(verify.history_tree(s, d, k)[1])
        assert len(verify.history_tree(s, d, k, node_cap=n)[1]) == n
        with pytest.raises(EnumerationCapExceeded, match=(
                f"conditioning histories: (at least )?{n} exceeds cap {n - 1}")):
            verify.history_tree(s, d, k, node_cap=n - 1)


# -- failure-path pins ---------------------------------------------------------
#
# One corrupted seam per case: ``FAULTS[seam](real)`` returns the stand-in for
# ``verify.<seam>``. Each stand-in corrupts only some calls, so that most
# checks fail at a later instance than their first; the pins then show that a
# failing check counts its instances up to and including the failing one.

def _flip_one_action(s, psi):
    """``psi`` with the first entry of its last (target, time) part changed."""
    parts = {key: dict(rows) for key, rows in psi.parts.items()}
    (j, t), rows = max(parts.items(), key=lambda e: e[0])
    a, gamma = next(iter(rows.items()))
    l, u = next(iter(gamma.table.items()))
    other = next(v for v in s.action_space(j, t).values if v != u)
    rows[a] = dataclasses.replace(gamma, table={**gamma.table, l: other})
    return dataclasses.replace(psi, parts=parts)


def _offset_value(res):
    return dataclasses.replace(res, value=res.value + 1.0)


def _unsubset_last_row(report):
    last = dataclasses.replace(report.rows[-1], subset=False)
    return dataclasses.replace(report, rows=report.rows[:-1] + [last])


def _corrupt_graph_3(real):
    """graph-3 (two agents) with delay(1, 1) = -1; a negative diagonal entry
    leaves its relay paths, and so the path check, unchanged."""
    def build(*args, **kwargs):
        for case in real(*args, **kwargs):
            if case.graph and case.graph[0] == "graph-3":
                name, topo, d = case.graph
                rows = [list(row) for row in d.rows]
                rows[0][0] = -1
                case.graph = (name, topo, dataclasses.replace(
                    d, rows=tuple(map(tuple, rows))))
            yield case
    return build


FAULTS = {
    "act": lambda real: lambda gamma, l: (
        "?" if (gamma.target, gamma.time) == (2, 1) else real(gamma, l)),
    "min_delay_by_paths": lambda real: lambda t: {
        p: v + (t.agent_count == 6 and p == (3, 1))
        for p, v in real(t).items()},
    "replay_memory": lambda real: lambda t, k, time: real(
        t, k, time - 1 if time >= 4 else time),
    "joint_distribution": lambda real: lambda s, *a: {
        tr: p * (1.5 if s.agent_count == 1 else 1.0)
        for tr, p in real(s, *a).items()},
    "positional_transfer": lambda real: lambda psi, j, s, *a: (
        _flip_one_action(s, real(psi, j, s, *a)) if j == 2
        else real(psi, j, s, *a)),
    "policy_to_strategy": lambda real: lambda s, d, g, k, *a: (
        _flip_one_action(s, real(s, d, g, k, *a)) if k == 2
        else real(s, d, g, k, *a)),
    "evaluate_strategy": lambda real: lambda s, *a: (
        real(s, *a) + (0.5 if s.agent_count == 1 else 0.0)),
    "state_step": lambda real: lambda s, d, st, w, vn, theta: (
        (lambda st2, z: (("?", st2[1]), z))(*real(s, d, st, w, vn, theta))
        if theta.owner == 2 else real(s, d, st, w, vn, theta)),
    "stage_cost_hat": lambda real: lambda s, st, theta, d: (
        real(s, st, theta, d) + (1.0 if theta.time == 1 else 0.0)),
    "brute_force_optimal": lambda real: lambda s, *a: (
        _offset_value(real(s, *a)) if s.agent_count == 1 else real(s, *a)),
    "domain_comparison": lambda real: lambda s, d: (
        _unsubset_last_row(real(s, d)) if s.agent_count == 1 else real(s, d)),
    "accessible_labels": lambda real: lambda d, k, t: real(
        d, k, t - 1 if k >= 3 and t > 0 else t),
    "inaccessible_labels": lambda real: lambda d, k, j, t: real(
        d, k, j, t - 1 if t >= 2 else t),
    "build_inputs": _corrupt_graph_3,
}


# the report name of every check, in CHECKS order
CHECK_NAMES = [
    "delay_diagonal_zero", "delay_triangle_inequality",
    "delay_matrix_matches_path_enumeration",
    "information_path_delay_matches_matrix", "delay_matrix_finite",
    "trajectory_probability_is_primitive_product",
    "simulate_matches_enumerated_trajectory",
    "trajectory_stage_costs_match_cost_table",
    "accessible_info_monotone_in_time", "accessible_info_nested_across_agents",
    "memory_partition_by_accessible_and_inaccessible",
    "own_inaccessible_within_common_inaccessible", "memory_monotone_in_time",
    "memory_matches_transmission_replay",
    "prescription_action_consistency_across_owners",
    "policy_strategy_round_trip_identity",
    "prescription_domains_match_partition_rule",
    "positional_transfer_composition",
    "filter_chain_matches_direct_conditioning",
    "filter_output_strategy_independent", "belief_evolution_markov",
    "belief_normalization", "sufficient_state_step_deterministic",
    "strategy_policy_cost_equivalence", "dp_matches_brute_force",
    "dp_greedy_strategy_reproduces_value",
    "structural_form_matches_brute_force",
    "delay_reduction_never_increases_optimal_cost",
    "domain_report_subset_relation",
]


def test_the_catalogue_declares_each_check_once_in_report_order():
    assert [fn.spec[0] for fn in verify.CHECKS] == CHECK_NAMES
    # a profiler that keys its spans by function name would merge two
    # checks of one name
    names = [fn.__name__ for fn in verify.CHECKS]
    assert len(set(names)) == len(names) == 29


# instances of every check on the cases of a run with random_n=6, seed=0, in
# CHECKS order
CLEAN_INSTANCES = [6, 6, 6, 6, 6, 3, 15, 3, 6, 6, 6, 6, 6, 6, 9, 15, 5, 9,
                   89, 81, 52, 89, 256, 25, 3, 3, 5, 3, 3]

# per fault: the checks that fail, as name -> (instances, worst deviation,
# counterexample); every other check reports as on the clean inputs
FAILED = {
    "act": {
        "sufficient_state_step_deterministic": (
            2, 1.0, {"case": "scn-0", "agent": 1, "t": 1, "what": "actions"})},
    "min_delay_by_paths": {
        "delay_matrix_matches_path_enumeration": (
            6, 1, {"case": "graph-5", "pair": [3, 1], "matrix": 1,
                   "oracle": 2})},
    "replay_memory": {
        "memory_matches_transmission_replay": (
            1, 1.0, {"case": "info-0", "agent": 1, "t": 4})},
    "joint_distribution": {
        "trajectory_probability_is_primitive_product": (
            3, 0.027038771069091347, {"case": "scn-single"})},
    "positional_transfer": {
        "prescription_action_consistency_across_owners": (
            2, 1.0, {"case": "scn-0", "owner": 1, "target": 2})},
    "policy_to_strategy": {
        "policy_strategy_round_trip_identity": (
            2, 1.0, {"case": "scn-0", "owner": 2, "rep": 0}),
        "strategy_policy_cost_equivalence": (
            4, 0.24766666666666648, {"case": "scn-0", "owner": 2, "rep": 1})},
    "evaluate_strategy": {
        "strategy_policy_cost_equivalence": (
            21, 0.5, {"case": "scn-single", "owner": 1, "rep": 0}),
        "dp_greedy_strategy_reproduces_value": (
            3, 0.4999999999999998, {"case": "scn-single", "value": 0.4063,
                                    "evaluated": 0.9062999999999998})},
    "state_step": {
        "sufficient_state_step_deterministic": (
            33, 1.0, {"case": "scn-0", "agent": 2, "t": 0,
                      "what": "state step"})},
    "stage_cost_hat": {
        "sufficient_state_step_deterministic": (
            2, 1.0, {"case": "scn-0", "agent": 1, "t": 1,
                     "what": "stage cost"})},
    "brute_force_optimal": {
        "dp_matches_brute_force": (
            3, 0.9999999999999999, {"case": "scn-single",
                                    "brute": 1.4062999999999999,
                                    "dp": 0.4063}),
        "structural_form_matches_brute_force": (
            5, 0.9999999999999999, {"case": "scn-single", "agent": 1,
                                    "brute": 1.4062999999999999,
                                    "structural": 0.4063})},
    "domain_comparison": {
        "domain_report_subset_relation": (
            3, 1.0, {"case": "scn-single", "agent": 1, "t": 1})},
    "accessible_labels": {
        "memory_partition_by_accessible_and_inaccessible": (
            1, 1.0, {"case": "info-0", "pair": [1, 3], "t": 2})},
    "inaccessible_labels": {
        "memory_partition_by_accessible_and_inaccessible": (
            1, 1.0, {"case": "info-0", "pair": [1, 2], "t": 2})},
    "build_inputs": {
        "delay_diagonal_zero": (4, 1.0, {"case": "graph-3", "agent": 1}),
        "delay_triangle_inequality": (
            4, 1.0, {"case": "graph-3", "triple": [1, 1, 1]}),
        "delay_matrix_matches_path_enumeration": (
            4, 1, {"case": "graph-3", "pair": [1, 1], "matrix": -1,
                   "oracle": 0}),
        "delay_matrix_finite": (4, 1.0, {"case": "graph-3", "entry": "-1"})},
}


# calls of the corrupted seam over all checks: a failing check makes no call
# after its failing instance
SEAM_CALLS = {
    "accessible_labels": 699, "act": 4, "brute_force_optimal": 9,
    "build_inputs": 1, "domain_comparison": 3, "evaluate_strategy": 24,
    "inaccessible_labels": 147, "joint_distribution": 9,
    "min_delay_by_paths": 6, "policy_to_strategy": 6,
    "positional_transfer": 21, "replay_memory": 5, "stage_cost_hat": 2,
    "state_step": 17,
}


def _report(lo=0, hi=None):
    return [(r.name, r.instances, r.passed, r.worst_deviation,
             r.counterexample) for r in verify.run_cases(
        None, 6, 0, lo=lo, hi=hi)]


def test_clean_inputs_pass_every_check_with_the_pinned_instance_counts():
    report = _report()
    assert [(n, ok, ce) for _name, n, ok, _worst, ce in report] == [
        (n, True, None) for n in CLEAN_INSTANCES]


@pytest.mark.parametrize("seam", sorted(FAULTS))
def test_each_fault_fails_exactly_its_checks_at_the_pinned_instance(
        monkeypatch, seam):
    fake = FAULTS[seam](getattr(verify, seam))
    calls = Counter()

    def counted(*args, **kwargs):
        calls[seam] += 1
        return fake(*args, **kwargs)

    monkeypatch.setattr(verify, seam, counted)
    report = _report()
    assert calls[seam] == SEAM_CALLS[seam]
    want = FAILED[seam]
    assert set(want) <= {name for name, *_rest in report}
    for (name, n, ok, worst, ce), clean_n in zip(report, CLEAN_INSTANCES):
        if name in want:
            # repr tells a boolean or integer deviation from a float one
            pinned_n, pinned_worst, pinned_ce = want[name]
            assert (name, n, ok, repr(worst), ce) == (
                name, pinned_n, False, repr(pinned_worst), pinned_ce)
        else:
            assert (name, n, ok, ce) == (name, clean_n, True, None)


@pytest.mark.parametrize("seam", [None, *sorted(FAULTS)])
def test_merged_tallies_of_case_ranges_equal_the_single_range_tallies(
        monkeypatch, seam):
    if seam is not None:
        monkeypatch.setattr(verify, seam, FAULTS[seam](getattr(verify, seam)))

    def rows(results):
        return [(r.name, r.instances, r.passed, repr(r.worst_deviation),
                 r.counterexample) for r in results]

    # the 10 cases: the delay-reduction pairs, random cases 0-5, scn-0,
    # scn-1 and scn-single
    whole = rows(verify.run_cases(None, 6, 0))
    for cuts in ((4, 8), (2, 6, 9)):
        bounds = (0, *cuts, None)
        assert rows(verify.merge_tallies([
            verify.run_cases(None, 6, 0, lo=lo, hi=hi)
            for lo, hi in zip(bounds, bounds[1:])])) == whole
