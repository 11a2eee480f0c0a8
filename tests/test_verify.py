"""Failure paths and call counts of the verify suite.

Each failure-path test corrupts one primitive that several checks consume
and asserts how every consumer reports it: the checks that see the
corruption fail at the first instance that shows it, the others still pass
with their usual instance counts.
"""

import dataclasses
import pickle
from collections import Counter

import womctl.verify as verify
from womctl.errors import EnumerationCapExceeded

SCN0_AGENT1_T1 = {"case": "scn-0", "agent": 1, "t": 1}


def _check(fn, inp):
    r = fn(inp)
    return r.name, r.instances, r.passed, r.counterexample


def test_skewed_filter_update_fails_the_chain_and_normalization_checks(
        monkeypatch):
    real = verify.belief_update

    def skewed(*args, **kwargs):
        out = real(*args, **kwargs)
        st = next(iter(out.probs))
        out.probs[st] *= 1 + 1e-6
        return out

    monkeypatch.setattr(verify, "belief_update", skewed)
    inp = verify.build_inputs(None, 1, 0)
    assert _check(verify.check_filter_chain_vs_scratch, inp) == (
        "filter_chain_matches_direct_conditioning", 2, False, SCN0_AGENT1_T1)
    assert _check(verify.check_belief_normalization, inp) == (
        "belief_normalization", 2, False, SCN0_AGENT1_T1)
    assert _check(verify.check_filter_policy_independence, inp) == (
        "filter_output_strategy_independent", 81, True, None)
    assert _check(verify.check_markov_property, inp) == (
        "belief_evolution_markov", 52, True, None)


def test_offset_dp_value_fails_the_dp_checks_only(monkeypatch):
    real = verify.common_info_dp

    def offset(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, value=res.value + 1.0)

    monkeypatch.setattr(verify, "common_info_dp", offset)
    inp = verify.build_inputs(None, 1, 0)
    for fn, name in ((verify.check_dp_vs_brute, "dp_matches_brute_force"),
                     (verify.check_dp_greedy_consistency,
                      "dp_greedy_strategy_reproduces_value")):
        r = fn(inp)
        assert (r.name, r.instances, r.passed) == (name, 1, False)
        assert r.counterexample["case"] == "scn-0"
    r = verify.check_structural_vs_brute(inp)
    assert (r.name, r.instances, r.passed) == (
        "structural_form_matches_brute_force", 5, True)


def test_capped_brute_force_leaves_only_the_greedy_check_running(monkeypatch):
    def capped(*args, **kwargs):
        raise EnumerationCapExceeded("policy candidates", 2, 1)

    monkeypatch.setattr(verify, "brute_force_optimal", capped)
    inp = verify.build_inputs(None, 1, 0)
    assert verify.check_dp_vs_brute(inp).instances == 0
    assert verify.check_structural_vs_brute(inp).instances == 0
    assert verify.check_dp_greedy_consistency(inp).instances == 3


def test_verify_builds_each_shared_input_once(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("history_tree", "brute_force_optimal", "common_info_dp"):
        monkeypatch.setattr(verify, name, counted(name))
    report = verify.run_verify(None, 1, 0)
    assert report["passed"]
    assert len(report["checks"]) == len(verify.CHECKS) == 29
    # one tree per (scenario case, agent): scn-0 and scn-1 have two agents,
    # scn-single one; brute runs once per scenario case plus twice per pair of
    # the delay-monotonicity check
    assert calls == {"history_tree": 5, "brute_force_optimal": 9,
                     "common_info_dp": 3}



def test_pool_tasks_group_the_checks_of_each_shared_pass():
    groups = verify._task_groups(verify.CHECKS)
    assert sorted(i for g in groups for i in g) == list(range(29))
    names = [[verify.CHECKS[i].__name__ for i in g] for g in groups]
    shared = [g for g in names if len(g) > 1]
    assert shared == [
        ["check_filter_chain_vs_scratch", "check_filter_policy_independence",
         "check_markov_property", "check_belief_normalization"],
        ["check_dp_vs_brute", "check_dp_greedy_consistency",
         "check_structural_vs_brute"],
    ]
    assert len(groups) == 29 - 4 - 3 + 2 == 24


def test_each_pool_task_runs_its_shared_pass_once(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("history_tree", "brute_force_optimal", "common_info_dp"):
        monkeypatch.setattr(verify, name, counted(name))
    inp = verify.build_inputs(None, 1, 0)
    for group in verify._task_groups(verify.CHECKS):
        # a worker gets its own unpickled copy of the inputs, shared cache empty
        copy = pickle.loads(pickle.dumps(inp))
        verify._run_task(([verify.CHECKS[i] for i in group], copy))
    assert calls == {"history_tree": 5, "brute_force_optimal": 9,
                     "common_info_dp": 3}
