"""Self-time arithmetic and wrapper installation of the benchmark's tracer."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import tracer as tr  # noqa: E402


def test_self_times_of_synthetic_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0.0],
        ["a", 1.0, 4.0, 0, 0.5],      # 0.5 s of leaf calls directly inside a
        ["b", 2.0, 3.0, 1, 0.0],
        ["c", 5.0, 9.0, 0, 1.0],
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 3.0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_wrappers_attribute_time_to_the_innermost_span(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tr.time, "perf_counter", clock)
    t = tr.Tracer()

    def leaf_fn():
        clock.now += 2.0

    def child_fn():
        clock.now += 3.0
        leaf()

    def parent_fn():
        clock.now += 1.0
        child()
        leaf()
        clock.now += 4.0

    leaf = t.leaf("m.leaf", leaf_fn)
    child = t.span("m.child", child_fn)
    parent = t.span("m.parent", parent_fn)
    parent()
    parent()

    own = {}
    for rec, s in zip(t.spans, tr.self_times(t.spans)):
        own[rec[0]] = own.get(rec[0], 0.0) + s
    assert own == pytest.approx({"m.parent": 10.0, "m.child": 6.0})
    assert t.leaves["m.leaf"] == [4, pytest.approx(8.0)]
    assert t.nesting_errors == 0


def test_a_span_inside_a_leaf_is_counted_as_a_nesting_error():
    t = tr.Tracer()
    inner = t.span("m.inner", lambda: None)
    outer = t.leaf("m.outer", lambda: inner())
    outer()
    assert t.nesting_errors == 1


def test_install_rebinds_every_namespace():
    root = BENCH.parent
    code = f"""
import json, sys
sys.path[:0] = [{str(root / 'src')!r}, {str(BENCH)!r}]
import tracer
import womctl.cli, womctl.solver, womctl.verify, womctl.belief, womctl.prescription
originals = {{
    "belief_successors": womctl.belief.belief_successors,
    "brute_force_optimal": womctl.solver.brute_force_optimal,
    "act": womctl.prescription.act,
    "check": womctl.verify.CHECKS[0],
}}
tracer.install(tracer.Tracer())
print(json.dumps({{
    "solver": womctl.solver.belief_successors is not originals["belief_successors"],
    "belief": womctl.belief.belief_successors is womctl.solver.belief_successors,
    "verify": womctl.verify.brute_force_optimal is womctl.solver.brute_force_optimal,
    "cli": womctl.cli.brute_force_optimal is womctl.solver.brute_force_optimal,
    "wrapped": womctl.cli.brute_force_optimal is not originals["brute_force_optimal"],
    "act": womctl.verify.act is womctl.prescription.act is not originals["act"],
    "checks": womctl.verify.CHECKS[0] is not originals["check"],
}}))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == {key: True for key in (
        "solver", "belief", "verify", "cli", "wrapped", "act", "checks")}
