"""womctl never imports numpy: its random streams are drawn in pure Python.

Each test runs a fresh interpreter with numpy blocked (``sys.modules["numpy"]
= None``), so an import of numpy anywhere on the path raises.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BLOCK = 'import sys; sys.modules["numpy"] = None\n'

NO_NUMPY = """
import contextlib, io, json, sys
from pathlib import Path
import womctl.cli
from womctl.fixtures import fixture_path

a = str(fixture_path("instance_a.wom"))
history = Path(sys.argv[1])
history.write_text(json.dumps({
    "accessible": "y1@0=a,y2@0=a",
    "prescriptions": [{"1": {"y1@0=a": "u0", "y1@0=b": "u1"},
                       "2": {"y2@0=a": "u0", "y2@0=b": "u1"}}],
}), encoding="utf-8")
codes = []
for argv in (["validate", "--scenario", a],
             ["infostruct", "--scenario", a, "--t", "2"],
             ["belief", "--scenario", a, "--agent", "2", "--history", str(history)],
             ["solve", "--scenario", a, "--method", "common-info"],
             ["export-strategy", "--scenario", a, "--method", "common-info"],
             ["verify", "--random", "20", "--seed", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(womctl.cli.main(argv))
print(json.dumps({"codes": codes}))
"""

DRAWS = """
import json
from womctl.fixtures import instance_a
from womctl.randgen import random_total_policy, sub_rng
from womctl.scenario import simulate
from womctl.topology import min_delay_matrix

topo, s = instance_a()
g = random_total_policy(sub_rng(7, 4), s, min_delay_matrix(topo))
rng = sub_rng(0, 1, 2)
traj = simulate(s, topo, g, 0)
print(json.dumps({
    "ints": [rng.integers(0, 1000) for _ in range(5)],
    "seed0": {name: getattr(traj, name) for name in (
        "states", "w", "v", "observations", "actions", "stage_costs")},
    "x_w": [[t.states, t.w] for t in (simulate(s, topo, g, seed)
                                      for seed in range(1, 4))],
}))
"""


def _run(code: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-c", BLOCK + code, *args],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_subcommands_run_with_numpy_blocked(tmp_path):
    out = _run(NO_NUMPY, str(tmp_path / "history.json"))
    assert out == {"codes": [0, 0, 0, 0, 0, 0]}


def test_random_streams_are_those_of_the_eager_import():
    # recorded when these streams were drawn by numpy itself
    out = _run(DRAWS)
    assert out["ints"] == [555, 881, 293, 289, 554]
    assert out["seed0"] == {
        "states": ["b", "b", "b", "b"],
        "w": ["w0", "w1", "w0"],
        "v": [["v0", "v0", "v0"], ["v0", "v0", "v0"]],
        "observations": [["b", "b", "b"], ["b", "b", "b"]],
        "actions": [["u0", "u0", "u1"], ["u0", "u0", "u1"]],
        "stage_costs": [1.4, 1.4, 1.0],
    }
    assert out["x_w"] == [
        [["b", "b", "b", "b"], ["w0", "w0", "w0"]],
        [["b", "b", "b", "b"], ["w1", "w0", "w0"]],
        [["a", "b", "b", "b"], ["w0", "w0", "w0"]],
    ]
