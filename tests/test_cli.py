import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from womctl import cli
from womctl.fixtures import fixture_path, instance_a
from womctl.infostruct import Kind, accessible_labels, enumerate_realizations
from womctl.prescription import prescription_domain
from womctl.topology import min_delay_matrix

INSTANCE_A = fixture_path("instance_a.wom")
REPO_ROOT = Path(__file__).resolve().parent.parent

TINY = """
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


def womctl(*args):
    return subprocess.run([sys.executable, "-m", "womctl", *args],
                          capture_output=True, text=True)


def test_validate_accepts_the_bundled_instance():
    r = womctl("validate", "--scenario", INSTANCE_A)
    assert r.returncode == 0
    assert "2 agents" in r.stdout


def test_validate_rejects_bad_distribution(tmp_path):
    bad = tmp_path / "bad.wom"
    bad.write_text(TINY.replace("init a 0.3", "init a 0.2"), encoding="utf-8")
    r = womctl("validate", "--scenario", str(bad))
    assert r.returncode == 2
    assert "sums to" in r.stderr


@pytest.mark.parametrize("old, new", [
    ("init a 0.3", "init a nan"),
    ("c t=* a u0 0.4", "c t=* a u0 nan"),
])
def test_non_finite_numbers_are_rejected(tmp_path, old, new):
    bad = tmp_path / "bad.wom"
    bad.write_text(TINY.replace(old, new), encoding="utf-8")
    for args in (("validate",), ("solve", "--method", "brute")):
        r = womctl(*args, "--scenario", str(bad))
        assert r.returncode == 2, r.stdout + r.stderr
        assert "finite" in r.stderr


def test_validate_missing_file_is_an_input_error():
    r = womctl("validate", "--scenario", "/nonexistent/nowhere.wom")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_non_utf8_scenario_file_is_an_input_error(tmp_path):
    bad = tmp_path / "utf16.wom"
    bad.write_bytes(b"\xff\xfe" + TINY.encode("utf-16-le"))
    for args in (("validate",), ("solve", "--method", "brute")):
        r = womctl(*args, "--scenario", str(bad))
        assert (r.returncode, r.stdout) == (2, ""), r.stderr
        assert r.stderr.startswith(f"error: {bad} is not UTF-8 text")
        assert "Traceback" not in r.stderr


def test_infostruct_prints_the_worked_label_sets():
    r = womctl("infostruct", "--scenario", INSTANCE_A, "--t", "2")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    agent1 = doc["agents"][0]
    mem = {(l["agent"], l["time"], l["kind"]) for l in agent1["memory"]}
    assert mem == {
        (1, 0, "obs"), (1, 1, "obs"), (1, 2, "obs"), (1, 0, "act"),
        (1, 1, "act"), (2, 0, "obs"), (2, 1, "obs"), (2, 0, "act")}
    assert agent1["inaccessible"]["2"] == [
        {"agent": 1, "kind": "act", "time": 1},
        {"agent": 1, "kind": "obs", "time": 2}]


def test_solve_brute_reports_the_expected_value(tmp_path):
    f = tmp_path / "tiny.wom"
    f.write_text(TINY, encoding="utf-8")
    r = womctl("solve", "--scenario", str(f), "--method", "brute")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert abs(doc["value"] - (0.3 * 0.4 + 0.7 * 0.2)) < 1e-9
    assert doc["candidates"] == 4


def test_solve_exceeding_the_cap_exits_3():
    r = womctl("solve", "--scenario", INSTANCE_A, "--method", "brute",
               "--cap", "10")
    assert r.returncode == 3
    assert "exceeds cap" in r.stderr


def test_cap_environment_variable_is_honored():
    env = dict(os.environ, WOMCTL_CAP="10")
    r = subprocess.run(
        [sys.executable, "-m", "womctl", "solve", "--scenario", INSTANCE_A,
         "--method", "brute"],
        capture_output=True, text=True, env=env)
    assert r.returncode == 3
    assert "exceeds cap 10" in r.stderr


def test_compare_emits_three_matching_rows():
    r = womctl("compare", "--scenario", INSTANCE_A)
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "method,value,candidates,seconds,match_brute"
    assert len(lines) == 4
    methods = [l.split(",")[0] for l in lines[1:]]
    assert methods == ["brute", "common-info", "structural-k1"]
    assert all(l.split(",")[4] == "yes" for l in lines[1:])


def test_verify_on_instance_a_passes_every_check():
    r = womctl("verify", "--scenario", INSTANCE_A)
    assert r.returncode == 0, r.stdout + r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert all(c["instances"] >= 1 for c in doc["checks"])


def test_verify_random_batch_is_deterministic_and_green():
    a = womctl("verify", "--random", "5", "--seed", "3")
    b = womctl("verify", "--random", "5", "--seed", "3")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["passed"] is True
    assert len(doc["checks"]) == 29


def test_verify_cap_in_a_worker_process_is_reported_as_with_one_job():
    # the error is pickled back from the worker that hit the cap
    one = womctl("verify", "--random", "3", "--cap", "20")
    two = womctl("verify", "--random", "3", "--cap", "20", "--jobs", "2")
    assert (one.returncode, one.stdout) == (3, "")
    assert one.stderr.startswith("error: ") and "exceeds cap 20" in one.stderr
    assert (two.returncode, two.stdout, two.stderr) == (
        one.returncode, one.stdout, one.stderr)


def test_export_strategy_produces_total_tables(tmp_path):
    out = tmp_path / "strategy.json"
    r = womctl("export-strategy", "--scenario", INSTANCE_A,
               "--method", "common-info", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["agent"] is None
    assert abs(doc["value"] - 0.7314) < 1e-9
    parts = doc["strategy"]["parts"]
    assert "target1@t0" in parts and "target2@t2" in parts
    # at t=0 the shared information of the last agent is empty
    assert list(parts["target1@t0"].keys()) == ["-"]


def test_belief_command_conditions_on_a_history_file(tmp_path):
    history = tmp_path / "history.json"
    history.write_text(json.dumps({
        "accessible": "y1@0=a,y2@0=a",
        "prescriptions": [
            {"1": {"y1@0=a": "u0", "y1@0=b": "u1"},
             "2": {"y2@0=a": "u0", "y2@0=b": "u1"}},
        ],
    }), encoding="utf-8")
    r = womctl("belief", "--scenario", INSTANCE_A, "--agent", "2",
               "--history", str(history))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["agent"] == 2 and doc["time"] == 1
    # both agents saw `a` and played u0, so the plant left `a` only via the
    # unlikely noise value
    probs = doc["belief"]
    assert abs(sum(probs.values()) - 1.0) < 1e-9
    by_x = {}
    for key, p in probs.items():
        x = dict(kv.split("=") for kv in key.split(","))["x"]
        by_x[x] = by_x.get(x, 0.0) + p
    assert abs(by_x["a"] - 0.7) < 1e-9
    assert abs(by_x["b"] - 0.3) < 1e-9


def test_belief_command_rejects_wrong_domain(tmp_path):
    history = tmp_path / "history.json"
    history.write_text(json.dumps({
        "accessible": "y1@0=a",
        "prescriptions": [],
    }), encoding="utf-8")
    r = womctl("belief", "--scenario", INSTANCE_A, "--agent", "2",
               "--history", str(history))
    assert r.returncode == 2
    assert "VarLabel(" not in r.stderr


@pytest.mark.parametrize("agent", ["0", "7"])
@pytest.mark.parametrize("command", [
    ("solve", "--method", "structural"),
    ("compare",),
    ("export-strategy", "--method", "structural"),
])
def test_agent_outside_the_scenario_is_an_input_error(command, agent):
    r = womctl(*command, "--scenario", INSTANCE_A, "--agent", agent)
    assert r.returncode == 2
    assert r.stderr == "error: --agent must lie in 1..2\n"


@pytest.mark.parametrize("text", [
    '{"accessible": "y1@0=a",',
    json.dumps({"accessible": "y1@0=a,y2@0=a", "prescriptions": 5}),
    json.dumps([{"accessible": "y1@0=a,y2@0=a"}]),
    pytest.param("[" * 100_000 + "]" * 100_000, id="deeply-nested"),
])
def test_belief_command_rejects_malformed_history(tmp_path, text):
    history = tmp_path / "history.json"
    history.write_text(text, encoding="utf-8")
    r = womctl("belief", "--scenario", INSTANCE_A, "--agent", "2",
               "--history", str(history))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ")


def test_belief_command_rejects_a_repeated_label(tmp_path):
    history = tmp_path / "history.json"
    history.write_text(json.dumps({"accessible": "y1@0=zz,y1@0=a",
                                   "prescriptions": []}), encoding="utf-8")
    r = womctl("belief", "--scenario", INSTANCE_A, "--agent", "2",
               "--history", str(history))
    assert (r.returncode, r.stdout, r.stderr) == (
        2, "", "error: label y1@0 given twice\n")


_LONG_LABEL = "y2@" + "0" * 5000


@pytest.mark.parametrize("accessible, message", [
    ("y1@0=a\nb,y2@0=a",
     "bad value 'a\\nb' in realization component 'y1@0=a\\nb'"),
    (f"y1@0=a,{_LONG_LABEL}=a", f"bad label {_LONG_LABEL!r}; expected "
     "y<agent>@<t> or u<agent>@<t>"),
    ("y1@0=a,y2@\u0663=a",
     "bad label 'y2@\u0663'; expected y<agent>@<t> or u<agent>@<t>"),
], ids=["newline-in-value", "too-many-digits", "non-ascii-digit"])
def test_belief_command_rejects_an_unreadable_realization(tmp_path, accessible,
                                                          message):
    history = tmp_path / "history.json"
    history.write_text(json.dumps(dict(_play_u0_doc(1), accessible=accessible)),
                       encoding="utf-8")
    r = womctl("belief", "--scenario", INSTANCE_A, "--agent", "2",
               "--history", str(history))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


_STEP = ('{"1": {"y1@0=a": "u0", "y1@0=b": "u1"}, '
         '"2": {"y2@0=a": "u0", "y2@0=b": "u1"}%s}')


@pytest.mark.parametrize("step, message", [
    (_STEP.replace('"y1@0=b"', '" y1@0=a"') % "",
     "history step 0, agent 1: realization ' y1@0=a' repeats an earlier key"),
    (_STEP.replace('"y1@0=b"', '"y1@0=a"') % "",
     "history file gives the key 'y1@0=a' twice"),
    (_STEP % ', "3": {}', "history step 0: '3' is not an agent in 1..2"),
    (_STEP.replace('"u1"}', '"u1", "y1@0=zz": "u1"}', 1) % "",
     "history step 0, agent 1: realization 'y1@0=zz' gives y1@0 the value "
     "'zz', outside its space"),
], ids=["same-realization", "duplicate-json-key", "unknown-agent",
        "value-outside-space"])
def test_belief_command_rejects_an_ambiguous_history_step(tmp_path, step, message):
    history = tmp_path / "history.json"
    history.write_text('{"accessible": "y1@0=a,y2@0=a", "prescriptions": [%s]}'
                       % step, encoding="utf-8")
    r = womctl("belief", "--scenario", INSTANCE_A, "--agent", "2",
               "--history", str(history))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


def _play_u0_doc(steps: int, agent: int = 2) -> dict:
    """A history of the agent on instance_a: every prescription plays u0,
    and in the shared realization every agent saw `a` and played u0."""
    topo, s = instance_a()
    d = min_delay_matrix(topo)
    accessible = ",".join(
        f"{l}={'a' if l.kind == Kind.OBS else 'u0'}"
        for l in accessible_labels(d, agent, steps))
    prescriptions = [
        {str(j): {str(r): "u0" for r in enumerate_realizations(
            s, prescription_domain(d, agent, j, t))} for j in s.agents()}
        for t in range(steps)]
    return {"accessible": accessible, "prescriptions": prescriptions}


def _play_u0_history(steps: int) -> str:
    return json.dumps(_play_u0_doc(steps))


def test_belief_command_rejects_an_unknown_history_key(tmp_path):
    history = tmp_path / "history.json"
    step = json.loads(_play_u0_history(1))["prescriptions"]
    history.write_text(json.dumps({"accessible": "-", "prescription": step}),
                       encoding="utf-8")
    r = womctl("belief", "--scenario", INSTANCE_A, "--agent", "2",
               "--history", str(history))
    assert (r.returncode, r.stdout, r.stderr) == (
        2, "", "error: history file has unknown key 'prescription'; expected "
        "'accessible' and 'prescriptions'\n")


@pytest.mark.parametrize("steps", [0, 2])
def test_belief_command_caps_the_primitive_assignments(tmp_path, steps):
    # instance_a has 16 primitive assignments, and a history of any length
    # conditions on every one of them
    doc = (_play_u0_doc(steps) if steps
           else {"accessible": "-", "prescriptions": []})
    history = tmp_path / "history.json"
    history.write_text(json.dumps(doc), encoding="utf-8")
    r = womctl("belief", "--scenario", INSTANCE_A, "--agent", "2",
               "--history", str(history), "--cap", "15")
    assert (r.returncode, r.stdout, r.stderr) == (
        3, "", "error: primitive assignments: 16 exceeds cap 15\n")


def test_belief_command_takes_at_most_horizon_steps(tmp_path):
    history = tmp_path / "history.json"
    history.write_text(_play_u0_history(2), encoding="utf-8")
    r = womctl("belief", "--scenario", INSTANCE_A, "--agent", "2",
               "--history", str(history))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["time"] == 2
    history.write_text(_play_u0_history(3), encoding="utf-8")
    r = womctl("belief", "--scenario", INSTANCE_A, "--agent", "2",
               "--history", str(history))
    assert (r.returncode, r.stdout, r.stderr) == (
        2, "", "error: history has 3 prescription steps; the horizon allows "
        "at most 2\n")


# -- history-file fuzz: edits of a valid history, at JSON and at text level --

_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
              st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=6)
# text made of the characters that labels and realizations give a meaning to
_GRAMMAR = st.text(alphabet="yu0129@=,-ab \n\u0663", max_size=6)
_DOC_EDITS = st.lists(st.tuples(
    # most edits change the text of labels and realizations
    st.sampled_from(("replace", "drop", "add")
                    + ("insert", "cut", "repeat") * 3),
    st.integers(0, 1000), st.integers(0, 100), _JSON, _GRAMMAR), max_size=4)


def _slots(node, out):
    """Every (container, key) of a JSON document, in document order."""
    if isinstance(node, (dict, list)):
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            out.append((node, key))
            _slots(node[key], out)
    return out


def _edit_text(op, text, n, piece):
    n %= len(text) + 1
    if op == "insert":
        return text[:n] + piece + text[n:]
    if op == "cut":
        return text[:n]
    return text[:n] + piece[:1] * 5000 + text[n:]  # "repeat": long labels


def _edited_history(doc, edits):
    """``doc`` after the edits. A text edit changes the shared realization
    (even ``i``) or a key below the top level: an agent of a step or a
    realization of a table."""
    for op, i, n, value, piece in edits:
        slots = _slots(doc, [])
        if op in ("insert", "cut", "repeat"):
            keys = [(parent, key) for parent, key in slots
                    if isinstance(parent, dict) and parent is not doc]
            if i % 2 == 0 and isinstance(doc, dict) and isinstance(
                    doc.get("accessible"), str):
                doc["accessible"] = _edit_text(op, doc["accessible"], n, piece)
            elif keys:
                parent, key = keys[i // 2 % len(keys)]
                parent[_edit_text(op, key, n, piece)] = parent.pop(key)
        elif not slots:
            doc = value
        else:
            parent, key = slots[i % len(slots)]
            if op == "replace":
                parent[key] = value
            elif op == "drop":
                del parent[key]
            elif isinstance(parent, dict):
                parent[piece] = value
            else:
                parent.insert(key, value)
    return doc


@pytest.fixture(scope="module")
def history_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "history.json"


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.sampled_from((1, 2)), st.integers(0, 2), _DOC_EDITS,
       st.sampled_from(("whole",) * 4 + ("cut", "nest")),
       st.integers(0, 10 ** 4))
def test_edited_history_file_gives_a_belief_or_one_error_line(
        history_path, agent, steps, edits, shape, n):
    text = json.dumps(_edited_history(_play_u0_doc(steps, agent), edits))
    if shape == "cut":
        text = text[:n % (len(text) + 1)]
    elif shape == "nest":
        text = "[" * n + text + "]" * n
    history_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["belief", "--scenario", INSTANCE_A, "--agent",
                         str(agent), "--history", str(history_path)])
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["agent"] == agent
    else:
        assert code == 2 and out.getvalue() == ""
        first, *rest = err.getvalue().split("\n")
        assert first.startswith("error: ") and rest == [""], err.getvalue()


@pytest.mark.parametrize("row, key", [
    ("h 2 t=* zz v9 a", "(2, 0, 'zz', 'v9')"),
    ("h 2 t=* a v9 a", "(2, 0, 'a', 'v9')"),
], ids=["undeclared-state", "undeclared-sensor-noise"])
def test_validate_rejects_an_observation_row_outside_the_domain(
        tmp_path, row, key):
    with open(INSTANCE_A, encoding="utf-8") as fh:
        text = fh.read()
    bad = tmp_path / "bad.wom"
    bad.write_text(text.replace("h 2 t=* b v0 b\n", f"h 2 t=* b v0 b\n{row}\n"),
                   encoding="utf-8")
    r = womctl("validate", "--scenario", str(bad))
    assert (r.returncode, r.stdout, r.stderr) == (
        2, "", f"error: observation{key} lies outside the declared domain\n")


@pytest.mark.parametrize("args, env_cap, message", [
    (("verify", "--random", "-3"), None, "--random must be at least 0, got -3"),
    (("verify", "--random", "1", "--seed", "-1"), None,
     "--seed must be at least 0, got -1"),
    (("verify", "--random", "1", "--jobs", "0"), None,
     "--jobs must be at least 1, got 0"),
    (("verify", "--random", "1", "--jobs", "-1"), None,
     "--jobs must be at least 1, got -1"),
    (("verify", "--random", "1", "--cap", "-5"), None,
     "--cap must be at least 1, got -5"),
    (("solve", "--scenario", INSTANCE_A, "--method", "brute", "--cap", "0"),
     None, "--cap must be at least 1, got 0"),
    (("solve", "--scenario", INSTANCE_A, "--method", "brute"), "0",
     "WOMCTL_CAP must be at least 1, got 0"),
])
def test_numeric_options_out_of_range_are_input_errors(args, env_cap, message):
    env = {k: v for k, v in os.environ.items() if k != "WOMCTL_CAP"}
    if env_cap is not None:
        env["WOMCTL_CAP"] = env_cap
    r = subprocess.run([sys.executable, "-m", "womctl", *args],
                       capture_output=True, text=True, env=env)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


def test_solve_timings_add_only_a_seconds_field(tmp_path):
    f = tmp_path / "tiny.wom"
    f.write_text(TINY, encoding="utf-8")
    for method in ("brute", "common-info", "structural"):
        plain = womctl("solve", "--scenario", str(f), "--method", method)
        timed = womctl("solve", "--scenario", str(f), "--method", method,
                       "--timings")
        assert plain.returncode == timed.returncode == 0
        doc = json.loads(timed.stdout)
        assert doc.pop("seconds") >= 0.0
        assert doc == json.loads(plain.stdout)
        assert "seconds" not in plain.stdout


def test_compare_timings_fill_only_the_seconds_column(tmp_path):
    f = tmp_path / "tiny.wom"
    f.write_text(TINY, encoding="utf-8")
    plain = womctl("compare", "--scenario", str(f))
    timed = womctl("compare", "--scenario", str(f), "--timings")
    assert plain.returncode == timed.returncode == 0
    assert plain.stdout == (
        "method,value,candidates,seconds,match_brute\n"
        "brute,0.26,4,,yes\n"
        "common-info,0.26,4,,yes\n"
        "structural-k1,0.26,4,,yes\n")
    rows = [line.split(",") for line in timed.stdout.splitlines()]
    for row in rows[1:]:
        assert float(row[3]) >= 0.0
        row[3] = ""
    assert "\n".join(map(",".join, rows)) + "\n" == plain.stdout


def test_export_strategy_rejects_the_brute_method():
    r = womctl("export-strategy", "--scenario", INSTANCE_A, "--method", "brute")
    assert (r.returncode, r.stdout) == (2, "")
    assert "invalid choice: 'brute'" in r.stderr


# sha256 of the stdout of commands whose bytes a change to the solvers, the
# filters or the checks must keep. They run from the repository root, so the
# verify report names the scenario by the relative path given here.
PINNED_STDOUT = {
    ("compare", "--scenario", "src/womctl/data/instance_a.wom"):
        "26b0a42436c25ea8120eb845eb1755e48291ef26a74a3e16c545e57d2f760d73",
    ("verify", "--scenario", "src/womctl/data/instance_a.wom"):
        "6025aa9e9d772f9511a4aaefd58aa7764a53f170a41efe93a1ae070bc79f1a17",
    ("verify", "--random", "300", "--seed", "0"):
        "9c96635c77b8edcd59cadcfbf483bcf180436e67002114a4fc154981cabf7fbe",
    ("verify", "--random", "300", "--seed", "1"):
        "8274ef889f8194123b42d8a03b387ff94f25bb11802ebb47468910a91aa45bf6",
    ("verify", "--random", "300", "--seed", "2"):
        "388a822f00ee805deb3eca04f5b0784a966913b7fc94e7558762b98e667deb3b",
}


# sha256 of `womctl belief` stdout per (instance, agent, history), recorded
# before the belief tables were keyed by (x, values) tuples: the printed
# keys and probabilities must not move
ONE_STEP = {
    "instance_a.wom": {"accessible": "y1@0=a,y2@0=a", "prescriptions": [
        {"1": {"y1@0=a": "u0", "y1@0=b": "u1"},
         "2": {"y2@0=a": "u0", "y2@0=b": "u1"}}]},
    "instance_b.wom": {"accessible": "-", "prescriptions": [
        {"1": {"y1@0=a": "u0", "y1@0=b": "u1"},
         "2": {"y2@0=a": "u1", "y2@0=b": "u0"},
         "3": {"y3@0=a": "u0", "y3@0=b": "u1"}}]},
}
PINNED_BELIEF = {
    ("instance_a.wom", "2", "empty"):
        "45a76e2c8be85c0179696f0b04b78cebcdb3b1e1cd8ce24675fa87aac002aff3",
    ("instance_a.wom", "2", "one-step"):
        "b04dc7999622d280d916000220392aed01aefad2103daec23ab2f9b8ddf9d6c0",
    ("instance_b.wom", "3", "empty"):
        "4a27841afd19683f85b41aa8b4c6b4dc71c370639280edf840cfe996707e0b43",
    ("instance_b.wom", "3", "one-step"):
        "7a5c4d1c2292a93e95bd8b99d8dbb75db6bcd4059279ff185acbd79a5c0c21e7",
}


@pytest.mark.parametrize("key", PINNED_BELIEF, ids="-".join)
def test_belief_command_prints_the_recorded_bytes(key, tmp_path):
    name, agent, history = key
    path = tmp_path / "history.json"
    path.write_text(json.dumps(
        {"accessible": "-", "prescriptions": []} if history == "empty"
        else ONE_STEP[name]), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["belief", "--scenario", fixture_path(name),
                         "--agent", agent, "--history", str(path)])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == \
        PINNED_BELIEF[key]


@pytest.mark.parametrize("argv", PINNED_STDOUT, ids=" ".join)
def test_pinned_commands_print_the_recorded_bytes(argv, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == \
        PINNED_STDOUT[argv]


def _two_stages_costing(cost: str, init: str = "0.3") -> str:
    """TINY over two stages with every cost row at ``cost``, and ``init`` the
    probability of state a (b keeps 0.7)."""
    head = TINY[:TINY.index("[cost]")].replace("T 0", "T 1")
    head = head.replace("init a 0.3", f"init a {init}")
    return head + "[cost]\n" + "".join(
        f"c t=* {x} {u} {cost}\n" for x in "ab" for u in ("u0", "u1"))


# every row finite, but: two stages of 1e308 overflow a float; two of half
# the float range sum to the largest float, and with the initial
# distribution 5e-13 above 1 (within the loader's tolerance) the expected
# cost overflows
COSTLY = {"1e308": ("1e308", "0.3"),
          "half-range": (repr(sys.float_info.max / 2), "0.3000000000005")}


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["solve", "--method", "brute"],
    ["solve", "--method", "structural", "--agent", "1"],
    ["solve", "--method", "common-info"],
    ["compare"],
    ["verify"],
    ["export-strategy", "--method", "common-info"],
    ["export-strategy", "--method", "structural", "--agent", "1"],
], ids=" ".join)
@pytest.mark.parametrize("costly", COSTLY)
def test_a_cost_table_whose_total_can_overflow_is_an_input_error(argv, costly,
                                                                 tmp_path):
    path = tmp_path / "costly.wom"
    path.write_text(_two_stages_costing(*COSTLY[costly]), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--scenario", str(path)])
    assert code == 2 and out.getvalue() == ""
    first, *rest = err.getvalue().split("\n")
    assert first.startswith("error: table 'cost'") and rest == [""]


def test_a_cost_table_whose_total_fits_still_solves(tmp_path):
    path = tmp_path / "costly.wom"
    path.write_text(_two_stages_costing("1e307"), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", "--method", "brute", "--scenario", str(path)])
    assert code == 0
    assert json.loads(out.getvalue())["value"] == pytest.approx(2e307)


@pytest.mark.parametrize("exponent", [3, 6, 9, 12])
def test_costs_are_compared_relative_to_their_bound(exponent, tmp_path):
    # instance_a with every cost scaled up: the solvers still agree to the
    # last few bits, which absolute tolerances would call a failure
    head, rows = Path(INSTANCE_A).read_text(encoding="utf-8").split("[cost]")
    scaled = []
    for row in rows.splitlines():
        if row.startswith("c "):
            *key, cost = row.split()
            row = " ".join(key + [repr(float(cost) * 10 ** exponent)])
        scaled.append(row)
    path = tmp_path / "scaled.wom"
    path.write_text(head + "[cost]" + "\n".join(scaled) + "\n",
                    encoding="utf-8")
    for argv in (["verify"], ["compare"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--scenario", str(path)])
        assert code == 0, out.getvalue()
    rows = out.getvalue().strip().splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",yes") for row in rows)
