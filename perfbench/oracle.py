"""Correctness oracle: every operation's output against the reference
recorded by ``record_reference.py``.

* ``compare``/``solve``: stdout must be byte-identical (sha256) to the
  reference, and every ``match_brute`` column of ``compare`` must read
  ``yes``.
* ``verify``: the report must say ``passed: true`` and list the same
  ``(name, instances, passed)`` per check as the reference. Raw bytes are not
  compared: the report embeds the scenario path, and ``worst_deviation`` sits
  at rounding-noise level.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from workloads import verify_seed

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_checks(stdout: str) -> list[list]:
    """``[name, instances, passed]`` per check of a verify report."""
    report = json.loads(stdout)
    return [[c["name"], c["instances"], c["passed"]] for c in report["checks"]]


def expected_checks(reference: dict, workload: str, seed: int) -> list[list]:
    ref = reference[workload]
    if workload == "verify-random":
        counts = ref["instances"][str(verify_seed(seed))]
        return [[name, n, True] for name, n in zip(ref["names"], counts)]
    return ref["checks"]


def problems(reference: dict, workload: str, seed: int, exit_code: int,
             stdout: str) -> list[str]:
    """Why one operation's result is wrong; empty when it is right."""
    out = []
    if exit_code != 0:
        out.append(f"exit code {exit_code}")
    if workload in ("compare-a", "ci-b"):
        want = reference[workload]["stdout_sha256"]
        got = sha256(stdout)
        if got != want:
            out.append(f"stdout sha256 {got[:16]} differs from reference {want[:16]}")
        if workload == "compare-a":
            for row in csv.DictReader(io.StringIO(stdout)):
                if row.get("match_brute") != "yes":
                    out.append(f"{row.get('method')}: match_brute is "
                               f"{row.get('match_brute')!r}")
        return out
    try:
        passed = json.loads(stdout).get("passed")
        got = verify_checks(stdout)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return out + [f"unreadable verify report: {e!r}"]
    if passed is not True:
        out.append("verify report has passed != true")
    want = expected_checks(reference, workload, seed)
    if len(got) != len(want):
        out.append(f"{len(got)} checks, reference has {len(want)}")
    for g, w in zip(got, want):
        if g != w:
            out.append(f"check {g[0]}: (name, instances, passed) = {tuple(g)}, "
                       f"reference {tuple(w)}")
    return out
