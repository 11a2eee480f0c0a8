"""Command-line entry point.

Subcommands: validate, verify, infostruct, belief, solve, compare,
export-strategy. Exit codes: 0 success, 1 verification failures, 2 usage or
input errors, 3 enumeration cap exceeded. All output is deterministic for
fixed inputs, seed, and caps; verify output does not depend on --jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .belief import belief_from_scratch
from .errors import EnumerationCapExceeded, WomctlError
from .infostruct import DEFAULT_ENUM_CAP, accessible_labels, inaccessible_labels, memory_labels, new_info_labels
from .scenario_io import load_scenario
from .serialize import (
    belief_json,
    dump_json,
    infoset_json,
    parse_prescriptions,
    parse_realization,
    policy_json,
    strategy_json,
)
from .solver import (
    DEFAULT_POLICY_CAP,
    SolveResult,
    brute_force_optimal,
    common_info_dp,
    structural_search,
)
from .topology import min_delay_matrix
from .verify import run_verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _at_least(name: str, value: int, low: int) -> int:
    """``value``, or an input error when it lies below ``low``."""
    if value < low:
        raise WomctlError(f"{name} must be at least {low}, got {value}")
    return value


def _caps(args) -> tuple[int, int]:
    cap, source = args.cap, "--cap"
    if cap is None:
        env = os.environ.get("WOMCTL_CAP")
        if env is None:
            return DEFAULT_ENUM_CAP, DEFAULT_POLICY_CAP
        try:
            cap, source = int(env), "WOMCTL_CAP"
        except ValueError:
            raise WomctlError(f"WOMCTL_CAP={env!r} is not an integer")
    _at_least(source, cap, 1)
    return cap, cap


def _load(args):
    """The scenario named by ``--scenario`` and its delay matrix; an
    ``--agent``, where the subcommand takes one, must name one of its agents."""
    topo, s = load_scenario(args.scenario)
    k = getattr(args, "agent", None)
    if k is not None and not 1 <= k <= s.agent_count:
        raise WomctlError(f"--agent must lie in 1..{s.agent_count}")
    return s, min_delay_matrix(topo)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    topo, s = load_scenario(args.scenario)
    sys.stdout.write(
        f"ok: {s.agent_count} agents, horizon {s.horizon}, "
        f"{len(topo.links)} links\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    assign_cap, policy_cap = _caps(args)
    random_n = _at_least("--random", args.random, 0)
    if args.scenario is None and random_n == 0:
        random_n = 20
    report = run_verify(args.scenario, random_n,
                        _at_least("--seed", args.seed, 0),
                        policy_cap=policy_cap, assign_cap=assign_cap,
                        jobs=_at_least("--jobs", args.jobs, 1))
    _emit(args, dump_json(report))
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_infostruct(args) -> int:
    s, d = _load(args)
    t = args.t
    if not 0 <= t <= s.horizon:
        raise WomctlError(f"--t must lie in 0..{s.horizon}")
    agents = []
    for k in s.agents():
        agents.append({
            "agent": k,
            "memory": infoset_json(memory_labels(d, k, t)),
            "accessible": infoset_json(accessible_labels(d, k, t)),
            "new": infoset_json(new_info_labels(d, k, t)),
            "inaccessible": {
                str(j): infoset_json(inaccessible_labels(d, k, j, t))
                for j in range(k, s.agent_count + 1)
            },
        })
    _emit(args, dump_json({"time": t, "agents": agents}))
    return EXIT_OK


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object that gives no key twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise WomctlError(f"history file gives the key {key!r} twice")
        out[key] = value
    return out


def cmd_belief(args) -> int:
    s, d = _load(args)
    k = args.agent
    with open(args.history, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as e:
            raise WomctlError(f"history file is not valid JSON: {e}") from None
        except RecursionError:
            raise WomctlError("history file nests too deeply") from None
    if not isinstance(payload, dict):
        raise WomctlError("history file must hold a JSON object with "
                          "'accessible' and 'prescriptions'")
    unknown = sorted(set(payload) - {"accessible", "prescriptions"})
    if unknown:
        raise WomctlError(f"history file has unknown key {unknown[0]!r}; "
                          "expected 'accessible' and 'prescriptions'")
    thetas = parse_prescriptions(s, d, k, payload.get("prescriptions", []))
    accessible = payload.get("accessible", "-")
    if not isinstance(accessible, str):
        raise WomctlError("history 'accessible' must be a realization string")
    a = parse_realization(accessible)
    assign_cap, _ = _caps(args)
    pi = belief_from_scratch(s, d, k, a, thetas, assign_cap)
    _emit(args, dump_json(belief_json(d, pi)))
    return EXIT_OK


def _solve_one(method: str, s, d, agent: int, policy_cap: int,
               assign_cap: int) -> SolveResult:
    if method == "brute":
        return brute_force_optimal(s, d, policy_cap, assign_cap)
    if method == "common-info":
        return common_info_dp(s, d, policy_cap, assign_cap)
    return structural_search(s, d, agent, policy_cap, assign_cap)


def cmd_solve(args) -> int:
    s, d = _load(args)
    assign_cap, policy_cap = _caps(args)
    start = time.perf_counter()
    res = _solve_one(args.method, s, d, args.agent, policy_cap, assign_cap)
    seconds = time.perf_counter() - start
    payload = {
        "method": res.method,
        "agent": res.agent,
        "value": res.value,
        "candidates": res.candidates,
        "argmin": (policy_json(res.argmin) if res.method == "brute"
                   else strategy_json(s, res.argmin)),
    }
    if args.timings:
        payload["seconds"] = seconds
    _emit(args, dump_json(payload))
    return EXIT_OK


def cmd_compare(args) -> int:
    s, d = _load(args)
    assign_cap, policy_cap = _caps(args)
    results = []
    for method in ("brute", "common-info", "structural"):
        start = time.perf_counter()
        res = _solve_one(method, s, d, args.agent, policy_cap, assign_cap)
        results.append((res, time.perf_counter() - start))
    brute_value = results[0][0].value
    tol = 1e-9 * max(1.0, s.cost_bound)
    lines = ["method,value,candidates,seconds,match_brute"]
    for res, elapsed in results:
        name = res.method if res.agent is None else f"{res.method}-k{res.agent}"
        seconds = f"{elapsed:.3f}" if args.timings else ""
        match = "yes" if abs(res.value - brute_value) <= tol else "no"
        lines.append(f"{name},{res.value:.12g},{res.candidates},{seconds},{match}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_export_strategy(args) -> int:
    s, d = _load(args)
    assign_cap, policy_cap = _caps(args)
    res = _solve_one(args.method, s, d, args.agent, policy_cap, assign_cap)
    _emit(args, dump_json({
        "method": res.method,
        "agent": res.agent,
        "value": res.value,
        "strategy": strategy_json(s, res.argmin),
    }))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="womctl",
        description="Decentralized control workbench for word-of-mouth "
                    "information sharing over delay networks.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scenario=True):
        if scenario:
            sp.add_argument("--scenario", required=True,
                            help="path to a scenario file")
        sp.add_argument("--cap", type=int, default=None,
                        help="override both enumeration caps "
                             "(default 1e7 assignments, 1e6 candidates)")
        sp.add_argument("--out", default=None, help="write output to a file")

    sp = sub.add_parser("validate", help="check a scenario file")
    sp.add_argument("--scenario", required=True)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--scenario", default=None,
                    help="path to a scenario file to check; with neither "
                         "it nor --random, 20 random instances run")
    common(sp, scenario=False)
    sp.add_argument("--random", type=int, default=0,
                    help="number of seeded random instances")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("infostruct", help="print the information sets at t")
    common(sp)
    sp.add_argument("--t", type=int, required=True)
    sp.set_defaults(fn=cmd_infostruct)

    sp = sub.add_parser("belief", help="condition a belief on a history file")
    common(sp)
    sp.add_argument("--agent", type=int, required=True)
    sp.add_argument("--history", required=True,
                    help="JSON file with 'accessible' and 'prescriptions'")
    sp.set_defaults(fn=cmd_belief)

    sp = sub.add_parser("solve", help="solve with one method")
    common(sp)
    sp.add_argument("--method", required=True,
                    choices=["brute", "common-info", "structural"])
    sp.add_argument("--agent", type=int, default=1,
                    help="reference agent for the structural method")
    sp.add_argument("--timings", action="store_true",
                    help="include wall time (breaks byte-determinism)")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("compare", help="run all methods and emit CSV")
    common(sp)
    sp.add_argument("--agent", type=int, default=1)
    sp.add_argument("--timings", action="store_true")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("export-strategy", help="solve and export the strategy")
    common(sp)
    sp.add_argument("--method", default="common-info",
                    choices=["common-info", "structural"])
    sp.add_argument("--agent", type=int, default=1)
    sp.set_defaults(fn=cmd_export_strategy)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except EnumerationCapExceeded as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CAP
    except WomctlError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
