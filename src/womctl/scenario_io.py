"""Loader for the sectioned plain-text scenario format.

The format is line-oriented: ``[section]`` headers, ``#`` comments, and
whitespace-separated rows whose first token names the entry kind. Table rows
accept ``t=<n>`` for one time step or ``t=*`` for every step of the horizon.
The full grammar is documented in the repository README.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ParseError, WomctlError
from .scenario import Distribution, FiniteSpace, Scenario
from .topology import Topology, validate_topology

_SECTIONS = {
    "agents", "links", "spaces", "horizon", "init",
    "noise", "transition", "observation", "cost",
}
_ROW_KEYS = {
    "agents": {"count"},
    "links": {"link"},
    "spaces": {"state", "action", "obs", "wnoise", "vnoise"},
    "horizon": {"T"},
    "init": {"init"},
    "noise": {"w", "v"},
    "transition": {"f"},
    "observation": {"h"},
    "cost": {"c"},
}


def _rows(text: str):
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ParseError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ParseError("row outside of any section", lineno)
        tokens = line.split()
        if tokens[0] not in _ROW_KEYS[section]:
            raise ParseError(
                f"unknown key {tokens[0]!r} in section [{section}]", lineno)
        yield lineno, section, tokens


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what}: expected an integer, got {tok!r}", lineno) from None


def _float(tok: str, lineno: int, what: str) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise ParseError(f"{what}: expected a number, got {tok!r}", lineno) from None
    if not math.isfinite(x):
        raise ParseError(f"{what}: expected a finite number, got {tok!r}", lineno)
    return x


def _agent(tok: str, lineno: int, K: int) -> int:
    k = _int(tok, lineno, "agent")
    if not 1 <= k <= K:
        raise ParseError(f"agent {k} out of range 1..{K}", lineno)
    return k


def _times(tok: str, lineno: int, horizon: int) -> list[int]:
    if not tok.startswith("t="):
        raise ParseError(f"expected t=<n> or t=*, got {tok!r}", lineno)
    when = tok[2:]
    if when == "*":
        return list(range(horizon + 1))
    t = _int(when, lineno, "time index")
    if not 0 <= t <= horizon:
        raise ParseError(f"time {t} outside horizon 0..{horizon}", lineno)
    return [t]


def loads_scenario(text: str) -> tuple[Topology, Scenario]:
    """Parse a scenario document; returns the validated topology and model."""
    rows = list(_rows(text))

    def section(name: str):
        return [(ln, toks) for ln, sec, toks in rows if sec == name]

    def single_int(name: str, key: str, what: str) -> tuple[int, int]:
        # the one '<key> <integer>' row of a section, and its line
        found = section(name)
        if len(found) != 1:
            raise ParseError(
                f"section [{name}] must contain exactly one '{key}' row")
        ln, toks = found[0]
        if len(toks) != 2:
            raise ParseError(f"{key} rows are: {key} <{what}>", ln)
        return _int(toks[1], ln, what), ln

    # agents / horizon first: later sections need K and T
    K, ln = single_int("agents", "count", "agent count")
    if K < 1:
        raise ParseError("agent count must be >= 1", ln)
    T, ln = single_int("horizon", "T", "horizon")
    if T < 0:
        raise ParseError("horizon must be >= 0", ln)

    links = []
    for ln, toks in section("links"):
        if len(toks) != 4:
            raise ParseError("link rows are: link <from> <to> <delay>", ln)
        links.append((_int(toks[1], ln, "from"), _int(toks[2], ln, "to"),
                      _int(toks[3], ln, "delay")))
    topology = Topology.of(K, links)

    state_space = None
    w_space = None
    action_spaces: dict[int, FiniteSpace] = {}
    action_overrides: dict[tuple[int, int], FiniteSpace] = {}
    obs_spaces: dict[int, FiniteSpace] = {}
    v_spaces: dict[int, FiniteSpace] = {}
    for ln, toks in section("spaces"):
        kind = toks[0]
        if kind in ("state", "wnoise"):
            vals = tuple(toks[1:])
            if not vals:
                raise ParseError(f"{kind} space needs at least one value", ln)
            space = FiniteSpace("x" if kind == "state" else "w", vals)
            if kind == "state":
                if state_space is not None:
                    raise ParseError("state space declared twice", ln)
                state_space = space
            else:
                if w_space is not None:
                    raise ParseError("wnoise space declared twice", ln)
                w_space = space
        else:
            if len(toks) < 2:
                raise ParseError(f"{kind} rows are: {kind} <agent> <values>", ln)
            k = _agent(toks[1], ln, K)
            rest = toks[2:]
            if kind == "action" and rest and rest[0].startswith("t="):
                # per-step override of the otherwise time-invariant set
                if rest[0] == "t=*":
                    raise ParseError(
                        "per-time action rows need a concrete t", ln)
                (t,) = _times(rest[0], ln, T)
                vals = tuple(rest[1:])
                if not vals:
                    raise ParseError("action space needs at least one value", ln)
                if (k, t) in action_overrides:
                    raise ParseError(
                        f"action space for agent {k}, t={t} declared twice", ln)
                action_overrides[(k, t)] = FiniteSpace(f"action{k}@{t}", vals)
                continue
            vals = tuple(rest)
            if not vals:
                raise ParseError(f"{kind} space needs at least one value", ln)
            target = {"action": action_spaces, "obs": obs_spaces,
                      "vnoise": v_spaces}[kind]
            if k in target:
                raise ParseError(f"{kind} space for agent {k} declared twice", ln)
            target[k] = FiniteSpace(f"{kind}{k}", vals)
    if state_space is None:
        raise ParseError("missing state space")
    if w_space is None:
        raise ParseError("missing wnoise space")
    for k in range(1, K + 1):
        for name, spaces in (("action", action_spaces), ("obs", obs_spaces),
                             ("vnoise", v_spaces)):
            if k not in spaces:
                raise ParseError(f"missing {name} space for agent {k}")

    init_probs: dict[str, float] = {}
    for ln, toks in section("init"):
        if len(toks) != 3:
            raise ParseError("init rows are: init <state> <prob>", ln)
        if toks[1] in init_probs:
            raise ParseError(f"duplicate init row for {toks[1]!r}", ln)
        init_probs[toks[1]] = _float(toks[2], ln, "probability")
    init_dist = Distribution(state_space, init_probs)

    w_probs: dict[int, dict[str, float]] = {t: {} for t in range(T + 1)}
    v_probs: dict[tuple[int, int], dict[str, float]] = {
        (k, t): {} for k in range(1, K + 1) for t in range(T + 1)}
    for ln, toks in section("noise"):
        if toks[0] == "w":
            if len(toks) != 4:
                raise ParseError("w rows are: w t=<t> <value> <prob>", ln)
            for t in _times(toks[1], ln, T):
                if toks[2] in w_probs[t]:
                    raise ParseError(f"duplicate w row for t={t}, {toks[2]!r}", ln)
                w_probs[t][toks[2]] = _float(toks[3], ln, "probability")
        else:
            if len(toks) != 5:
                raise ParseError("v rows are: v <agent> t=<t> <value> <prob>", ln)
            k = _agent(toks[1], ln, K)
            for t in _times(toks[2], ln, T):
                if toks[3] in v_probs[(k, t)]:
                    raise ParseError(
                        f"duplicate v row for agent {k}, t={t}, {toks[3]!r}", ln)
                v_probs[(k, t)][toks[3]] = _float(toks[4], ln, "probability")
    w_dists = {t: Distribution(w_space, w_probs[t]) for t in range(T + 1)}
    v_dists = {(k, t): Distribution(v_spaces[k], v_probs[(k, t)])
               for k in range(1, K + 1) for t in range(T + 1)}

    transition: dict[tuple, str] = {}
    for ln, toks in section("transition"):
        if len(toks) != K + 5:
            raise ParseError(
                f"f rows are: f t=<t> <x> <u1..u{K}> <w> <x'>", ln)
        x, us, w, x2 = toks[2], tuple(toks[3:3 + K]), toks[3 + K], toks[4 + K]
        for t in _times(toks[1], ln, T):
            key = (t, x, us, w)
            if key in transition:
                raise ParseError(f"duplicate transition row for {key}", ln)
            transition[key] = x2

    observation: dict[tuple, str] = {}
    for ln, toks in section("observation"):
        if len(toks) != 6:
            raise ParseError("h rows are: h <agent> t=<t> <x> <v> <y>", ln)
        k = _agent(toks[1], ln, K)
        x, v, y = toks[3], toks[4], toks[5]
        for t in _times(toks[2], ln, T):
            key = (k, t, x, v)
            if key in observation:
                raise ParseError(f"duplicate observation row for {key}", ln)
            observation[key] = y

    cost: dict[tuple, float] = {}
    for ln, toks in section("cost"):
        if len(toks) != K + 4:
            raise ParseError(f"c rows are: c t=<t> <x> <u1..u{K}> <value>", ln)
        x, us = toks[2], tuple(toks[3:3 + K])
        value = _float(toks[3 + K], ln, "cost")
        for t in _times(toks[1], ln, T):
            key = (t, x, us)
            if key in cost:
                raise ParseError(f"duplicate cost row for {key}", ln)
            cost[key] = value

    scenario = Scenario(
        agent_count=K,
        horizon=T,
        state_space=state_space,
        action_spaces=action_spaces,
        obs_spaces=obs_spaces,
        w_space=w_space,
        v_spaces=v_spaces,
        transition=transition,
        observation=observation,
        cost=cost,
        init_dist=init_dist,
        w_dists=w_dists,
        v_dists=v_dists,
        action_overrides=action_overrides,
    )
    validate_topology(topology)
    scenario.validate()
    return topology, scenario


def load_scenario(path: str | Path) -> tuple[Topology, Scenario]:
    """Load and validate a scenario file from disk."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise WomctlError(f"cannot read {p}: {e}") from None
    except UnicodeDecodeError as e:
        raise WomctlError(f"{p} is not UTF-8 text: {e}") from None
    return loads_scenario(text)
