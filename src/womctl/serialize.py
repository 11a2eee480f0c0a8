"""Stable text encodings for labels, realizations, strategies, and reports.

All command-line output flows through here: keys are sorted, floats carry 12
significant digits, and label strings follow ``y<agent>@<time>`` /
``u<agent>@<time>``. Identical inputs therefore serialize byte-identically.
"""

from __future__ import annotations

import json
import re

from .errors import WomctlError
from .infostruct import (
    InfoSet,
    Kind,
    Realization,
    VarLabel,
    act,
    label_space,
    obs,
)
from .prescription import (
    CompletePrescription,
    FullStrategy,
    PrescriptionFunction,
    full_table,
    prescription_domain,
)
from .scenario import Policy, Scenario
from .topology import DelayMatrix
from .belief import BeliefState, sufficient_info_labels

_LABEL_RE = re.compile(r"^([yu])([0-9]+)@([0-9]+)$")


def parse_label(text: str) -> VarLabel:
    m = _LABEL_RE.match(text.strip())
    if m:
        try:
            agent, time = int(m.group(2)), int(m.group(3))
        except ValueError:  # more digits than int() converts
            m = None
    if not m:
        raise WomctlError(f"bad label {text!r}; expected y<agent>@<t> or u<agent>@<t>")
    return (obs if m.group(1) == "y" else act)(agent, time)


def label_obj(l: VarLabel) -> dict:
    return {"agent": l.agent, "time": l.time,
            "kind": "obs" if l.kind == Kind.OBS else "act"}


def infoset_json(info: InfoSet) -> list[dict]:
    return [label_obj(l) for l in info]


def parse_realization(text: str) -> Realization:
    text = text.strip()
    if text in ("", "-"):
        return Realization(())
    items = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise WomctlError(f"bad realization component {piece!r}")
        lbl, val = piece.split("=", 1)
        # values are scenario tokens: printable and free of whitespace
        if val.split() != [val] or not val.isprintable():
            raise WomctlError(f"bad value {val!r} in realization component "
                              f"{piece!r}")
        label = parse_label(lbl)
        if label in items:
            raise WomctlError(f"label {label} given twice")
        items[label] = val
    return Realization.of(items)


def round12(x):
    """Limit floats to 12 significant digits, recursively."""
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [round12(v) for v in x]
    return x


def dump_json(obj) -> str:
    return json.dumps(round12(obj), sort_keys=True, indent=2) + "\n"


def policy_json(g: Policy) -> dict:
    out = {}
    for (k, t), table in sorted(g.tables.items()):
        out[f"agent{k}@t{t}"] = {str(m): u
                                 for m, u in sorted(table.items(),
                                                    key=lambda e: e[0].items)}
    return out


def strategy_json(s: Scenario, psi: FullStrategy) -> dict:
    """Strategy as nested maps: target/time -> conditioning -> domain -> action."""
    parts = {}
    for (j, t), rows in sorted(psi.parts.items()):
        entry = {}
        for cond, gamma in sorted(rows.items(), key=lambda e: e[0].items):
            entry[str(cond)] = {
                str(l): u
                for l, u in sorted(full_table(s, gamma).items(),
                                   key=lambda e: e[0].items)}
        parts[f"target{j}@t{t}"] = entry
    return {"owner": psi.owner, "agents": psi.agent_count,
            "horizon": psi.horizon, "parts": parts}


def belief_json(d: DelayMatrix, b: BeliefState) -> dict:
    """A belief's table, each state printed as ``x=a,y1@0=a,...``."""
    labels = sufficient_info_labels(d, b.owner, b.time)
    return {"agent": b.owner, "time": b.time, "belief": {
        ",".join([f"x={x}", *[f"{l}={v}" for l, v in zip(labels, values)]]): p
        for (x, values), p in b.support()}}


def parse_prescriptions(s: Scenario, d: DelayMatrix, k: int,
                        payload: list) -> tuple[CompletePrescription, ...]:
    """Complete prescriptions from history-file JSON: one dict per time step,
    mapping target agent to a {domain realization: action} table. A history
    conditions at t = its step count, so it holds at most T steps."""
    if not isinstance(payload, list):
        raise WomctlError("history 'prescriptions' must be a list of steps")
    if len(payload) > s.horizon:
        raise WomctlError(f"history has {len(payload)} prescription steps; "
                          f"the horizon allows at most {s.horizon}")
    agents = [str(j) for j in s.agents()]
    out = []
    for t, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise WomctlError(f"history step {t} must map agents to tables")
        for key in entry:
            if key not in agents:
                raise WomctlError(f"history step {t}: {key!r} is not an agent "
                                  f"in 1..{s.agent_count}")
        parts = []
        for j in s.agents():
            table_in = entry.get(str(j))
            if not isinstance(table_in, dict):
                raise WomctlError(f"history step {t} has no table for agent {j}")
            dom = prescription_domain(d, k, j, t)
            table = {}
            for key, u in table_in.items():
                r = parse_realization(key)
                if r.domain != dom:
                    raise WomctlError(
                        f"history step {t}, agent {j}: realization {key!r} "
                        f"does not match the required domain")
                for l, v in r.items:
                    if v not in label_space(s, l).values:
                        raise WomctlError(
                            f"history step {t}, agent {j}: realization "
                            f"{key!r} gives {l} the value {v!r}, outside "
                            f"its space")
                if u not in s.action_space(j, t).values:
                    raise WomctlError(f"unknown action {u!r} for agent {j}")
                if r in table:
                    raise WomctlError(f"history step {t}, agent {j}: realization "
                                      f"{key!r} repeats an earlier key")
                table[r] = u
            parts.append(PrescriptionFunction(owner=k, target=j, time=t,
                                              domain=dom, table=table))
        out.append(CompletePrescription(owner=k, time=t, parts=tuple(parts)))
    return tuple(out)
