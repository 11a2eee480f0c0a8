"""The package's record types: every one pickles to an equal object, hashes
as the tuple of its fields (or not at all when it holds a table), refuses
assignment unless it is a running tally, and shares no container with
another record; the checked records reject bad fields however they are
built."""

import pickle
import re

import pytest

from womctl.belief import belief_prescriptions
from womctl.errors import WomctlError
from womctl.fixtures import fixture_path
from womctl.infostruct import (
    InfoSet,
    enumerate_realizations,
    memory_labels,
    obs,
)
from womctl.prescription import CompletePrescription
from womctl.randgen import random_strategy, random_total_policy, sub_rng
from womctl.scenario import (
    FiniteSpace,
    Policy,
    Scenario,
    enumerate_primitives,
    propagate,
)
from womctl.solver import DomainReport, common_info_dp, domain_comparison
from womctl.topology import information_paths
from womctl.verify import CheckResult, HistoryNode, build_inputs, history_tree


@pytest.fixture(scope="module")
def records(inst_a):
    """One record of every type, built from instance_a, by type name."""
    topo, s, d = inst_a
    prim = next(iter(enumerate_primitives(s)))
    g = random_total_policy(sub_rng(7, 0), s, d)
    roots, _nodes = history_tree(s, d, 2)
    theta = next(iter(belief_prescriptions(s, d, roots[0].belief)))
    report = domain_comparison(s, d)
    tally = CheckResult("name", "description")
    tally.see(0.5, {"witness": 1})
    case = next(c for c in build_inputs(fixture_path("instance_a.wom"), 0, 0)
                if c.scenario)
    built = (topo.links[0], topo, information_paths(topo, 1, d)[2], d,
             obs(1, 0), memory_labels(d, 2, 1),
             enumerate_realizations(s, memory_labels(d, 2, 1))[-1],
             s.state_space, s.init_dist, s, prim, propagate(s, d, prim, g), g,
             theta.parts[0], theta, random_strategy(sub_rng(7, 1), s, d, 2),
             common_info_dp(s, d), report.rows[0], report, roots[0].belief,
             roots[0], tally, case)
    return {type(r).__name__: r for r in built}


RECORDS = ["Link", "Topology", "InfoPath", "DelayMatrix", "VarLabel",
           "InfoSet", "Realization", "FiniteSpace", "Distribution",
           "Scenario", "PrimitiveAssignment", "Trajectory", "Policy",
           "PrescriptionFunction", "CompletePrescription", "FullStrategy",
           "SolveResult", "DomainRow", "DomainReport", "BeliefState",
           "HistoryNode", "CheckResult", "Case"]

# records holding a table, directly or through a field
UNHASHABLE = {"Distribution", "Scenario", "Policy", "PrescriptionFunction",
              "CompletePrescription", "FullStrategy", "SolveResult",
              "DomainReport", "BeliefState", "HistoryNode", "Case"}

# a running tally: compared and hashed by identity, and assigned to in place
TALLY = "CheckResult"


def _field_names(r) -> tuple[str, ...]:
    return getattr(r, "_fields", None) or type(r).__slots__


def _fields(r) -> tuple:
    return tuple(getattr(r, name) for name in _field_names(r))


def test_every_record_type_is_built(records):
    assert sorted(records) == sorted(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_pickles_to_an_equal_record(records, name):
    r = records[name]
    back = pickle.loads(pickle.dumps(r))
    assert type(back) is type(r)
    assert _fields(back) == _fields(r)
    if name != TALLY:
        assert back == r


@pytest.mark.parametrize("name", [n for n in RECORDS if n != TALLY])
def test_a_record_hashes_as_its_fields_or_not_at_all(records, name):
    r = records[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(_fields(r))


@pytest.mark.parametrize("name", [n for n in RECORDS if n != TALLY])
def test_a_record_refuses_assignment(records, name):
    r = records[name]
    field = _field_names(r)[0]
    with pytest.raises(AttributeError):
        setattr(r, field, getattr(r, field))
    with pytest.raises(AttributeError):
        delattr(r, field)


@pytest.mark.parametrize("name", [n for n in RECORDS
                                  if n not in ("InfoSet", TALLY)])
def test_no_record_field_defaults_to_a_container(records, name):
    defaults = type(records[name])._field_defaults
    assert not [v for v in defaults.values()
                if isinstance(v, (list, dict, set))]


def test_default_built_records_share_no_container():
    assert Policy(1, 0).tables is not Policy(1, 0).tables
    # the other containers have no default: each caller passes its own
    for cls, given in ((Scenario, 13), (DomainReport, 0), (HistoryNode, 6)):
        with pytest.raises(TypeError):
            cls(*range(given))


def test_iterating_an_infoset_yields_its_labels(records):
    info = records["InfoSet"]
    assert list(info) == list(info.labels) and len(info) == len(info.labels)
    assert all(l in info for l in info.labels)
    assert info == InfoSet.of(reversed(info.labels)) != info.labels


# -- checked records ------------------------------------------------------------

def _raises(message: str):
    return pytest.raises(WomctlError, match="^" + re.escape(message) + "$")


@pytest.mark.parametrize("values, message", [
    ((), "space 'x' is empty"),
    (("a", "b", "a"), "space 'x' has duplicate values"),
])
def test_a_bad_space_is_rejected_however_it_is_built(values, message):
    with _raises(message):
        FiniteSpace("x", values)
    with _raises(message):
        FiniteSpace._make(("x", values))
    with _raises(message):
        FiniteSpace("x", ("a", "b"))._replace(values=values)
    unchecked = tuple.__new__(FiniteSpace, ("x", values))
    with _raises(message):
        pickle.loads(pickle.dumps(unchecked))


def test_a_prescription_part_for_another_target_is_rejected(records):
    theta = records["CompletePrescription"]
    swapped = theta.parts[::-1]
    message = "part 1 of a complete prescription targets agent 2"
    with _raises(message):
        CompletePrescription(theta.owner, theta.time, swapped)
    with _raises(message):
        CompletePrescription._make((theta.owner, theta.time, swapped))
    with _raises(message):
        theta._replace(parts=swapped)
    unchecked = tuple.__new__(CompletePrescription,
                              (theta.owner, theta.time, swapped))
    with _raises(message):
        pickle.loads(pickle.dumps(unchecked))
