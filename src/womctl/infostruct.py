"""Information-structure algebra over typed variable labels.

Every piece of information in the system is identified by a label: agent j's
observation at time tau, or its action at time tau. What an agent knows at a
given time is a finite set of such labels, and the shared/private splits used
by prescriptions are plain set algebra on them. Two agents "share" a variable
when both hold its label; values never enter these computations.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import IntEnum
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import DomainMismatch, NotBeyond, check_cap
from .topology import DelayMatrix

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

DEFAULT_ENUM_CAP = 10_000_000


class Kind(IntEnum):
    OBS = 0
    ACT = 1


class VarLabel(namedtuple("VarLabel", "agent time kind")):
    """One random variable of the system: agent + time + observation/action
    (a ``Kind``)."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{'y' if self.kind == Kind.OBS else 'u'}{self.agent}@{self.time}"


# Labels are flyweights: obs/act hand out one shared object per label, and
# nothing else in the package constructs a VarLabel.
@lru_cache(maxsize=None)
def obs(agent: int, time: int) -> VarLabel:
    return VarLabel(agent, time, Kind.OBS)


@lru_cache(maxsize=None)
def act(agent: int, time: int) -> VarLabel:
    return VarLabel(agent, time, Kind.ACT)


class InfoSet:
    """An immutable set of labels with a canonical (agent, time, kind) order;
    not a tuple, as iterating it yields its labels."""

    __slots__ = ("labels",)

    def __init__(self, labels: tuple[VarLabel, ...]):
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return InfoSet, (self.labels,)

    def __eq__(self, other):
        if other.__class__ is InfoSet:
            return self.labels == other.labels
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.labels,))

    def __repr__(self) -> str:
        return f"InfoSet(labels={self.labels!r})"

    @classmethod
    def of(cls, labels: Iterable[VarLabel]) -> "InfoSet":
        return cls(tuple(sorted(set(labels))))

    def __iter__(self) -> Iterator[VarLabel]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: VarLabel) -> bool:
        return label in self.labels

    def union(self, other: "InfoSet") -> "InfoSet":
        return InfoSet.of(self.labels + other.labels)

    def intersect(self, other: "InfoSet") -> "InfoSet":
        mine = set(other.labels)
        return InfoSet(tuple([l for l in self.labels if l in mine]))

    def difference(self, other: "InfoSet") -> "InfoSet":
        drop = set(other.labels)
        return InfoSet(tuple([l for l in self.labels if l not in drop]))

    def issubset(self, other: "InfoSet") -> bool:
        theirs = set(other.labels)
        return all(l in theirs for l in self.labels)


EMPTY_INFOSET = InfoSet(())


class Realization(namedtuple("Realization", "items")):
    """An assignment of concrete values to every label of one InfoSet: a
    tuple of (label, value) pairs in label order."""

    __slots__ = ()

    @classmethod
    def of(cls, mapping) -> "Realization":
        items = tuple(sorted(dict(mapping).items()))
        return cls(items)

    @property
    def domain(self) -> InfoSet:
        return InfoSet(tuple([l for l, _ in self.items]))

    @property
    def values(self) -> tuple[str, ...]:
        """The values alone, in label order."""
        return tuple([v for _l, v in self.items])

    def restrict(self, labels: InfoSet) -> "Realization":
        have = dict(self.items)
        try:
            return Realization(tuple([(l, have[l]) for l in labels]))
        except KeyError as e:
            raise DomainMismatch(missing=[e.args[0]], extra=[]) from None

    def merge(self, other: "Realization") -> "Realization":
        """Combine two assignments; overlapping labels must agree."""
        out = dict(self.items)
        for l, v in other.items:
            if out.setdefault(l, v) != v:
                raise ValueError(f"conflicting values for {l}: {out[l]!r} vs {v!r}")
        return Realization.of(out)

    def __str__(self) -> str:
        if not self.items:
            return "-"
        return ",".join(f"{l}={v}" for l, v in self.items)


def history_slots(labels: Iterable[VarLabel], agents: int) -> tuple[int, ...]:
    """Positions of ``labels`` in a flat trajectory history of K = ``agents``
    agents: at each time t the K observations, then the K actions, so label
    (j, t, kind) sits at 2Kt + K*kind + j - 1, and a history through the
    observations at t holds 2Kt + K values. The solvers' particles, the
    conditioning classes and whole trajectories all keep this layout."""
    return tuple(2 * agents * l.time + agents * l.kind + l.agent - 1
                 for l in labels)


def realization_at(labels: InfoSet, history, agents: int) -> Realization:
    """The realization of ``labels`` read off a flat trajectory history
    (see ``history_slots``)."""
    return Realization(tuple(zip(
        labels, [history[i] for i in history_slots(labels, agents)])))


# One shared InfoSet per distinct label tuple that the two caches below return:
# many (d, k, t) keys yield the same set.
_SETS: dict[InfoSet, InfoSet] = {}


def _shared_set(labels: Iterable[VarLabel]) -> InfoSet:
    info = InfoSet.of(labels)
    return _SETS.setdefault(info, info)


@lru_cache(maxsize=None)
def memory_labels(d: DelayMatrix, k: int, t: int) -> InfoSet:
    """Everything agent k has received by time t.

    Agent j's observations arrive with delay d(j, k) and its actions one step
    later (the action of a cycle is transmitted at the start of the next one),
    so the memory holds Y^j up to t - d(j, k) and U^j up to t - d(j, k) - 1.
    """
    labels = []
    for j in d.agents():
        lag = d.delay(j, k)
        labels.extend(obs(j, tau) for tau in range(0, t - lag + 1))
        labels.extend(act(j, tau) for tau in range(0, t - lag))
    return _shared_set(labels)


@lru_cache(maxsize=None)
def accessible_labels(d: DelayMatrix, k: int, t: int) -> InfoSet:
    """The part of agent k's memory held by every agent 1..k.

    Equals the intersection of the memories of agents 1..k; computed here in
    closed form via the worst delay max_{i<=k} d(j, i) per source agent j.
    """
    labels = []
    for j in d.agents():
        lag = max(d.delay(j, i) for i in range(1, k + 1))
        labels.extend(obs(j, tau) for tau in range(0, t - lag + 1))
        labels.extend(act(j, tau) for tau in range(0, t - lag))
    return _shared_set(labels)


def clear_label_caches() -> None:
    """Forget the label sets cached per delay matrix, and the shared sets."""
    memory_labels.cache_clear()
    accessible_labels.cache_clear()
    _SETS.clear()


def new_info_labels(d: DelayMatrix, k: int, t: int) -> InfoSet:
    """Labels entering agent k's accessible set at time t (all of it at t=0)."""
    if t == 0:
        return accessible_labels(d, k, 0)
    return accessible_labels(d, k, t).difference(accessible_labels(d, k, t - 1))


def inaccessible_labels(d: DelayMatrix, k: int, j: int, t: int) -> InfoSet:
    """Agent k's memory minus agent j's accessible set, for j at or after k."""
    if j < k:
        raise NotBeyond(k, j)
    return memory_labels(d, k, t).difference(accessible_labels(d, j, t))


def label_space(s: "Scenario", label: VarLabel):
    """The finite value space a label ranges over."""
    if label.kind == Kind.OBS:
        return s.obs_spaces[label.agent]
    return s.action_space(label.agent, label.time)


def count_realizations(s: "Scenario", info: InfoSet) -> int:
    n = 1
    for l in info:
        n *= len(label_space(s, l).values)
    return n


def enumerate_realizations(
    s: "Scenario", info: InfoSet, cap: int = DEFAULT_ENUM_CAP
) -> list[Realization]:
    """All assignments over ``info`` in canonical label-then-value order."""
    total = count_realizations(s, info)
    check_cap("realizations of info set", total, cap)
    pools = [label_space(s, l).values for l in info]
    out = []
    for combo in itertools.product(*pools):
        out.append(Realization(tuple(zip(info.labels, combo))))
    return out
