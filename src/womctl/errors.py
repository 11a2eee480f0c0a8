"""Exception types shared across the package."""

from __future__ import annotations


class WomctlError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # rebuilt from the message and attributes, not through a subclass's
        # __init__, so an error raised in a ``verify --jobs`` worker process
        # reaches the parent intact
        return _rebuilt, (type(self), self.args, self.__dict__)


def _rebuilt(cls, args, state):
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


# -- topology -----------------------------------------------------------------

class TopologyError(WomctlError):
    pass


class SelfLink(TopologyError):
    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"link from agent {agent} to itself is not allowed")


class DuplicateLink(TopologyError):
    def __init__(self, src: int, dst: int):
        self.src, self.dst = src, dst
        super().__init__(f"more than one link declared for pair ({src} -> {dst})")


class NonPositiveDelay(TopologyError):
    def __init__(self, src: int, dst: int, delay: int):
        self.src, self.dst, self.delay = src, dst, delay
        super().__init__(f"link ({src} -> {dst}) has delay {delay}; delays must be >= 1")


class NotStronglyConnected(TopologyError):
    def __init__(self, src: int, dst: int):
        self.src, self.dst = src, dst
        super().__init__(f"no path from agent {src} to agent {dst}")


class SameAgent(TopologyError):
    def __init__(self, agent: int):
        self.agent = agent
        super().__init__(f"source and destination are both agent {agent}")


# -- scenario files -----------------------------------------------------------

class ParseError(WomctlError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


class MissingTableEntry(WomctlError):
    def __init__(self, table: str, key: tuple):
        self.table, self.key = table, key
        super().__init__(f"table '{table}' has no entry for {key}")


class BadDistribution(WomctlError):
    def __init__(self, name: str, total: float):
        self.name, self.total = name, total
        super().__init__(f"distribution '{name}' sums to {total!r}, expected 1 within 1e-12")


# -- enumeration and lookup ---------------------------------------------------

class EnumerationCapExceeded(WomctlError):
    def __init__(self, what: str, size: int, cap: int, exact: bool = True):
        self.what, self.size, self.cap, self.exact = what, size, cap, exact
        qual = "" if exact else "at least "
        super().__init__(f"{what}: {qual}{size} exceeds cap {cap}")


def check_cap(what: str, size: int, cap: int, exact: bool = True) -> None:
    """Raise ``EnumerationCapExceeded`` if ``size`` exceeds ``cap``; every
    enumeration is sized (or bounded below, ``exact=False``) before it runs."""
    if size > cap:
        raise EnumerationCapExceeded(what, size, cap, exact)


class UndefinedPolicyEntry(WomctlError):
    def __init__(self, agent: int, time: int, realization):
        self.agent, self.time, self.realization = agent, time, realization
        super().__init__(
            f"policy of agent {agent} at t={time} has no entry for {realization}"
        )


class DomainMismatch(WomctlError):
    def __init__(self, missing, extra):
        self.missing, self.extra = tuple(missing), tuple(extra)
        super().__init__(
            f"realization does not match the declared domain "
            f"(missing=[{', '.join(map(str, self.missing))}], "
            f"extra=[{', '.join(map(str, self.extra))}])"
        )

    @classmethod
    def between(cls, want, have) -> "DomainMismatch":
        """The mismatch of the labels ``have`` against the declared ``want``."""
        want, have = set(want), set(have)
        return cls(missing=sorted(want - have), extra=sorted(have - want))


class NotBeyond(WomctlError):
    def __init__(self, k: int, j: int):
        self.k, self.j = k, j
        super().__init__(f"agent {j} is not beyond agent {k} (requires j >= k)")


# -- belief filtering ---------------------------------------------------------

class ZeroProbabilityCondition(WomctlError):
    pass


class ZeroProbabilityObservation(WomctlError):
    pass
