"""Exception types shared across the engine.

The CLI maps these onto exit codes: file/parse problems exit 1, semantic
infeasibility (no distribution or mass assignment fits) exits 2,
resource caps exit 3, and internal faults of the engine (``Unbounded``
from an engine query, ``PivotLimitExceeded``) exit 4.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(EngineError):
    """Malformed formula text.

    ``offset`` is the byte offset (UTF-8) of the offending token and
    ``expected`` describes what the parser would have accepted there.
    """

    def __init__(self, message: str, offset: int, expected: str):
        super().__init__(f"{message} at byte {offset} (expected {expected})")
        self.offset = offset
        self.expected = expected


class MissingAtom(EngineError):
    """An assignment did not cover an atom of the formula being evaluated."""

    def __init__(self, name: str):
        super().__init__(f"no truth value assigned to atom {name!r}")
        self.name = name


class CapExceeded(EngineError):
    """A configured size cap (sentences or LP variables) was exceeded."""

    def __init__(self, what: str, count: int, limit: int):
        super().__init__(f"{what}: {count} exceeds the configured cap of {limit}")
        self.what = what
        self.count = count
        self.limit = limit


class AtomCapExceeded(EngineError):
    """Too many distinct atoms for exhaustive assignment enumeration."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} distinct atoms exceed the cap of {limit}")
        self.count = count
        self.limit = limit


class SpaceMismatch(EngineError):
    """Two values that must share an interpretation frame do not."""


class Infeasible(EngineError):
    """The feasible region of a linear program is empty."""


class Unbounded(EngineError):
    """The objective is unbounded over the feasible region.

    Every polytope built by this package is bounded, so seeing this from
    an engine query indicates a constraint-construction bug.
    """


class PivotLimitExceeded(EngineError):
    """The simplex pivot count blew past its safety bound."""


class Incoherent(EngineError):
    """No permissible distribution matches the given sentence probabilities."""


class ZeroProbabilityCondition(EngineError):
    """Conditioning event has probability zero."""


class OverlappingSpecs(EngineError):
    """Two margin specifications fix a common sentence index."""


class ImpermissibleConditional(EngineError):
    """A conditional table assigns positive probability to an unrealizable row."""

    def __init__(self, vector: tuple[bool, ...], detail: str):
        bits = "".join("1" if b else "0" for b in vector)
        super().__init__(f"impermissible conditional at row {bits}: {detail}")
        self.vector = vector


class InvalidDistribution(EngineError):
    """Probabilities are negative, do not sum to one, or sit on forbidden rows."""


class TotalConflict(EngineError):
    """Dempster combination with conflict mass one has no defined result."""


class InfeasibleIntervals(EngineError):
    """No basic probability assignment matches the evidential interval system."""


class EmptyFocalElement(EngineError):
    """A focal element description denotes the empty set of interpretations."""


class MassSumNotOne(EngineError):
    """Masses of a basic probability assignment do not sum to one."""


class KBFileError(EngineError):
    """Base class for knowledge-base / mass / joint file problems."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


class KBParseError(KBFileError):
    pass


class DuplicateName(KBFileError):
    pass


class UnknownName(KBFileError):
    pass


class MixedProbAndInterval(KBFileError):
    pass
