"""Exception types shared across the package."""

from __future__ import annotations


class GroupMismatchError(ValueError):
    """Operand is not a carrier value of the group it was handed to."""


class NonCompactGroupError(ValueError):
    """Raised where a normalized Haar measure is required but unavailable."""


class LogBranchError(ValueError):
    """Logarithm requested at or too close to the cut locus."""


class GapError(ValueError):
    """Operation requires a gap-free matrix."""


class InvalidMatrixError(ValueError):
    """A matrix breaks the PC axioms; carries the first violation (i, j, axiom)."""

    def __init__(self, message: str, violation: tuple[int, int, str]):
        super().__init__(message)
        self.violation = violation


class FloatRangeError(ValueError):
    """A positive-real value left the range of double precision."""


class InconsistentMatrixError(ValueError):
    """No gauge vector exists for the matrix; carries the worst triad."""

    def __init__(self, message: str, witness: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class MissingEdgeError(ValueError):
    """An edge field has no value on a requested edge."""

    def __init__(self, i: int, j: int):
        super().__init__(f"no field value on edge {i}-{j}")
        self.edge = (i, j)


class ParseError(ValueError):
    """A file or document could not be parsed into a domain object."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column
