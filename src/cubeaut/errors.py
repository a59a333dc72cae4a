"""Exception types shared across the package.

Validation errors carry a witness (the offending triple, element, ...)
so failures point at concrete table entries rather than just a message.
"""

from __future__ import annotations

import reprlib

# The one repr an error message gives a value from its caller: at most 5
# items per list (3 per dict), 24 characters per scalar and two levels of
# nesting, so a line names a bad value in under 1,000 characters whatever
# its size, and a value within those limits prints as repr prints it.
_BOUNDED = reprlib.Repr()
_BOUNDED.maxlevel = 2
_BOUNDED.maxtuple = _BOUNDED.maxlist = _BOUNDED.maxarray = 5
_BOUNDED.maxset = _BOUNDED.maxfrozenset = _BOUNDED.maxdeque = 5
_BOUNDED.maxdict = 3
_BOUNDED.maxstring = _BOUNDED.maxlong = _BOUNDED.maxother = 24
bounded_repr = _BOUNDED.repr


class CubeautError(Exception):
    """Base class for all package errors."""


class InternalCheckFailed(CubeautError):
    """An independent re-check of a computed result failed: a bug, not bad input."""


# ---------------------------------------------------------------------------
# Cayley-table / group construction


class GroupTableError(CubeautError):
    """A candidate multiplication table violates a group axiom."""


class NotClosed(GroupTableError):
    def __init__(self, row: int, col: int, value):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"table entry at ({row}, {col}) is {bounded_repr(value)}, "
                         "not an index in range")


class NoIdentity(GroupTableError):
    pass


class NotAssociative(GroupTableError):
    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(f"(a*b)*c != a*(b*c) for witness triple ({a}, {b}, {c})")


class NoInverse(GroupTableError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotLatin(GroupTableError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"row {index} is not a permutation of 0..n-1")


class UnsupportedParameter(CubeautError):
    """Builder called with a parameter outside its supported range."""


class CapExceeded(CubeautError):
    """A permutation closure grew past the caller-supplied cap."""

    def __init__(self, message: str, found: int):
        self.found = found
        super().__init__(f"{message} (found {found} so far)")


# ---------------------------------------------------------------------------
# Subgroup / quotient structure


class NotASubgroup(CubeautError):
    pass


class NotNormal(CubeautError):
    pass


# ---------------------------------------------------------------------------
# Maps between groups


class NotAutomorphism(CubeautError):
    """Map fails bijectivity or the homomorphism law; carries a witness pair."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message if witness is None else f"{message}; witness {witness}")


class NotInvariant(CubeautError):
    """Subgroup is not mapped onto itself by the given map."""


# ---------------------------------------------------------------------------
# Cubing-automorphism constructors


class NotAbelian(CubeautError):
    pass


class OrderDivisibleBy3(CubeautError):
    pass


class BadIndex(CubeautError):
    pass


class KNotAbelian(CubeautError):
    pass


class SylowCondition(CubeautError):
    pass


class XInK(CubeautError):
    pass


class NotClass2(CubeautError):
    pass


class BadDecomposition(CubeautError):
    pass


class PreconditionViolated(CubeautError):
    """A documented precondition failed; names the condition and a witness."""

    def __init__(self, condition: str, witness=None):
        self.condition = condition
        self.witness = witness
        msg = condition if witness is None else f"{condition}; witness {witness}"
        super().__init__(msg)


# ---------------------------------------------------------------------------
# File ingestion


class FileFormatError(CubeautError):
    """Rejected input file; message carries the JSON path of the violation."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")
