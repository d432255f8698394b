"""Exception hierarchy shared across the package."""

from __future__ import annotations


class BtspecError(Exception):
    """Base class for all package errors."""


class UsageError(BtspecError):
    """Bad input from the caller: the CLI reports it as a usage error (exit 2)."""


class SpecParseError(UsageError):
    """Malformed group-spec text; carries the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SpecRangeError(UsageError):
    """Structurally valid spec with out-of-range parameters (e.g. Q6)."""


class OrderExceededError(BtspecError):
    """Group closure grew past the configured max_order."""


class LatticeSizeError(BtspecError):
    """The group has more subgroups than lattice.MAX_SUBGROUPS."""


class PrimeCountError(UsageError):
    """More distinct extra primes than spectrum.MAX_EXTRA_PRIMES."""


class ContainmentError(BtspecError):
    """A required subgroup containment does not hold."""


class NotInImageError(BtspecError):
    """A ghost vector is not in the image of the mark homomorphism.

    Carries the first class index at which back-substitution produced a
    non-integral coefficient.
    """

    def __init__(self, class_index: int, numerator: int, denominator: int):
        super().__init__(
            f"coordinate solve gives {numerator}/{denominator} at class index {class_index}"
        )
        self.class_index = class_index
        self.numerator = numerator
        self.denominator = denominator


class CapExceededError(BtspecError):
    """A coinduction enumeration would exceed the configured point cap."""
