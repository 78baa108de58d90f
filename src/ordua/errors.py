"""Error types shared across the package.

Every error carries an ``exit_code`` used by the command line front end:
2 for malformed or incompatible input, 3 for exceeded enumeration bounds.
"""

from __future__ import annotations


class OrduaError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class DuplicateLabel(OrduaError):
    """Two carrier elements share a label."""


class UnknownLabel(OrduaError):
    """A relation pair or map mentions a label outside the carrier."""


class AntisymmetryViolation(OrduaError):
    """The reflexive-transitive closure of the input relation has a cycle."""

    def __init__(self, cycle: list[str]):
        super().__init__(f"antisymmetry violation on cycle {cycle}")
        self.cycle = cycle


class KindMismatch(OrduaError):
    """An operation was asked of a structure whose kind does not support it."""


class KindHintMismatch(OrduaError):
    """A document's declared kind claims more than classification establishes."""


class CarrierMismatch(OrduaError):
    """Two objects that must share a carrier do not."""


class NotAFilterImage(OrduaError):
    """The inverse image of a spectrum point is not a point of the source spectrum."""


class NotInjective(OrduaError):
    """A map expected to be injective identifies two elements."""


class NotPriestley(OrduaError):
    """An ordered space expected to satisfy the Priestley axioms does not."""


class NotT0(OrduaError):
    """A space expected to be T0 (antisymmetric specialization) is not."""


class CarrierTooLarge(OrduaError):
    """An enumeration would exceed the configured bound."""

    exit_code = 3


class OracleBoundExceeded(OrduaError):
    """The presented-frame oracle was asked for a carrier above its bound."""

    exit_code = 3


class InputFormatError(OrduaError):
    """A document does not match the expected JSON schema."""
