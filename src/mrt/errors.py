"""Exception types shared across the package."""


class MrtError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(MrtError, ValueError):
    """Inputs disagree on ambient dimension."""


class EmptyInput(MrtError, ValueError):
    """An operation received no atoms / no points where at least one is required."""


class InvalidWeight(MrtError, ValueError):
    """A weight is zero, negative, or non-finite."""


class DegenerateRegion(MrtError, ValueError):
    """A point set too degenerate to fit, such as a hull whose edges all have zero length.

    A region whose diameter is zero or subnormal raises ScaleOverflow instead.
    """


class ZeroMassRegion(MrtError, ValueError):
    """The region carries no mass but the operation needs mu(E) > 0."""


class TreeStructureError(MrtError, ValueError):
    """A cube family violates the tree contract (top membership / upward closure)."""


class NetValidationError(MrtError, ValueError):
    """A net sequence violates separation or proximity requirements."""


class AlphaRecheckError(MrtError, ValueError):
    """A supplied flatness coefficient fails its neighborhood recheck."""


class ForwardProximityError(MrtError, ValueError):
    """A required same-generation neighbor is missing during curve construction.

    Signals a violation of the forward-proximity property of the net sequence.
    """


class ZeroMassTriple(MrtError, ValueError):
    """A tree branch used for drawing has a zero-mass triple (center of mass undefined)."""


class CertificateError(MrtError, ValueError):
    """A length-certificate check failed (ledger, windows, cores, or coverage)."""


class ScaleOverflow(MrtError, ValueError):
    """A requested scale is out of range.

    Either a coordinate's dyadic cell index at that scale is too large for
    int64, or a scale-k length (a net separation, a density radius, a cube or
    triple diameter) is zero or subnormal (dyadic.checked_length).
    """


class InputFormatError(MrtError, ValueError):
    """A measure / net file could not be parsed."""
