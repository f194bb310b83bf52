"""Exception hierarchy for geometric and numerical failure modes, and the count rule."""

from numbers import Integral


def check_count(name: str, value, most=float("inf"), least: int = 1) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a count in
    [least, most]: an Integral other than bool, or an integral float."""
    whole = isinstance(value, Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not (whole and least <= value <= most):
        raise ValueError(f"{name} must be a whole number in [{least}, {most}], not {value!r}")
    return int(value)


class ConicExtremaError(Exception):
    """Base class for all errors raised by this package."""


class SingularConic(ConicExtremaError):
    """Operation requires a regular conic but the matrix is (near-)singular."""


class WitnessOnConic(ConicExtremaError):
    """Interior normalization witness lies on the conic itself."""


class ZeroBlend(ConicExtremaError):
    """Pencil combination collapsed to the zero matrix."""


class NotAParabola(ConicExtremaError):
    """Conic fails the tangency-to-the-line-at-infinity test."""


class NonpositiveParameter(ConicExtremaError):
    """Parabola parameter must be strictly positive."""


class DegenerateTriangle(ConicExtremaError):
    """Triangle vertices are (near-)collinear."""


class SingularPencilMember(ConicExtremaError):
    """Requested pencil member degenerates to a double line."""


class NumericalRootFailure(ConicExtremaError):
    """Cubic solver failed to produce the expected real roots."""


class NoInscribedParabola(ConicExtremaError):
    """Region admits no inscribed parabola (e.g. parallel boundaries)."""


class UnboundedParameter(ConicExtremaError):
    """Inscribed parabola size grows without bound in this region."""


class NonFiniteResult(ConicExtremaError):
    """A result lies outside the float range."""


class NoCommonInterior(ConicExtremaError):
    """The two horocycles have no common interior points."""


class PreconditionViolation(ConicExtremaError):
    """Input lies outside the domain where the result is guaranteed."""


class VerificationFailure(ConicExtremaError):
    """A solution failed an independent verification check."""
