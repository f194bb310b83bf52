"""Exception hierarchy for geometric and numerical failure modes."""


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
