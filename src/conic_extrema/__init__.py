"""Extremal conics: exparabolas, maximal inscribed parabolas, minimal horocycles.

The package computes the three exparabolas of a triangle through the
closed-form dual-pencil cubic, finds the maximal parabola pinned by the
boundary of an unbounded convex half-plane intersection, and finds the
minimal horocycle enclosing a point set in the Cayley-Klein disk, with
sampled verification suites for the identities and inequalities behind
the constructions.
"""

from .errors import (
    ConicExtremaError,
    DegenerateTriangle,
    NoCommonInterior,
    NoInscribedParabola,
    NonpositiveParameter,
    NotAParabola,
    NumericalRootFailure,
    PreconditionViolation,
    SingularConic,
    SingularPencilMember,
    UnboundedParameter,
    VerificationFailure,
    WitnessOnConic,
    ZeroBlend,
)
from .exparabola import (
    CanonicalFrame,
    ExparabolaResult,
    Triangle,
    canonical_frame,
    dual_pencil,
    exparabolas,
    pencil_member,
    pencil_parabola,
    solve_cubic,
    squared_parameter,
    tangency_cubic,
    tangency_root,
)
from .horocycle import (
    Horocycle,
    check_cover_containment,
    check_size_reduction_identities,
    common_cover,
    common_cover_unchecked,
    horocycle_matrix,
    intersection_points,
    min_size_for_point,
    sample_common_interior,
)
from .maxparabola import (
    ConvexRegion,
    HalfPlane,
    MaxParabolaSolution,
    halfplane_violation,
    parabola_in_halfplane,
    solve_max_parabola,
    triangle_region,
)
from .minhorocycle import (
    MinHorocycleSolution,
    size_profile,
    solve_min_horocycle,
    verify_solution,
)
from .parabola import (
    Parabola,
    compare_size,
    is_parabola,
    parameter,
    parameter_squared,
)
from .projective import (
    ConicMatrix,
    HomLine,
    HomPoint,
    LINE_AT_INFINITY,
    adjugate,
    dualize,
    is_interior,
    normalize_interior,
    pencil_blend,
    polar,
    pole,
    proj_equal,
)

__version__ = "0.1.0"
