# Covering the common interior of two equal horocycles.
#
# Two horocycles of equal size a with ideal points at angles pi/2 +- w
# overlap in a lens.  The horocycle tangent to the absolute circle at
# (0, 1) through the lens's lower tip always covers the lens -- and is
# strictly SMALLER than a exactly when a < 2^(-1/2).  At the bound all
# three pass through the disk center with equal size; above it the cover
# comes out larger, which is why minimal enclosing horocycles are only
# guaranteed unique below the bound.

import os

import numpy as np

from conic_extrema import (
    Horocycle,
    check_cover_containment,
    check_size_reduction_identities,
    common_cover_unchecked,
    intersection_points,
    sample_common_interior,
)
from conic_extrema.svgfig import SvgFigure

INV_SQRT2 = 2.0 ** (-0.5)

for a in (0.5, INV_SQRT2, 0.8):
    omega = 0.35
    cover = common_cover_unchecked(a, omega)
    lower, upper = intersection_points(a, omega)
    regime = "below" if a < INV_SQRT2 else ("at" if a == INV_SQRT2 else "above")
    print(f"a = {a:.6f} ({regime} the bound):")
    print(f"  lens tips      L = (0, {lower[1]:+.6f}),  U = (0, {upper[1]:+.6f})")
    print(f"  cover size       = {cover.a:.6f}  ({'smaller' if cover.a < a else 'NOT smaller'})")
    # Monte-Carlo check of the covering property: the sampler keeps points
    # by their closed-form sizes, and the cover's matrix form judges them
    pts = sample_common_interior(a, omega, 50_000, seed=0)
    m = cover.matrix().m
    hom = np.column_stack([np.ones(len(pts)), pts])
    outside = int((np.einsum("ni,ij,nj->n", hom, m, hom) >= 0).sum())
    print(f"  lens points outside the cover: {outside} of {len(pts)}")
    print()
    if outside:
        raise SystemExit(f"{outside} sampled lens points lie outside the cover by its matrix form")

# the algebra behind the size inequality, at one (a, t = tan(omega/2))
rep = check_size_reduction_identities(0.5, np.tan(0.35 / 2))
print("size-inequality algebra at a=0.5:")
print(f"  rhs positive: {rep.rhs_positive}, monotone decreasing: {rep.rhs_monotone_decreasing}")
print(f"  endpoint identity error {rep.rhs_at_t1_identity_error:.2e}")
print(f"  factorization rel error {rep.factorization_rel_error:.2e}")

# sampled replacement for the containment quantifier elimination
rep2 = check_cover_containment(0.5, np.tan(0.35 / 2), samples=100_000, seed=1)
print(f"  certificate k > 0 on {rep2.common_interior_points} lens samples: "
      f"{rep2.k_violations} violations, min k = {rep2.min_k:.3e}")

os.makedirs(os.path.join(os.path.dirname(__file__), "output"), exist_ok=True)
for tag, a in (("below", 0.5), ("above", 0.8)):
    omega = 0.35
    cover = common_cover_unchecked(a, omega)
    lower, upper = intersection_points(a, omega)
    fig = SvgFigure(viewport=(-1.15, 1.15, -1.15, 1.15))
    fig.add_circle_path((0, 0), 1.0, stroke="black", width=0.008)
    fig.add_horocycle(Horocycle(np.pi / 2 + omega, a), stroke="royalblue", width=0.006)
    fig.add_horocycle(Horocycle(np.pi / 2 - omega, a), stroke="seagreen", width=0.006)
    fig.add_horocycle(cover, stroke="crimson", width=0.006)
    for pt, name in ((lower, "L"), (upper, "U")):
        fig.add_point(pt, r=0.015)
        fig.add_label(pt, name)
    out = os.path.join(os.path.dirname(__file__), "output", f"cover_{tag}.svg")
    fig.write(out)
    print("wrote", out)
