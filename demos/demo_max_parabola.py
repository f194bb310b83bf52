# Maximal parabola pinned by the boundary of a half-plane region.
#
# Containment alone never bounds a parabola's size in a half-plane
# intersection (slide the apex deeper and grow), so the meaningful
# maximum is over parabolas tangent to at least three boundary lines.
# The solver multi-starts a derivative-free search, polishes each start
# exactly along its tangent triple, and reports the agreement statistics
# that witness the uniqueness of the maximum.

import os

from conic_extrema import (
    ConvexRegion,
    HalfPlane,
    NoInscribedParabola,
    Triangle,
    UnboundedParameter,
    solve_max_parabola,
    triangle_region,
)
from conic_extrema.svgfig import SvgFigure

# start from a triangle's one-negative-two-positive region and cut it
# with an extra slanted half-plane (its normal must stay compatible with
# the downward opening direction, i.e. have positive y component)
tri = Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
base = triangle_region(tri, "C")
extra = HalfPlane.from_direction([0.8, 0.6], offset=0.9)
region = ConvexRegion(list(base.halfplanes) + [extra])

sol = solve_max_parabola(region, starts=64, seed=0)
print("maximal pinned parabola:")
print(f"  parameter   = {sol.parabola.parameter:.12f}")
print(f"  apex        = ({sol.apex[0]:+.9f}, {sol.apex[1]:+.9f})")
print(f"  axis angle  = {sol.axis_angle:.9f} rad")
print(f"  tangent to boundary lines {sol.active_constraints}")
c = sol.convergence
print(f"  starts {c.starts}, agreeing {c.agreeing_starts}, spread {c.spread:.2e}")
print()

# without the cut, the optimum is the exparabola opposite C (parameter 2)
plain = solve_max_parabola(base, starts=64, seed=0)
print(f"uncut region optimum = {plain.parabola.parameter} (the exparabola)")

# degenerate inputs fail loudly
try:
    solve_max_parabola(
        ConvexRegion([HalfPlane([0, 1], 1.0), HalfPlane([0, -1], 1.0)]), seed=0
    )
except NoInscribedParabola as exc:
    print("strip:", exc)
try:
    solve_max_parabola(
        ConvexRegion([HalfPlane([0, 1], 1.0), HalfPlane([1, 0], 1.0)]), seed=0
    )
except UnboundedParameter as exc:
    print("wedge:", exc)

os.makedirs(os.path.join(os.path.dirname(__file__), "output"), exist_ok=True)
fig = SvgFigure(viewport=(-5.0, 5.0, -6.0, 4.0))
for h in region.halfplanes:
    fig.add_line(h.normal, h.offset, stroke="gray", width=0.008)
fig.add_parabola(sol.parabola, stroke="crimson", width=0.012)
fig.add_point(sol.apex, r=0.04, fill="crimson")
fig.add_parabola(plain.parabola, stroke="royalblue", width=0.008, dash=0.08)
out = os.path.join(os.path.dirname(__file__), "output", "max_parabola.svg")
fig.write(out)
print("wrote", out)
