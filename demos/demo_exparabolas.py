# The three exparabolas of a triangle.
#
# Each triangle side carries a one-parameter family of parabolas tangent
# to all three side lines; the family member of largest parameter that
# stays on the outer side of that edge is the side's exparabola -- the
# parabola analogue of an excircle.  The tangency abscissa is a root of
# a cubic, so everything here is closed form up to one cubic solve.

import os

import numpy as np

from conic_extrema import Triangle, exparabolas
from conic_extrema.svgfig import SvgFigure

triangle = Triangle(A=[-1.0, 0.0], B=[1.2, 0.0], C=[0.3, 1.4])

print("triangle:", triangle.A, triangle.B, triangle.C)
print()
results = exparabolas(triangle)
for r in results:
    print(f"exparabola opposite {r.opposite_vertex} (touches side {r.side}):")
    print(f"  tangency abscissa  lambda = {r.lam:+.12f}")
    print(f"  parameter          p      = {r.parabola.parameter:.12f}")
    print(f"  tangency point on side    = ({r.tangency[0]:+.6f}, {r.tangency[1]:+.6f})")
    print(f"  apex                      = ({r.parabola.apex[0]:+.6f}, {r.parabola.apex[1]:+.6f})")
    print()

# the worked symmetric example: cubic lam^3 - 5 lam, in-interval root 0,
# parameter exactly 2
symmetric = Triangle([-1.0, 0.0], [1.0, 0.0], [0.0, 1.0])
ab = next(r for r in exparabolas(symmetric) if r.side == "AB")
print(f"symmetric triangle check: lambda = {ab.lam:.1e}, parameter = {ab.parabola.parameter}")

os.makedirs(os.path.join(os.path.dirname(__file__), "output"), exist_ok=True)
d = triangle.diameter
fig = SvgFigure(viewport=(-4.5, 4.5, -4.0, 5.0))
for v1, v2 in ((triangle.A, triangle.B), (triangle.B, triangle.C), (triangle.C, triangle.A)):
    # draw each full side line, not just the segment
    e = np.asarray(v2) - np.asarray(v1)
    n = np.array([-e[1], e[0]]) / np.linalg.norm(e)
    fig.add_line(n, float(n @ v1), stroke="gray", width=0.008)
for r, color in zip(results, ("crimson", "royalblue", "seagreen")):
    fig.add_parabola(r.parabola, stroke=color, width=0.012)
    fig.add_point(r.tangency, r=0.03, fill=color)
for v, name in ((triangle.A, "A"), (triangle.B, "B"), (triangle.C, "C")):
    fig.add_point(v, r=0.03)
    fig.add_label(v, name)
out = os.path.join(os.path.dirname(__file__), "output", "exparabolas.svg")
fig.write(out)
print("wrote", out)
