# Minimal enclosing horocycle of a point cloud in the Cayley-Klein disk.
#
# For a fixed ideal angle theta the smallest enclosing size is a closed
# form, so the solve is a 1-D minimization of the profile a(theta).
# When the disk center lies outside the cloud's hull that minimum is
# unique and found exactly by a small basis solve.  Every other set is
# solved by a sweep over the arcs of ideal angles at which each point
# fits: the minimum is the least size at which they all meet.  A set
# containing the disk center sits at the bound 2^(-1/2): the minimal
# ideal angles form an arc, and infinitely many horocycles are minimal.

import os

import numpy as np

from conic_extrema import size_profile, solve_min_horocycle, verify_solution
from conic_extrema.svgfig import SvgFigure

rng = np.random.default_rng(7)
pts = rng.uniform(-0.18, 0.18, (40, 2)) + np.array([0.25, 0.35])

sol = solve_min_horocycle(pts)
print(f"{len(pts)} points, minimal enclosing horocycle:")
print(f"  ideal angle theta* = {sol.horocycle.theta:.9f} rad")
print(f"  size a*            = {sol.horocycle.a:.12f}")
print(f"  unique             = {sol.unique}")
print(f"  support points     = {sol.support}")
print("  verification:", verify_solution(pts, sol))
# the definition as the oracle: no point lies outside the solution's matrix
m = sol.horocycle.matrix().m
hom = np.column_stack([np.ones(len(pts)), pts])
worst = float(np.einsum("ni,ij,nj->n", hom, m, hom).max() / np.abs(m).max())
print(f"  largest matrix form / max|E| = {worst:.2e}")
# a dense profile as the oracle of the minimum: the cloud misses the disk
# center, so the solve is exact and no sampled angle may do better
dense = float(size_profile(pts, np.linspace(0.0, 2.0 * np.pi, 1 << 16, endpoint=False)).min())
print(f"  a* / dense-profile minimum - 1 = {sol.horocycle.a / dense - 1.0:.2e}")
print()
if worst > 1e-12:
    raise SystemExit(f"a cloud point lies outside the solution's matrix form by {worst:.3e}")
if not sol.horocycle.a <= (1.0 + 1e-12) * dense:
    raise SystemExit(f"a* = {sol.horocycle.a!r} exceeds the dense-profile minimum {dense!r}")

# a large cloud: the solve and the optimality checks of the
# verification see only the points the convex-hull filter keeps, which
# the solution names
big = rng.uniform(-0.2, 0.2, (20_000, 2)) + np.array([-0.3, 0.35])
big_sol = solve_min_horocycle(big)
hull = big_sol.hull
print(f"{len(big)} points, {len(hull)} kept by the convex-hull filter:")
print(f"  theta* = {big_sol.horocycle.theta:.9f} rad, a* = {big_sol.horocycle.a:.12f}")
print(f"  unique = {big_sol.unique}")
big_report = verify_solution(big, big_sol)
print("  verification:", big_report)
# the diagnostic grid, evaluated over the kept points: the profile over
# them must be the profile over all of them, bit for bit
same = np.array_equal(big_sol.profile.values, size_profile(big, big_sol.profile.thetas))
print(f"  profile over the kept points = over all points: {same}")
print()
if not len(hull) < len(big):
    raise SystemExit("the convex-hull filter kept every point of the large cloud")
if not same:
    raise SystemExit("the profile over the kept points differs from all points")
if big_report["certificate"] != "cone":
    raise SystemExit(f"the large cloud was not certified by the disk cone: {big_report}")

# the disk center inside the hull but not a point: a* > 2^(-1/2), and
# the certificate is global: just below a*, the arcs of angles where no
# point fits cover the whole circle
inside = [[0.1, 0.1], [-0.2, 0.1], [0.0, -0.3]]
inside_sol = solve_min_horocycle(inside)
inside_report = verify_solution(inside, inside_sol)
print("3 points around the disk center:")
print(f"  theta* = {inside_sol.horocycle.theta:.9f} rad, a* = {inside_sol.horocycle.a:.12f}")
print("  verification:", inside_report)
print()
if inside_report["certificate"] != "arcs":
    raise SystemExit(f"the set around the center was not certified by the arcs: {inside_report}")

# 20000 points on one circle about the center (the tests' on-circle set
# of seed 0): the profile has a kink between every two neighbours, and
# the global minimum lies opposite the widest gap between the points'
# directions, which is the oracle
ring_rng = np.random.default_rng(0)
ring_rng.uniform(0.0, 2.0 * np.pi)  # the tests' family draws an unused angle first
t = ring_rng.uniform(0.0, 2.0 * np.pi, 20_000)
ring = ring_rng.uniform(0.05, 0.99) * np.stack([np.cos(t), np.sin(t)], axis=1)
ring_sol = solve_min_horocycle(ring)
ring_report = verify_solution(ring, ring_sol)
phi = np.sort(np.arctan2(ring[:, 1], ring[:, 0]))
gaps = np.diff(phi, append=phi[0] + 2.0 * np.pi)
k = int(np.argmax(gaps))
oracle = size_profile(ring, phi[k] + 0.5 * gaps[k] + np.pi)
print(f"{len(ring)} points on one circle about the disk center:")
print(f"  theta* = {ring_sol.horocycle.theta:.9f} rad, a* = {ring_sol.horocycle.a!r}")
print(f"  opposite the widest gap: {oracle!r}, a* / oracle - 1 = {ring_sol.horocycle.a / oracle - 1:.1e}")
print(f"  certificate: {ring_report['certificate']}")
print()
if not abs(ring_sol.horocycle.a / oracle - 1.0) <= 1e-15:
    raise SystemExit(f"ring: a* = {ring_sol.horocycle.a!r}, the widest-gap oracle {oracle!r}")
if ring_report["certificate"] != "arcs":
    raise SystemExit(f"the ring was not certified by the arcs: {ring_report}")

# the degenerate case: the disk center pins every profile value at 2^(-1/2)
center_sol = solve_min_horocycle([[0.0, 0.0]])
prof = center_sol.profile.values
print("disk-center point set:")
print(f"  a* = {center_sol.horocycle.a:.16f}  (2^-1/2 = {2**-0.5:.16f})")
print(f"  unique = {center_sol.unique}, profile spread = {np.ptp(prof):.2e}")
print()
if center_sol.horocycle.a != 2**-0.5:
    raise SystemExit(f"disk-center set: a* = {center_sol.horocycle.a!r}, expected 2^-1/2")

# the center plus 999 points inside the horocycle of size 2^(-1/2) at
# angle phi, shrunk about its own center: a whole arc of angles is minimal,
# the arcs' meet at size 2^(-1/2), and the solver returns its ends
phi = 0.8
u, v = np.array([np.cos(phi), np.sin(phi)]), np.array([-np.sin(phi), np.cos(phi)])
rho, ang = np.sqrt(rng.uniform(0.0, 1.0, 999)), rng.uniform(0.0, 2.0 * np.pi, 999)
along = 0.5 + 0.9 * 0.5 * rho * np.cos(ang)
across = 0.9 * 2**-0.5 * rho * np.sin(ang)
plateau = np.vstack([[0.0, 0.0], along[:, None] * u + across[:, None] * v])
plateau_sol = solve_min_horocycle(plateau)
lo, hi = plateau_sol.profile.tied_minimizers
width = (hi - lo) % (2.0 * np.pi)
inner = lo + np.linspace(1e-9, width - 1e-9, 4097)
flat = size_profile(plateau, inner)
print(f"{len(plateau)} points holding the disk center:")
print(f"  a* = {plateau_sol.horocycle.a!r}, unique = {plateau_sol.unique}")
print(f"  minimal arc [{lo:.9f}, {hi:.9f}] rad, theta* = {plateau_sol.horocycle.theta:.9f}")
print(f"  profile at 4097 angles inside the arc: {np.unique(flat)}")
print("  verification:", verify_solution(plateau, plateau_sol))
print()
if not (plateau_sol.horocycle.a == 2**-0.5 and np.all(flat == 2**-0.5)):
    raise SystemExit("an angle inside the minimal arc does not give exactly 2^-1/2")

# profile along a few angles for the cloud
for theta in np.linspace(0, 2 * np.pi, 5, endpoint=False):
    print(f"  a(theta = {theta:4.2f}) = {size_profile(pts, theta):.6f}")

os.makedirs(os.path.join(os.path.dirname(__file__), "output"), exist_ok=True)
fig = SvgFigure(viewport=(-1.15, 1.15, -1.15, 1.15))
fig.add_circle_path((0, 0), 1.0, stroke="black", width=0.008)
fig.add_horocycle(sol.horocycle, stroke="crimson", width=0.006)
for i, p in enumerate(pts):
    fig.add_point(p, r=0.012, fill="royalblue" if i in sol.support else "gray")
out = os.path.join(os.path.dirname(__file__), "output", "min_horocycle.svg")
fig.write(out)
print("wrote", out)
