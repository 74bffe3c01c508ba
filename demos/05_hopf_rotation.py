"""
Rotating the sphere to dodge a zero set
=======================================

"""

import numpy as np

from nullsatz import BiPoly, ball_ratio_sup, circle_min_modulus, find_rotation

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)

# Every unit vector (a, b) spans a circle {(a t, b t) : |t| = 1} on the
# sphere.  For a polynomial with zeros on the sphere the game is to pick
# the circle that stays farthest from the zero set; a unitary rotation
# then moves that circle onto the standard one.
for f, name in [(Z1, "z1"), (Z1 * Z2, "z1*z2"), (Z1**2 + Z2**2 - 4, "z1^2 + z2^2 - 4")]:
    rot = find_rotation(f, seed=0)
    print(f"f = {name}")
    print(f"  best circle direction a = {rot.a:.4f}, b = {rot.b:.4f}")
    print(f"  min |f| on the circle = {rot.min_modulus:.6f} "
          f"(certified >= {rot.min_modulus_lower:.6f})")
    print(f"  unitarity defect of the rotation = {rot.unitarity_defect():.2e}")

# The rotated polynomial agrees with f composed with the unitary, so the
# minimum along the standard circle matches the reported optimum.
rot = find_rotation(Z1 * Z2, seed=0)
ts = np.exp(1j * np.linspace(0, 2 * np.pi, 7)[:-1])
vals = [abs((Z1 * Z2).eval(rot.a * t, rot.b * t)) for t in ts]
print()
print(f"z1*z2 along the chosen circle: min of sampled |f| = {min(vals):.6f} "
      f"(reported {rot.min_modulus:.6f})")
m, _ = circle_min_modulus(Z1 * Z2, rot.a, rot.b)
print(f"dense-grid check: {m:.6f}")

# On the ball the one-variable dilation f(z1, z2) / f(r z1, z2) stays
# bounded whenever f is zero-free on the closure, with the deviation from
# 1 shrinking as r -> 1.  (Polynomials in z2 alone are fixed by it.)
rep = ball_ratio_sup(Z1 - 2, samples=20_000, seed=0)
print()
print("one-variable dilation of z1 - 2 on the ball")
print(f"  sup ratio = {rep.sup:.6f} (finite: {rep.finite})")
print("  deviation from 1 as r -> 1:")
for r, d in zip(rep.r_grid, rep.deviation_profile):
    print(f"    r = {r:.2f}: {d:.6f}")
