"""
Splitting a variety into curves and isolated points
===================================================

"""

from pathlib import Path

from nullsatz import BiPoly, decompose_curve, decompose_ideal, load_ideal, load_poly

DATA = Path(__file__).resolve().parent / "data"

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)

# A reducible curve: z2^2 - z1^2 = (z2 - z1)(z2 + z1).  The linear trace
# test decides which sheets belong to the same irreducible component: over
# parallel lines the sum of a component's points moves affinely, and the
# sum over any other set of sheets does not.
g = load_poly(str(DATA / "twolines.json"))
comps = decompose_curve(g, seed=0)
print(f"z2^2 - z1^2 splits into {len(comps)} components")
for i, c in enumerate(comps):
    w1, w2 = c.witnesses[0]
    print(f"  component {i}: sheets {c.orbit}, witness z1 = {w1:.4f}, "
          f"z2 = {w2:.4f}")

# A cusp looks reducible to the eye (the discriminant is a fourth power)
# but no proper set of its sheets passes the trace test.
cusp = decompose_curve(Z2**3 - Z1**2, seed=0)
print(f"z2^3 - z1^2 stays irreducible: {len(cusp)} component, "
      f"sheets {cusp[0].orbit}")

# An ideal with two generators: the gcd carries the common curve, and the
# leftover cofactors cut out finitely many extra points.
gens = load_ideal(str(DATA / "mixed_ideal.json"))
dec = decompose_ideal(gens, seed=0)
print()
print("ideal ((z2^2 - z1)(z2 - 2), (z2^2 - z1)(z1 - 3))")
print(f"  common curve components: {len(dec.curve_components)}")
for c in dec.curve_components:
    print(f"    sheets {c.orbit}, degree in z2: {c.deg_z2}")
print(f"  isolated points off the curve: {len(dec.points)}")
for pt in dec.points:
    z1, z2 = pt.location
    print(f"    ({z1.real:.4f}{z1.imag:+.4f}i, {z2.real:.4f}{z2.imag:+.4f}i), "
          f"max residual {max(pt.residuals):.2e}")
