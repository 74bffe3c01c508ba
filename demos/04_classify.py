"""
Closed, dense, or neither: classifying ideals on two domains
============================================================

"""

from fractions import Fraction

from nullsatz import BiPoly, DomainSpec, classify

Z1 = BiPoly.var(1)
Z2 = BiPoly.var(2)
HALF = Fraction(1, 2)

ball = DomainSpec.ball()
simplex = DomainSpec(p=1.0, q=1.0)

# The trichotomy is driven entirely by where the zero set meets the
# closed domain: a zero inside forces a closed (proper) subspace, no
# contact at all leaves the ideal dense, and boundary-only contact or a
# mix of component behaviours gives neither.
corpus = [
    ("(z1 - 1/2)", [Z1 - HALF]),
    ("(z1 - 2)", [Z1 - 2]),
    ("((z1 - 2)(z1 - 1/2))", [(Z1 - 2) * (Z1 - HALF)]),
    ("(z1, z2)", [Z1, Z2]),
    ("(z1 - 2, z2)", [Z1 - 2, Z2]),
    ("(z1*z2 - 1)", [Z1 * Z2 - 1]),
]

for name, gens in corpus:
    for label, dom in (("ball", ball), ("|z1|+|z2|<1", simplex)):
        v = classify(gens, dom, seed=0, with_certificate=False)
        line = f"{name:<22} on {label:<12} -> {v.overall}"
        if v.witness is not None:
            w1, w2 = v.witness
            line += f"  (zero at ({w1.real:.3f}, {w2.real:.3f}))"
        print(line)
    print(f"{'':<22}    {v.justification}")
    print()

# With a certificate attached, a DENSE verdict on a principal ideal also
# carries the full projection and dilation profiles.
v = classify([Z1 - 2], ball, seed=0, with_certificate=True)
cert = v.certificate
print(f"(z1 - 2) certificate: status {cert.status}, "
      f"d_20 = {cert.min_distance():.6f}")
