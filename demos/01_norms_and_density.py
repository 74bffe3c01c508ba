"""
Monomial norms and the two faces of a density certificate
=========================================================

"""

import math

from nullsatz import BiPoly, DomainSpec, MonomialNormTable, density_certificate

Z1 = BiPoly.var(1)

# The domains are |z1|^p + |z2|^q < 1.  Monomials are orthogonal there,
# and their squared norms come from a closed gamma-function formula.
ball = DomainSpec.ball()
simplex = DomainSpec(p=1.0, q=1.0)

print("squared monomial norms, a + b <= 2")
print(f"{'a':>2} {'b':>2} {'ball':>12} {'|z1|+|z2|<1':>12}")
tb = MonomialNormTable(ball, 2)
ts = MonomialNormTable(simplex, 2)
for a in range(3):
    for b in range(3 - a):
        print(f"{a:>2} {b:>2} {tb.norms[(a, b)]:>12.6f} {ts.norms[(a, b)]:>12.6f}")
print(f"(the ball constant is pi^2/2 = {math.pi ** 2 / 2:.6f})")

# A certificate for a principal ideal tracks two profiles.  d_N is the
# distance from the constant 1 to p * (polynomials of degree <= N); the
# dilation norm ||1 - p(z)/p(rz)|| probes the same density as r -> 1.
print()
print("p = z1 - 2 has no zero on the closed ball, so p * H should be dense")
cert = density_certificate(Z1 - 2, ball, N_max=20)
for n, d in cert.profile[:4] + cert.profile[-2:]:
    print(f"  d_{n:<2} = {d:.6f}")
r, v = cert.dilation_profile[-1]
print(f"  ||1 - f_r|| at r = {r}: {v:.6f}")
print(f"  status: {cert.status}")

# A zero inside the domain blocks density: every approximant p*q vanishes
# there, so d_N can never drop below the reproducing-kernel floor.
print()
print("p = z1 vanishes at the origin, so the distances hit a hard floor")
cert0 = density_certificate(Z1, ball, N_max=20, zero_w=(0.0, 0.0))
print(f"  d_0  = {cert0.profile[0][1]:.9f}")
print(f"  d_20 = {cert0.profile[-1][1]:.9f}")
print(f"  kernel floor K(w,w)^(-1/2) = {cert0.kernel_bound:.9f}")
print(f"  (pi / sqrt(2) = {math.pi / math.sqrt(2):.9f})")
print(f"  status: {cert0.status}")
