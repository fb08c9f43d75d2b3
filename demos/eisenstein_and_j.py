"""
Eisenstein series two ways, and the j-function
==============================================

The weight-k lattice sum E_k can be computed by brute summation over
lattice shells (with a completed tail) or through its Lambert q-series
summed in floats. Both first move tau into the fundamental domain by one
SL2(Z) reduction and share no other code, so their agreement is a real
check. j comes from the same series over the product form of the
discriminant; only its exact integer q-expansion uses exact arithmetic.
"""

import numpy as np

from periodlab import Lattice, eisenstein_lattice, eisenstein_q, j_normalized, j_q_expansion

tau = 0.2 + 1.3j
lat = Lattice.from_tau(tau)

for k in (4, 6):
    direct = eisenstein_lattice(k, lat)
    via_q = eisenstein_q(k, tau)
    print(f"E_{k}: lattice sum {direct:.15g}")
    print(f"     q-expansion {via_q:.15g}   |diff| = {abs(direct - via_q):.2e}")

# Symmetry forces exact zeros: the square lattice kills weight 6, the
# hexagonal lattice kills weight 4.
print("\nE_6(square lattice)    =", abs(eisenstein_lattice(6, Lattice.from_tau(1j))))
rho = complex(-0.5, np.sqrt(3) / 2)
print("E_4(hexagonal lattice) =", abs(eisenstein_lattice(4, Lattice.from_tau(rho))))

# j in the normalization with j(i) = 1 and j(rho) = 0; the familiar
# integer q-coefficients belong to 1728 times it.
print("\nj(i)   =", j_normalized(1j))
print("j(rho) =", j_normalized(rho))
print("j(2i)  =", 1728 * j_normalized(2j), " (expected 66^3 = 287496)")

series = j_q_expansion(6)
print("\n1728 j expansion from q^{}:".format(series.low), list(series.coeffs))
