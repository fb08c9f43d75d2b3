"""
Parallel transport of periods and the integer matrix around a singular fiber
============================================================================

Periods satisfy a linear ODE in the family parameters (a rank-2
connection). Transporting a period matrix along an open path reproduces
the period matrix computed at the endpoint from Carlson's closed forms.
Around a closed loop, monodromy follows the closed forms themselves,
fixing the integer change of cycle basis by rounding at each step; a loop
around a zero of the discriminant returns the periods changed by an
integer unipotent matrix.
"""

import numpy as np

from periodlab import (
    ParamPath,
    circle_loop,
    discriminant,
    monodromy,
    period_matrix,
    transport,
)

# --- open path: transport vs the closed forms ----------------------------
a = (4.0, 0.0)
b = (4.0, 1.0)
path = ParamPath([a, b], discriminant=discriminant)
print("path clearance (lower bound on |Delta| from the cubic along the segment):",
      path.clearance)

pm_a = period_matrix(a)
pm_b = transport(path, pm_a)
direct = period_matrix(b)
print("transported end:\n", pm_b.entries)
print("max deviation vs the closed forms:",
      np.max(np.abs(pm_b.entries - direct.entries)))
print("det drift along the path:", abs(pm_b.det - pm_a.det))

# --- closed loop: monodromy ----------------------------------------------
# At t2 = 4 the discriminant vanishes where 27 t3^2 = 64. Circling one
# of those points cannot bring the cycle basis back unchanged. The
# closed forms are continued around the loop (no ODE), so the matrix is
# integral to rounding.
t3_star = np.sqrt(64.0 / 27.0)
loop = circle_loop(4.0, t3_star, 0.6)
m = monodromy(loop)
print("\nmonodromy around t3 =", t3_star)
print(m.entries)
print("integer deviation before rounding:", m.deviation)
print("trace:", m.trace)

nil = (m.entries - np.eye(2, dtype=int)) @ (m.entries - np.eye(2, dtype=int))
print("(M - I)^2 =\n", nil)

double = monodromy(circle_loop(4.0, t3_star, 0.6, turns=2))
print("\ndouble loop equals M^2:",
      np.array_equal(double.entries, m.entries @ m.entries))

# A loop that encloses no singular point is invisible to the periods.
trivial = monodromy(circle_loop(4.0, 8.0, 0.5))
print("far loop is trivial:",
      np.array_equal(trivial.entries, np.eye(2, dtype=int)))
