"""First-order system for the periods of ``y^2 = 4x^3 - t2 x - t3``.

Both rows of a period matrix satisfy, in each parameter direction
``v = (v2, v3)``,

    d(eta1, eta2)^T = A(t; v) (eta1, eta2)^T,

with the trace-free connection

    A = (1/Delta) [[-dDelta/12,    -(3/2) delta],
                   [(t2/8) delta,   dDelta/12  ]],

    dDelta = 3 t2^2 v2 - 54 t3 v3,    delta = 3 t3 v2 - 2 t2 v3.

The sign of the lower-left entry is forced by the column convention
(columns are the integrals of dx/y and x dx/y): it is the unique choice
under which finite differences of directly computed period matrices satisfy
the system, and it follows from the cohomology reductions of d(x^k / y).

so a full matrix transports by ``dP = P A^T``.  Zero trace makes the
determinant an exact constant of transport; closed loops therefore return
an integer, determinant-one change of cycle basis (the monodromy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elliptic
from .errors import (
    ClearanceViolation,
    NearDiscriminant,
    NonConvergent,
    NonIntegralMonodromy,
    ValidationError,
)
from .numerics import (
    DEFAULT_TOL,
    LinearODESystem,
    ParamPath,
    integrate_linear_ode,
    nearest_integer_matrix,
)

INTEGRALITY_TOL = 1e-4


def connection_matrix(t, v) -> np.ndarray:
    """Connection contracted with the direction ``v = (v2, v3)``."""
    p = elliptic.as_weierstrass(t)
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (2,):
        raise ValidationError("direction must have two components")
    delta_big = elliptic.discriminant(p)
    if abs(delta_big) < 1e-12 * elliptic._delta_scale(p):
        raise NearDiscriminant("connection pole: discriminant vanishes")
    d_delta = 3.0 * p.t2 ** 2 * v[0] - 54.0 * p.t3 * v[1]
    delta_small = 3.0 * p.t3 * v[0] - 2.0 * p.t2 * v[1]
    return np.array(
        [[-d_delta / 12.0, -1.5 * delta_small],
         [(p.t2 / 8.0) * delta_small, d_delta / 12.0]],
        dtype=np.complex128) / delta_big


def gm_system() -> LinearODESystem:
    """The transport system, packaged for ``integrate_linear_ode``."""
    return LinearODESystem(
        dimension=2,
        rhs=lambda point, velocity: connection_matrix(point, velocity))


def transport_entries(path: ParamPath, start_entries, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Raw matrix transport along ``path`` (no period-specific validation)."""
    Y0 = np.asarray(start_entries, dtype=np.complex128)
    return integrate_linear_ode(gm_system(), path, Y0, tol=tol)


def transport(path: ParamPath, basepoint_periods, tol: float = DEFAULT_TOL) -> elliptic.PeriodMatrix2:
    """Transport a period matrix along a parameter path.

    ``basepoint_periods`` may be a PeriodMatrix2 or a plain 2x2 array for
    the path start; the result is the period matrix at the path end in the
    continued basis.
    """
    if isinstance(basepoint_periods, elliptic.PeriodMatrix2):
        start = basepoint_periods.entries
    else:
        start = np.asarray(basepoint_periods, dtype=np.complex128)
    return elliptic.PeriodMatrix2(transport_entries(path, start, tol))


def circle_loop(t2, center, radius, turns: int = 1, sides: int = 64) -> ParamPath:
    """Closed polygonal loop in the t3 plane at fixed t2.

    ``turns`` may be negative for the opposite orientation; the circle of
    the given center and radius is approximated by a ``sides``-gon per turn,
    starting and ending at ``center + radius``.
    """
    turns = int(turns)
    if turns == 0:
        raise ValidationError("turns must be a nonzero integer")
    if not 0 < radius < np.inf:
        raise ValidationError("radius must be positive and finite")
    t2 = complex(t2)
    center = complex(center)
    n = sides * abs(turns)
    angles = 2.0 * np.pi * turns * np.arange(n + 1) / n
    t3 = center + radius * np.exp(1j * angles)
    waypoints = np.column_stack([np.full(n + 1, t2), t3])
    waypoints[-1] = waypoints[0]
    try:
        return ParamPath(waypoints, discriminant=lambda pt: elliptic.discriminant(pt))
    except ClearanceViolation as exc:
        raise NearDiscriminant(f"loop touches the discriminant locus: {exc}")


@dataclass(frozen=True)
class MonodromyMatrix:
    """Integer cycle-basis change around a closed loop."""

    entries: np.ndarray
    deviation: float

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.int64)
        if arr.shape != (2, 2):
            raise ValidationError("monodromy matrix must be 2x2")
        det = int(arr[0, 0]) * int(arr[1, 1]) - int(arr[0, 1]) * int(arr[1, 0])
        if det != 1:
            raise NonIntegralMonodromy(f"monodromy determinant {det} != 1")
        if not self.deviation <= INTEGRALITY_TOL:
            raise NonIntegralMonodromy(
                f"near-integer deviation {self.deviation:.3e} exceeds "
                f"{INTEGRALITY_TOL:.0e}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def trace(self) -> int:
        return int(self.entries[0, 0] + self.entries[1, 1])


def monodromy(loop: ParamPath, basepoint_periods=None,
              tol: float = DEFAULT_TOL) -> MonodromyMatrix:
    """Monodromy of the cycle basis around a closed parameter loop.

    The basepoint period matrix defaults to ``period_matrix`` at the loop
    start.  Returns the integer matrix ``M`` with ``P_end = M P_start``.
    """
    if not loop.is_closed():
        raise ValidationError("monodromy requires a closed loop")
    if basepoint_periods is None:
        basepoint_periods = elliptic.period_matrix(tuple(loop.start), tol)
    if isinstance(basepoint_periods, elliptic.PeriodMatrix2):
        P0 = basepoint_periods.entries
    else:
        P0 = np.asarray(basepoint_periods, dtype=np.complex128)
    P1 = transport_entries(loop, P0, tol)
    M = P1 @ np.linalg.inv(P0)
    try:
        M_int, deviation = nearest_integer_matrix(M, INTEGRALITY_TOL)
    except NonConvergent as exc:
        raise NonIntegralMonodromy(str(exc))
    return MonodromyMatrix(M_int, deviation)
