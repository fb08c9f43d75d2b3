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

``transport`` integrates this system, with ``connection_matrix`` as the
right-hand side of ``integrate_linear_ode``.  ``monodromy`` runs no ODE: it
continues the Carlson matrices of ``elliptic`` around the loop by integer
rounding, so the ODE stays an independent route to the same matrix.
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
    ParamPath,
    _float_range,
    _integer,
    _number,
    _positive,
    integrate_linear_ode,
    nearest_integer_matrix,
)

INTEGRALITY_TOL = 1e-4


def connection_matrix(t, v) -> np.ndarray:
    """Connection contracted with the direction ``v = (v2, v3)``."""
    p, (v2, v3) = elliptic.as_weierstrass(t), elliptic._pair(v)
    delta_big = elliptic.discriminant(p)
    with _float_range("the connection along this direction"):
        if abs(delta_big) < 1e-12 * elliptic._delta_scale(p):
            raise NearDiscriminant("connection pole: discriminant vanishes")
        d_delta = 3.0 * p.t2 ** 2 * v2 - 54.0 * p.t3 * v3
        delta_small = 3.0 * p.t3 * v2 - 2.0 * p.t2 * v3
        return np.array(
            [[-d_delta / 12.0, -1.5 * delta_small],
             [(p.t2 / 8.0) * delta_small, d_delta / 12.0]],
            dtype=np.complex128) / delta_big


def _require_plane_path(path: ParamPath) -> None:
    if path.dimension != 2:
        raise ValidationError(
            f"path must lie in the (t2, t3) plane C^2, not C^{path.dimension}")


def transport_entries(path: ParamPath, start_entries, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Raw matrix transport along ``path`` (no period-specific validation)."""
    _require_plane_path(path)
    return integrate_linear_ode(connection_matrix, path, start_entries, tol=tol)


def transport(path: ParamPath, basepoint_periods, tol: float = DEFAULT_TOL) -> elliptic.PeriodMatrix2:
    """Transport a period matrix along a parameter path.

    ``basepoint_periods`` may be a PeriodMatrix2 or a plain 2x2 array for
    the path start; the result is the period matrix at the path end in the
    continued basis.
    """
    start = getattr(basepoint_periods, "entries", basepoint_periods)
    return elliptic.PeriodMatrix2(transport_entries(path, start, tol))


def circle_loop(t2, center, radius, turns: int = 1, sides: int = 64) -> ParamPath:
    """Closed polygonal loop in the t3 plane at fixed t2.

    ``turns`` is a nonzero integer (not a bool), negative for the opposite
    orientation; the circle of the given center and radius is approximated
    by a ``sides``-gon per turn (an integer of at least 3), starting and
    ending at ``center + radius``.
    """
    sides, turns = _integer("sides", sides, 3), _integer("turns", turns)
    if not turns:
        raise ValidationError("turns must be a nonzero integer")
    radius, t2, center = _positive("radius", radius), _number("t2", t2), _number("center", center)
    n = sides * abs(turns)
    angles = 2.0 * np.pi * turns * np.arange(n + 1) / n
    t3 = center + radius * np.exp(1j * angles)
    waypoints = np.column_stack([np.full(n + 1, t2), t3])
    waypoints[-1] = waypoints[0]
    try:
        return ParamPath(waypoints, discriminant=elliptic.discriminant)
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


def monodromy(loop: ParamPath, basepoint_periods=None) -> MonodromyMatrix:
    """Monodromy of the cycle basis around a closed parameter loop.

    The basepoint period matrix ``P0`` defaults to ``period_matrix`` at the
    loop start.  Returns the integer matrix ``M`` with ``P_end = M P0``.

    No ODE runs: the Carlson matrix ``Q0`` at the start is continued around
    the loop by integer rounding (``elliptic._continue_basis``, the route of
    ``period_matrix``; its one array pass covers every step point of a loop
    whose steps all hold at h = 1), which ends at ``M_Q Q0`` with ``M_Q`` an
    integer matrix.  In the rows of ``P0`` the same monodromy is
    ``C M_Q C^-1`` with ``C = P0 Q0^-1``; it is formed from the unrounded
    ``T_end Q0^-1`` and rounded once, so the reported deviation measures both
    whether the loop closed and the basis change.  A loop that does not
    close, or a ``P0`` that is no period matrix, gives a non-integral
    result and ``NonIntegralMonodromy``.
    """
    _require_plane_path(loop)
    if not loop.is_closed():
        raise ValidationError("monodromy requires a closed loop")
    start = tuple(loop.start)
    if basepoint_periods is None:
        basepoint_periods = elliptic.period_matrix(start)
    P0 = np.asarray(getattr(basepoint_periods, "entries", basepoint_periods), dtype=complex)
    if P0.shape != (2, 2) or not np.all(np.isfinite(P0)) or np.linalg.det(P0) == 0:
        raise ValidationError("basepoint periods must be a finite invertible 2x2 matrix")
    Q0 = np.array(elliptic._carlson_matrix(start))
    T_end = np.array(elliptic._continue_basis(loop.waypoints.tolist(), Q0.tolist()))
    Q0_inv = np.linalg.inv(Q0)
    C = P0 @ Q0_inv
    # T_end is M_Q times the very Q0 (the loop ends where it starts)
    M = C @ (T_end @ Q0_inv) @ np.linalg.inv(C)
    try:
        M_int, deviation = nearest_integer_matrix(M, INTEGRALITY_TOL)
    except NonConvergent as exc:
        raise NonIntegralMonodromy(str(exc))
    return MonodromyMatrix(M_int, deviation)
