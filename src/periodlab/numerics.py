"""Core numerics: paths, linear ODE transport, endpoint-singular quadrature.

All scalars are complex128; tolerances are absolute distances in the complex
plane unless a docstring says otherwise.  Everything here is a pure function
of its inputs, so results are reproducible bit for bit and safe to evaluate
in parallel.

The two workhorses are

``integrate_linear_ode``
    transports a square complex matrix ``Y`` along a piecewise-linear path in
    parameter space under ``dY = Y A(t)^T dt``, with an embedded
    Runge-Kutta 4(5) pair and proportional step control;

``quad_sqrt_singular``
    integrates a function with at worst inverse square-root endpoint
    behaviour along a straight segment, by a substitution that removes the
    half-power singularities followed by Gauss-Legendre refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    ClearanceViolation,
    NonConvergent,
    NonFiniteRHS,
    StepUnderflow,
    ValidationError,
)

DEFAULT_TOL = 1e-10

_EPS = float(np.finfo(np.float64).eps)

# points per segment at which ParamPath samples |discriminant|
_CERTIFICATE_SAMPLES = 33


def _as_waypoints(waypoints) -> np.ndarray:
    arr = np.asarray(waypoints, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValidationError("waypoints must be a sequence of at least two points")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError("waypoints must be finite")
    return arr


class ParamPath:
    """Piecewise-linear path in C^s with an optional discriminant certificate.

    Parameters
    ----------
    waypoints : array_like
        Sequence of points in C^s, shape (n, s); a 1-d sequence is read as a
        path in C^1.  Consecutive duplicates are allowed and skipped during
        integration.
    clearance : float, optional
        Claimed lower bound for |discriminant| along the path.  Must be
        positive when given.
    discriminant : callable, optional
        Map from a point of C^s to a complex number.  When supplied, the
        linear interpolation of the waypoints is sampled and the observed
        minimum of |discriminant| is checked against ``clearance`` (or stored
        as the clearance when none was claimed).
    """

    def __init__(self, waypoints, clearance=None, discriminant=None):
        self.waypoints = _as_waypoints(waypoints)
        if clearance is not None and not clearance > 0.0:
            raise ValidationError("clearance must be positive")
        self.clearance = None if clearance is None else float(clearance)
        if discriminant is not None:
            observed = self._min_abs_discriminant(discriminant)
            if self.clearance is None:
                if not observed > 0.0:
                    raise ClearanceViolation(
                        "path touches the discriminant locus")
                # Halve so later, denser samplings stay above the certificate.
                self.clearance = 0.5 * observed
            elif observed < self.clearance:
                raise ClearanceViolation(
                    f"observed |discriminant| {observed:.3e} below claimed "
                    f"clearance {self.clearance:.3e}")

    def _min_abs_discriminant(self, discriminant) -> float:
        u = np.linspace(0.0, 1.0, _CERTIFICATE_SAMPLES)
        worst = np.inf
        for start, velocity in self.segments():
            pts = start[None, :] + u[:, None] * velocity[None, :]
            vals = np.array([discriminant(p) for p in pts], dtype=np.complex128)
            worst = min(worst, float(np.min(np.abs(vals))))
        return worst

    @property
    def dimension(self) -> int:
        return self.waypoints.shape[1]

    @property
    def start(self) -> np.ndarray:
        return self.waypoints[0].copy()

    @property
    def end(self) -> np.ndarray:
        return self.waypoints[-1].copy()

    def is_closed(self) -> bool:
        return bool(np.array_equal(self.waypoints[0], self.waypoints[-1]))

    def segments(self):
        """Yield (start, velocity) per non-degenerate segment."""
        for k in range(self.waypoints.shape[0] - 1):
            start = self.waypoints[k]
            velocity = self.waypoints[k + 1] - start
            if np.any(velocity != 0):
                yield start, velocity

    def length(self) -> float:
        return float(sum(np.linalg.norm(v) for _, v in self.segments()))

    def reversed(self) -> "ParamPath":
        return ParamPath(self.waypoints[::-1].copy(), clearance=self.clearance)

    def concat(self, other: "ParamPath") -> "ParamPath":
        if not np.array_equal(self.waypoints[-1], other.waypoints[0]):
            raise ValidationError("paths do not share an endpoint")
        joined = np.vstack([self.waypoints, other.waypoints[1:]])
        clearance = None
        if self.clearance is not None and other.clearance is not None:
            clearance = min(self.clearance, other.clearance)
        return ParamPath(joined, clearance=clearance)


@dataclass(frozen=True)
class LinearODESystem:
    """Right-hand side of ``dY = Y A^T`` along paths in C^s.

    ``rhs(point, velocity)`` must return the connection matrix already
    contracted with the velocity vector, i.e. the matrix ``A`` such that
    moving from ``point`` with the given (complex) velocity for parameter
    time ``ds`` changes a row vector ``y`` by ``dy = y A^T ds``.
    """

    dimension: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4

_MAX_STEPS = 200_000


def integrate_linear_ode(system: LinearODESystem, path: ParamPath, Y0,
                         tol: float = DEFAULT_TOL, max_step: float | None = None):
    """Transport ``Y0`` along ``path`` under ``dY = Y A(t)^T dt``.

    Parameters
    ----------
    system : LinearODESystem
    path : ParamPath
    Y0 : array_like
        Square complex matrix of size ``system.dimension``.
    tol : float
        Bound on the estimated local error per accepted step (entrywise,
        absolute).
    max_step : float, optional
        Cap on the step in segment parameter (each segment spans [0, 1]).
        Setting it below the accuracy-chosen step yields fixed-step
        behaviour, which is what convergence-order studies want.

    Returns
    -------
    ndarray
        The transported matrix at the end of the path.
    """
    mu = system.dimension
    Y = np.array(Y0, dtype=np.complex128)
    if Y.shape != (mu, mu):
        raise ValidationError(f"Y0 must be {mu}x{mu}")
    if not tol > 0.0:
        raise ValidationError("tol must be positive")

    h_floor = 256.0 * _EPS
    budget = _MAX_STEPS

    for start, velocity in path.segments():

        def f(sigma: float, Y: np.ndarray) -> np.ndarray:
            A = np.asarray(system.rhs(start + sigma * velocity, velocity),
                           dtype=np.complex128)
            if A.shape != (mu, mu):
                raise ValidationError("rhs returned a matrix of wrong shape")
            if not np.all(np.isfinite(A.view(np.float64))):
                raise NonFiniteRHS("rhs returned a non-finite matrix")
            return Y @ A.T

        sigma = 0.0
        h = 0.1 if max_step is None else min(0.1, max_step)
        while sigma < 1.0:
            if 1.0 - sigma < h_floor:
                break  # roundoff remainder, not a genuine underflow
            h = min(h, 1.0 - sigma)
            if h < h_floor:
                raise StepUnderflow(
                    f"step {h:.3e} below floor {h_floor:.3e} at sigma={sigma}")
            k = [f(sigma, Y)]
            for i in range(1, 7):
                Yi = Y + h * sum(a * ki for a, ki in zip(_DP_A[i], k))
                k.append(f(sigma + _DP_C[i] * h, Yi))
            err_mat = h * sum(e * ki for e, ki in zip(_DP_E, k))
            err = float(np.max(np.abs(err_mat)))
            if not np.isfinite(err):
                raise NonFiniteRHS("non-finite state during integration")
            if err <= tol:
                Y = Y + h * sum(b * ki for b, ki in zip(_DP_B5, k))
                sigma += h
            budget -= 1
            if budget <= 0:
                raise NonConvergent("step budget exhausted")
            factor = 0.9 * (tol / err) ** 0.2 if err > 0.0 else 5.0
            h *= min(5.0, max(0.2, factor))
            if max_step is not None:
                h = min(h, max_step)
    return Y


def quad_sqrt_singular(integrand: Callable[[complex], complex], a, b,
                       tol: float = DEFAULT_TOL, max_nodes: int = 8192) -> complex:
    """Integrate along the segment [a, b] allowing half-power endpoint blowup.

    The integrand must be analytic on the open segment and behave at worst
    like ``(x - a)**-0.5`` near ``a`` and ``(x - b)**-0.5`` near ``b``.  The
    substitution ``x = a + (b - a) sin(phi)**2`` turns both endpoint
    half-powers into analytic factors; the transformed integral is then done
    with Gauss-Legendre rules of doubling size until two successive sizes
    agree to ``tol``.

    Nodes are strictly interior, so the integrand is never evaluated at the
    endpoints.
    """
    a = complex(a)
    b = complex(b)
    d = b - a
    if d == 0:
        raise ValidationError("quadrature endpoints coincide")
    if not tol > 0.0:
        raise ValidationError("tol must be positive")

    previous = None
    n = 16
    while n <= max_nodes:
        x_leg, w_leg = leggauss(n)
        phi = (x_leg + 1.0) * (np.pi / 4.0)
        weights = w_leg * (np.pi / 4.0) * d * np.sin(2.0 * phi)
        x = a + d * np.sin(phi) ** 2
        vals = np.array([integrand(xi) for xi in x], dtype=np.complex128)
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise NonConvergent("integrand produced non-finite values")
        total = complex(np.sum(weights * vals))
        if previous is not None and abs(total - previous) <= 0.5 * tol:
            return total
        previous = total
        n *= 2
    raise NonConvergent(
        f"quadrature did not stabilize to {tol:.3e} within {max_nodes} nodes")


def nearest_integer_matrix(M, tol: float):
    """Round a complex matrix to integers, checking the rounding is small.

    Returns ``(N, deviation)`` where ``N`` is the integer matrix and
    ``deviation`` is the largest distance of any entry from its integer.
    Raises ``NonConvergent`` when the deviation exceeds ``tol``; callers that
    want a more specific error catch and rethrow.
    """
    M = np.asarray(M, dtype=np.complex128)
    N = np.round(M.real).astype(np.int64)
    deviation = float(np.max(np.abs(M - N)))
    if deviation > tol:
        raise NonConvergent(
            f"matrix is not integral: deviation {deviation:.3e} > {tol:.3e}")
    return N, deviation
