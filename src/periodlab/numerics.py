"""Core numerics: paths, linear ODE transport, endpoint-singular quadrature.

All scalars are complex128; tolerances are absolute distances in the complex
plane unless a docstring says otherwise.  Everything here is a pure function
of its inputs, so results are reproducible bit for bit and safe to evaluate
in parallel.

``ParamPath`` certifies a path against a discriminant hook that is a
polynomial of degree at most 3 along each straight segment (t2^3 - 27 t3^2
is): the cubic through 4 samples per segment gives a lower bound on
|discriminant| from its roots, exact up to the rounding of the samples.

``integrate_linear_ode`` transports a square complex matrix ``Y`` along a
piecewise-linear path in parameter space under ``dY = Y A(t)^T dt``, with
an embedded Runge-Kutta 4(5) pair and proportional step control.  The
private kernels ``_carlson_rf`` and ``_carlson_rd`` evaluate Carlson's
symmetric elliptic integrals by duplication in plain complex arithmetic;
they give ``elliptic`` its cut-cycle closed forms.  ``quad_sqrt_singular``
(Gauss-Legendre after a substitution that removes half-power endpoint
singularities) is the tests' independent check of those closed forms; the
library does not call it.
"""

from __future__ import annotations

import cmath
import math
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

# Nodes at which ParamPath samples the discriminant hook on a segment, and
# the inverse Vandermonde matrix that turns the samples into the
# coefficients of the cubic through them, highest power first.
_CUBIC_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
_CUBIC_FIT = np.linalg.inv(np.vander(_CUBIC_NODES))


def _trimmed_roots(coeffs):
    """Leading coefficient, roots and dropped size of ``coeffs`` (highest first).

    Leading coefficients at most 1e-14 of the largest modulus are dropped as
    rounding noise; the sum of their moduli bounds their value for |s| <= 1.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    size = np.abs(coeffs)
    keep = np.flatnonzero(size > 1e-14 * size.max())
    if not len(keep):
        return 0.0, np.array([]), 0.0
    first = keep[0]
    return coeffs[first], np.roots(coeffs[first:]), float(size[:first].sum())


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
    discriminant : callable, optional
        Map from a point of C^s to a complex number that is a polynomial of
        degree at most 3 along every straight segment.  When supplied, the
        cubic through 4 samples per segment gives ``clearance``, the least
        over the segments of |lead| * prod dist(root, [0, 1]) less any
        dropped noise coefficients: a lower bound on |discriminant| along
        the path up to the rounding of the samples.  A bound that is not
        positive raises ``ClearanceViolation``.
    """

    def __init__(self, waypoints, discriminant=None):
        self.waypoints = _as_waypoints(waypoints)
        self.clearance = None
        if discriminant is not None:
            self.clearance = self._certified_clearance(discriminant)
            if not self.clearance > 0.0:
                raise ClearanceViolation(
                    f"path touches the discriminant locus: certified "
                    f"|discriminant| {self.clearance:.3e}")

    def _certified_clearance(self, discriminant) -> float:
        worst = np.inf
        for start, velocity in self.segments():
            vals = np.array([discriminant(start + u * velocity) for u in _CUBIC_NODES],
                            dtype=np.complex128)
            lead, roots, dropped = _trimmed_roots(_CUBIC_FIT @ vals)
            dist = np.abs(roots - np.clip(roots.real, 0.0, 1.0))
            worst = min(worst, float(abs(lead) * np.prod(dist)) - dropped)
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
        back = ParamPath(self.waypoints[::-1].copy())
        back.clearance = self.clearance
        return back

    def concat(self, other: "ParamPath") -> "ParamPath":
        if not np.array_equal(self.waypoints[-1], other.waypoints[0]):
            raise ValidationError("paths do not share an endpoint")
        joined = ParamPath(np.vstack([self.waypoints, other.waypoints[1:]]))
        if self.clearance is not None and other.clearance is not None:
            joined.clearance = min(self.clearance, other.clearance)
        return joined


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
        k1 = f(sigma, Y)
        while sigma < 1.0:
            if 1.0 - sigma < h_floor:
                break  # roundoff remainder, not a genuine underflow
            h = min(h, 1.0 - sigma)
            if h < h_floor:
                raise StepUnderflow(
                    f"step {h:.3e} below floor {h_floor:.3e} at sigma={sigma}")
            k = [k1]
            for i in range(1, 7):
                Yi = Y + h * sum(a * ki for a, ki in zip(_DP_A[i], k))
                k.append(f(sigma + _DP_C[i] * h, Yi))
            err_mat = h * sum(e * ki for e, ki in zip(_DP_E, k))
            err = float(np.max(np.abs(err_mat)))
            if not np.isfinite(err):
                raise NonFiniteRHS("non-finite state during integration")
            if err <= tol:
                # the last stage is the 5th-order solution at sigma + h (FSAL)
                Y, k1 = Yi, k[6]
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


# Relative truncation error aimed at by the Carlson duplication kernels.
_CARLSON_R = 1e-16
# Duplications before a kernel gives up; each one divides the spread of
# the arguments by 4, so a convergent case needs far fewer.
_CARLSON_MAX_STEPS = 100


def _carlson_scale(x: complex, y: complex, z: complex) -> float:
    """Largest modulus of the arguments, by which both kernels divide them.

    R_F and R_D are homogeneous of degrees -1/2 and -3/2 under positive
    scaling, so working at unit size keeps the duplication away from
    overflow and underflow.
    """
    m = max(abs(x), abs(y), abs(z))
    if not 0.0 < m < float("inf"):
        raise NonConvergent(f"Carlson arguments out of range: {x}, {y}, {z}")
    return m


def _duplicate(x: complex, y: complex, z: complex) -> complex:
    sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
    return sx * sy + sx * sz + sy * sz


def _carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson's R_F(x, y, z) by duplication (Carlson 1995, DLMF 19.36.1).

    Arguments lie off the cut (-inf, 0], at most one of them zero; square
    roots are principal.  Raises ``NonConvergent`` when the duplication
    cannot reach the stopping test (two zero arguments, where R_F diverges).
    """
    m = _carlson_scale(x, y, z)
    x, y, z = x / m, y / m, z / m
    a0 = (x + y + z) / 3.0
    dx, dy = a0 - x, a0 - y
    q = (3.0 * _CARLSON_R) ** (-1.0 / 6.0) * max(abs(dx), abs(dy), abs(a0 - z))
    a, scale = a0, 1.0
    for _ in range(_CARLSON_MAX_STEPS):
        if q * scale < abs(a):
            X, Y = dx * scale / a, dy * scale / a
            Z = -X - Y
            e2, e3 = X * Y - Z * Z, X * Y * Z
            return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
                    - 3.0 * e2 * e3 / 44.0) / cmath.sqrt(a * m)
        lam = _duplicate(x, y, z)
        x, y, z, a = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0, (a + lam) / 4.0
        scale /= 4.0
    raise NonConvergent("R_F duplication did not converge")


def _carlson_rd(x: complex, y: complex, z: complex) -> complex:
    """Carlson's R_D(x, y, z) by duplication (Carlson 1995, DLMF 19.36.2).

    All arguments lie off the cut (-inf, 0], ``z`` is nonzero and at most
    one of ``x``, ``y`` is zero; square roots are principal.  Raises
    ``NonConvergent`` when the duplication cannot reach the stopping test.
    """
    m = _carlson_scale(x, y, z)
    x, y, z = x / m, y / m, z / m
    a0 = (x + y + 3.0 * z) / 5.0
    dx, dy = a0 - x, a0 - y
    q = (_CARLSON_R / 4.0) ** (-1.0 / 6.0) * max(abs(dx), abs(dy), abs(a0 - z))
    a, scale, tail = a0, 1.0, 0.0
    for _ in range(_CARLSON_MAX_STEPS):
        if q * scale < abs(a):
            X, Y = dx * scale / a, dy * scale / a
            Z = -(X + Y) / 3.0
            xy, zz = X * Y, Z * Z
            e2 = xy - 6.0 * zz
            e3 = (3.0 * xy - 8.0 * zz) * Z
            e4 = 3.0 * (xy - zz) * zz
            e5 = xy * zz * Z
            series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
                      - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
            value = (scale * series / (a * cmath.sqrt(a)) + 3.0 * tail) / m / math.sqrt(m)
            if not cmath.isfinite(value):
                raise NonConvergent("R_D is outside the float range")
            return value
        lam = _duplicate(x, y, z)
        tail += scale / (cmath.sqrt(z) * (z + lam))
        x, y, z, a = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0, (a + lam) / 4.0
        scale /= 4.0
    raise NonConvergent("R_D duplication did not converge")


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
