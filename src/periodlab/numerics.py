"""Core numerics: paths, linear ODE transport, endpoint-singular quadrature.

All scalars are complex128; tolerances are absolute distances in the complex
plane unless a docstring says otherwise.  Everything here is a pure function
of its inputs, so results are reproducible bit for bit and safe to evaluate
in parallel. ``_number`` (a finite ``numbers.Number``), ``_integer`` (4.0 is 4, True is
refused) and ``_positive`` (positive and finite) read every scalar argument of the public API.

``ParamPath`` certifies a path against a discriminant hook that is a
polynomial of degree at most 3 along each straight segment (t2^3 - 27 t3^2
is): the cubic through 4 samples per segment gives a lower bound on
|discriminant| from its roots, exact up to the rounding of the samples.

``integrate_linear_ode(rhs, path, Y0)`` transports a square complex matrix
along a piecewise-linear path under ``dY = Y A(t)^T dt``, ``A = rhs(point,
velocity)``, with an embedded Runge-Kutta 4(5) pair and step control.  The
private kernel ``_complete_rf_rd`` evaluates the complete Carlson integrals
R_F and R_D from one quadratically convergent AGM (DLMF 19.8(i), 19.22(ii));
they give ``elliptic`` its cut-cycle closed forms.  ``quad_sqrt_singular``
(Gauss-Legendre after a substitution that removes half-power endpoint
singularities) is the tests' independent check of those closed forms; the
library does not call it.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager, suppress
from numbers import Number
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    ClearanceViolation,
    NonConvergent,
    NonFiniteRHS,
    NumericalError,
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
    """Leading coefficients, roots and dropped sizes of the rows of ``coeffs``.

    Each row is a polynomial, highest power first.  Leading coefficients at
    most 1e-14 of the row's largest modulus are dropped as rounding noise;
    the sum of their moduli bounds their value for |s| <= 1.  The roots are
    the eigenvalues of stacked companion matrices, one ``eigvals`` call per
    trimmed degree; missing ones are NaN.  An all-zero row has lead 0.  Real
    rows are solved in real arithmetic, so that their real roots are exact.
    """
    coeffs = np.asarray(coeffs, dtype=complex if np.iscomplexobj(coeffs) else float)
    rows, width = coeffs.shape
    size = np.abs(coeffs)
    keep = size > 1e-14 * size.max(axis=1, keepdims=True)
    first = np.where(keep.any(axis=1), keep.argmax(axis=1), width - 1)
    lead = coeffs[np.arange(rows), first]
    dropped = np.where(np.arange(width) < first[:, None], size, 0.0).sum(axis=1)
    roots = np.full((rows, width - 1), np.nan, dtype=np.complex128)
    for degree in range(1, width):
        sel = np.flatnonzero(first == width - 1 - degree)
        if not len(sel):
            continue
        companion = np.zeros((len(sel), degree, degree), dtype=coeffs.dtype)
        companion[:, 0, :] = -coeffs[sel, width - degree:] / lead[sel, None]
        companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
        roots[sel, :degree] = np.linalg.eigvals(companion)
    return lead, roots, dropped


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
        the path up to the rounding of the samples (3n + 1 hook calls for n
        segments), or |discriminant| at the one point of a path that never
        moves.  A bound that is not positive raises ``ClearanceViolation``.
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
        pts = self.waypoints
        moving = np.any(pts[1:] != pts[:-1], axis=1)
        starts = pts[:-1][moving]
        velocity = pts[1:][moving] - starts
        n = len(starts)
        # the corners, each segment's s = 1 sample being the next one's s = 0
        # sample, then the s = 1/3 and s = 2/3 samples
        points = [starts, pts[-1:]] + [starts + u * velocity for u in _CUBIC_NODES[1:3]]
        samples = np.array([discriminant(p) for p in np.vstack(points)], dtype=np.complex128)
        if not np.all(np.isfinite(samples)):
            return float("nan")
        if not n:
            return float(abs(samples[0]))
        vals = np.column_stack([samples[:n], samples[n + 1:2 * n + 1],
                                samples[2 * n + 1:], samples[1:n + 1]])
        with _float_range("the clearance of this path"):
            lead, roots, dropped = _trimmed_roots(vals @ _CUBIC_FIT.T)
            dist = np.abs(roots - np.clip(roots.real, 0.0, 1.0))
            bound = np.abs(lead) * np.prod(dist, axis=1, where=~np.isnan(roots)) - dropped
        return float(bound.min())

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


def integrate_linear_ode(rhs: Callable[[np.ndarray, np.ndarray], np.ndarray], path: ParamPath,
                         Y0, tol: float = DEFAULT_TOL, max_step: float | None = None):
    """Transport ``Y0`` along ``path`` under ``dY = Y A(t)^T dt``.

    Parameters
    ----------
    rhs : callable
        ``rhs(point, velocity)`` is the connection contracted with the
        velocity: the ``A`` of ``dy = y A^T ds`` for a row vector ``y``.
    path : ParamPath
    Y0 : array_like
        Square complex matrix; ``rhs`` must return matrices of its size.
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
    Y = np.array(Y0, dtype=np.complex128)
    if Y.ndim != 2 or Y.shape[0] != Y.shape[1]:
        raise ValidationError(f"Y0 must be a square matrix, got shape {Y.shape}")
    tol = _positive("tol", tol)
    max_step = None if max_step is None else _positive("max_step", max_step)

    h_floor = 256.0 * _EPS
    budget = _MAX_STEPS

    for start, velocity in path.segments():

        def f(sigma: float, Y: np.ndarray) -> np.ndarray:
            A = np.asarray(rhs(start + sigma * velocity, velocity), dtype=np.complex128)
            if A.shape != Y.shape:
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
    a, b, tol = _number("a", a), _number("b", b), _positive("tol", tol)
    max_nodes = _integer("max_nodes", max_nodes)
    d = b - a
    if d == 0:
        raise ValidationError("quadrature endpoints coincide")

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


# AGM rounds before ``_complete_rf_rd`` gives up; a convergent case needs
# far fewer, since the spread of the means squares each round.
_CARLSON_MAX_STEPS = 100


def _complete_rf_rd(w: complex):
    """Complete Carlson integrals (R_F(0, 1, w), R_D(0, w, 1)), w off (-inf, 0].

    With M the AGM of 1 and sqrt(w), R_F = pi / (2 M) and R_D = 3 R_F (1/2 +
    sum_{n >= 1} 2^(n-1) c_n^2 / (1 - w)) (DLMF 19.8(i), 19.22(ii), 19.25(i)).
    c_1 = (1 - w) / (4 a_1), c_{n+1} = c_n^2 / (4 a_{n+1}) and a running
    product for c_n^2 / (1 - w) keep w -> 1 free of cancellation; each g is
    the root nearer the next a (the principal branch).  Stops once |c_n| <=
    1e-17 |a_n|; raises ``NonConvergent`` after ``_CARLSON_MAX_STEPS``
    rounds (w = 0 or non-finite) or on a non-finite result.
    """
    a, g = 1.0, cmath.sqrt(w)
    c_sq, ratio, weight, series = 1.0 - w, 1.0, 0.5, 0.5
    for _ in range(_CARLSON_MAX_STEPS):
        a_next = 0.5 * (a + g)
        c = c_sq / (4.0 * a_next)
        ratio *= c / (4.0 * a_next)  # c_n^2 / (1 - w)
        weight *= 2.0
        series += weight * ratio
        g = cmath.sqrt(a * g)
        if (a_next.conjugate() * g).real < 0.0:  # |a - g| > |a + g|
            g = -g
        a, c_sq = a_next, c * c
        if abs(c) <= 1e-17 * abs(a):
            rf = 0.5 * math.pi / a
            rd = 3.0 * rf * series
            if not (cmath.isfinite(rf) and cmath.isfinite(rd)):
                raise NonConvergent(f"complete Carlson integrals at w={w} overflow")
            return rf, rd
    raise NonConvergent(f"AGM of 1 and sqrt({w}) did not converge")


def nearest_integer_matrix(M, tol: float):
    """Round a complex matrix to integers, checking the rounding is small.

    Returns ``(N, deviation)`` where ``N`` is the integer matrix and
    ``deviation`` is the largest distance of any entry from its integer.
    Raises ``NonConvergent`` when the deviation exceeds ``tol``; callers that
    want a more specific error catch and rethrow.
    """
    M, tol = np.asarray(M, dtype=np.complex128), _positive("tol", tol)
    N = np.round(M.real).astype(np.int64)
    deviation = float(np.max(np.abs(M - N)))
    if deviation > tol:
        raise NonConvergent(
            f"matrix is not integral: deviation {deviation:.3e} > {tol:.3e}")
    return N, deviation


def exact_integers(values, error, what):
    """``values`` as an int64 array if every entry is an integer or a finite float
    (complex with zero imaginary part) equal to one of at most 2^53, else ``error``;
    bools, strings and None are refused."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = np.array(None)
    if arr.dtype.kind == "i" or arr.dtype.kind == "u" and np.all(arr < 2 ** 63):  # no wrap
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind in "fc" and np.all(np.isfinite(arr)) and not np.any(arr.imag):
        real = arr.real
        if np.all((np.abs(real) <= 2.0 ** 53) & (real == np.round(real))):
            return real.astype(np.int64)
    raise error(f"{what} must have integer entries")


def _integer_det(a):
    """Exact determinant of a square integer array (Bareiss, in Python ints)."""
    m, det, prev = a.tolist(), 1, 1
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        m[k], m[pivot], det = m[pivot], m[k], det if pivot == k else -det
        for i in range(k + 1, len(m)):
            m[i] = [(x * m[k][k] - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    return det * prev


# Largest |weight| (the j-qexp cap) and ks-count n, d: work grows with it; (c tau + d)^-n
# loses phase near 2^53, and binomial(2001, 1000) already has about 600 digits.
MAX_WEIGHT = 1000


def _number(name, value) -> complex:
    """``value`` as a finite complex number, or ValidationError naming the field."""
    if isinstance(value, Number):
        try:
            if cmath.isfinite(z := complex(value)):
                return z
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{name} must be a finite number, got {value!r}")


def _integer(name, value, low=-math.inf, high=math.inf) -> int:
    """``value`` as an int in [low, high] by the rule of ``exact_integers``, else ValidationError."""
    with suppress(ValidationError):
        n = exact_integers(value, ValidationError, name)
        if not n.ndim and low <= n <= high:
            return int(n)
    bound = " and ".join(f"{o} {v}" for o, v in ((">=", low), ("<=", high)) if math.isfinite(v))
    raise ValidationError(f"{name} must be an integer {bound}".rstrip() + f", got {value!r}")


def _positive(name, value) -> float:
    """``value`` as a positive finite float, or ValidationError naming the field."""
    with suppress(ValidationError):
        if not (z := _number(name, value)).imag and z.real > 0.0:
            return z.real
    raise ValidationError(f"{name} must be positive and finite, got {value!r}")


@contextmanager
def _float_range(what):
    """NumericalError where the block overflows, divides by zero or makes a nan."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError, ZeroDivisionError):
        raise NumericalError(f"{what} is outside the float range") from None
