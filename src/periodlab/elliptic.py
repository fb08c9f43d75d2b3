"""Periods of the plane cubic family ``y^2 = 4x^3 - t2 x - t3``.

For parameters ``t = (t2, t3)`` off the discriminant locus
``t2**3 - 27 t3**2 = 0`` the curve carries two independent cycles, and the
2x2 period matrix collects the integrals of the forms ``dx/y`` and
``x dx/y`` (columns) over a symplectic cycle basis (rows).

Cycle-basis convention.  At the anchor parameter ``(4, 0)`` the cubic has
roots -1, 0, 1 and the two rows are the cycles over the real segments
[-1, 0] and [0, 1], oriented so that the period ratio ``tau`` (first column,
row 1 over row 2) lies in the upper half plane and the determinant equals
``SIGMA * 2*pi*i``.  Every other parameter inherits its basis by continuation
from the anchor along a default path that detours around the discriminant
locus, passing a real root of a real segment above it.  Entry values are
always Carlson closed forms (R_F, R_D) of the cycles around two cuts that
meet at the root opposite the longest side of the root triangle, good to
about eps / relative |Delta| (machine precision away from the discriminant;
there the cut to a near-double root is known only that well).  The
continuation only resolves the integer change of basis, by rounding
``T Q^-1`` from one step point to the next, and runs no ODE (array passes
compute Q at every corner and segment midpoint, and round runs of unit
steps).  The determinant check is fixed at 1e-7 of the entry scale, so
these routes take no tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ClearanceViolation,
    NearDiscriminant,
    NonConvergent,
    NumericalError,
    RealTau,
    StepUnderflow,
    ValidationError,
    ZeroT0,
)
from .numerics import (_CARLSON_MAX_STEPS, ParamPath, _complete_rf_rd, _float_range, _number,
                       _positive, _trimmed_roots)
# Not called here: perfbench/tracer.py wraps it by this module's name.
from .numerics import quad_sqrt_singular  # noqa: F401

TWO_PI_I = 2j * np.pi

# Orientation of the anchor basis: determinant of every period matrix in the
# transported basis equals SIGMA * 2*pi*i.  Fixed once from the first anchor
# computation.
SIGMA = -1

# Parameters with |discriminant| below DELTA_FLOOR * (1 + |t2|^3 + |t3|^2)
# are rejected as effectively singular.
DELTA_FLOOR = 1e-8

BASE_T2 = 4.0 + 0.0j
BASE_T3 = 0.0 + 0.0j


@dataclass(frozen=True)
class WeierstrassPoint:
    """Parameter ``(t2, t3)`` of the family ``y^2 = 4x^3 - t2 x - t3``."""

    t2: complex
    t3: complex

    def __post_init__(self):
        t2, t3 = self.t2, self.t3
        if not (type(t2) is type(t3) is complex and cmath.isfinite(t2) and cmath.isfinite(t3)):
            object.__setattr__(self, "t2", _number("t2", t2))
            object.__setattr__(self, "t3", _number("t3", t3))

    def as_array(self) -> np.ndarray:
        return np.array([self.t2, self.t3], dtype=np.complex128)


@dataclass(frozen=True)
class KhodayaPoint:
    """Parameter of the four-coefficient family
    ``y^2 = 4 t0 (x - t1)^3 - t2 (x - t1) - t3`` with ``t0 != 0``."""

    t0: complex
    t1: complex
    t2: complex
    t3: complex

    def __post_init__(self):
        for name in ("t0", "t1", "t2", "t3"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.t0 == 0:
            raise ZeroT0("t0 must be nonzero")


def _pair(t) -> tuple[complex, complex]:
    """Complex ``(t2, t3)`` of a WeierstrassPoint or a pair of numbers."""
    if isinstance(t, WeierstrassPoint):
        return t.t2, t.t3
    if isinstance(t, np.ndarray):
        t = t.tolist()  # Python scalars unpack far faster than numpy ones
    try:
        t2, t3 = t
    except (TypeError, ValueError):
        raise ValidationError(f"expected a (t2, t3) pair of numbers, got {t!r}") from None
    return _number("t2", t2), _number("t3", t3)


def _as_khodaya(k) -> KhodayaPoint:
    """Coerce a KhodayaPoint or a (t0, t1, t2, t3) tuple of numbers."""
    if isinstance(k, KhodayaPoint):
        return k
    try:
        return KhodayaPoint(*k)
    except TypeError:  # not four values; a bad value raises ValidationError
        raise ValidationError(
            f"expected a (t0, t1, t2, t3) tuple of numbers, got {k!r}") from None


def as_weierstrass(t) -> WeierstrassPoint:
    """Coerce a WeierstrassPoint or a (t2, t3) pair of numbers."""
    return t if isinstance(t, WeierstrassPoint) else WeierstrassPoint(*_pair(t))


def discriminant(t):
    """``t2**3 - 27 t3**2`` at one point, or at each row of an (m, 2) ndarray;
    zero exactly on the singular members; finite or NumericalError."""
    if isinstance(t, np.ndarray) and t.ndim == 2 and t.shape[1] == 2 and \
            t.dtype.kind in "iufc" and np.isfinite(t).all():  # else _pair refuses it
        t2, t3 = t.T.astype(np.complex128)
        with np.errstate(all="ignore"):  # an overflow is a non-finite value
            d = t2 * t2 * t2 - 27.0 * (t3 * t3)
        if np.isfinite(d).all():
            return d
        t2, t3 = t[np.isfinite(d).argmin()]
    else:
        t2, t3 = _pair(t)
        d = t2 * t2 * t2 - 27.0 * (t3 * t3)  # bitwise the powers, but inf where they raise
        if cmath.isfinite(d):
            return d
    raise NumericalError(f"the discriminant at t=({t2}, {t3}) is outside the float range")


def _delta_scale(p: WeierstrassPoint) -> float:
    return 1.0 + abs(p.t2) ** 3 + abs(p.t3) ** 2


def _require_away_from_discriminant(p: WeierstrassPoint) -> None:
    d = discriminant(p)
    try:
        if abs(d) < DELTA_FLOOR * _delta_scale(p):
            raise NearDiscriminant(f"discriminant {d:.3e} too small at t=({p.t2}, {p.t3})")
    except OverflowError:  # |d| or |t2|^3 past the float range while d is finite
        raise NumericalError(f"t=({p.t2}, {p.t3}) is outside the float range") from None


def scale_action(lam: complex, t) -> WeierstrassPoint:
    """The weighted scaling ``(t2, t3) -> (lam^4 t2, lam^6 t3)``.

    Under this action the curve is rescaled by ``(x, y) -> (lam^2 x,
    lam^3 y)``, so the two period columns pick up factors ``lam**-1`` and
    ``lam`` respectively.
    """
    lam = _number("lam", lam)
    if lam == 0:
        from .errors import ZeroLambda
        raise ZeroLambda("lam must be nonzero")
    p = as_weierstrass(t)
    try:
        return WeierstrassPoint(lam ** 4 * p.t2, lam ** 6 * p.t3)
    except (OverflowError, ValidationError):  # a power or a product past the float range
        raise NumericalError(f"the scaling by {lam} is outside the float range") from None


_CUBE_ROOTS_OF_ONE = (1.0, complex(-0.5, 0.5 * math.sqrt(3.0)),
                      complex(-0.5, -0.5 * math.sqrt(3.0)))


def curve_roots(t) -> np.ndarray:
    """Roots of ``4x^3 - t2 x - t3``, Newton-polished, sorted by (Re, Im).

    Cardano on ``x^3 + P x + Q`` with ``P = -t2/4``, ``Q = -t3/4``: the
    sign of the square root is the one that keeps ``-Q/2 +- sqrt(Q^2/4 +
    P^3/27)`` away from cancellation, ``u`` is its principal cube root, and
    the roots ``w u - P/(3 w u)`` over the cube roots of unity ``w`` get two
    Newton steps each.  ``u`` is nonzero off the discriminant, and above
    ``DELTA_FLOOR`` the roots stay at least about 3e-5 (1 + max|e|) apart,
    so Newton's derivative stays away from zero.
    """
    p = as_weierstrass(t)
    _require_away_from_discriminant(p)
    t2, t3 = p.t2, p.t3
    P, Q = -0.25 * t2, -0.25 * t3
    s = cmath.sqrt(0.25 * Q * Q + P * P * P / 27.0)
    w = -0.5 * Q + s
    if abs(w) < abs(-0.5 * Q - s):
        w = -0.5 * Q - s
    u = w ** (1.0 / 3.0)
    roots = []
    for omega in _CUBE_ROOTS_OF_ONE:
        v = omega * u
        x = v - P / (3.0 * v)
        for _ in range(2):
            x -= (4.0 * x * x * x - t2 * x - t3) / (12.0 * x * x - t2)
        roots.append(x)
    roots.sort(key=lambda e: (e.real, e.imag))
    return np.array(roots, dtype=np.complex128)


def _segment_cycle(e_a: complex, e_b: complex, e_c: complex):
    """Integrals of (dx/y, x dx/y) over the cycle around the cut [e_a, e_b].

    On the cut ``x = e_a + u d`` with ``d = e_b - e_a`` and
    ``zeta = d / (e_a - e_c)``, the branch of
    ``y = 2 sqrt((x-e_a)(x-e_b)(x-e_c))`` is kept continuous by factoring it
    as ``sqrt(u) sqrt(d) sqrt(1-u) sqrt(-d) sqrt(e_a-e_c) sqrt(1+zeta u)``
    with principal roots, which needs the third root e_c off the cut (``1 +
    zeta u`` off zero; ``_CUTS`` sees to it).  The u-integrals of
    ``1/sqrt(u(1-u)(1+zeta u))`` and ``u/sqrt(...)`` are
    ``2 R_F(0, 1, 1+zeta)`` and ``(2/3) R_D(0, 1+zeta, 1)``; the cycle
    integral is twice the cut one.  Both are complete, so one AGM of 1 and
    ``sqrt(1+zeta)`` gives them (``_complete_rf_rd``; DLMF 19.8(i), 19.22(ii)).
    """
    d = e_b - e_a
    ac = e_a - e_c
    pre = 2.0 * d / (cmath.sqrt(d) * cmath.sqrt(-d) * cmath.sqrt(ac))
    rf, rd = _complete_rf_rd(1.0 + d / ac)
    return pre * rf, pre * (e_a * rf + d * rd / 3.0)


# Root indices (a, b, c) of the two cuts [e_a, e_b] and [e_b, e_c], by the
# index b of the root they share: the root opposite the longest side of the
# root triangle.  Its angle is the largest, so the third root of either cut
# stays at least sin 60 degrees times the smallest root gap off that cut.
_CUTS = ((2, 0, 1), (0, 1, 2), (1, 2, 0))


def _carlson_matrix(t):
    """Period matrix of ``t`` over two cut cycles sharing a branch point.

    Returned as nested tuples ``((row1), (row2))``.  The rows form a
    symplectic basis up to sign and integer change of basis; which one
    depends on the root configuration, so callers needing the anchor basis
    must still align the rows.
    """
    e0, e1, e2 = roots = [complex(e) for e in curve_roots(t)]
    l0, l1, l2 = abs(e1 - e2), abs(e0 - e2), abs(e0 - e1)  # the side opposite each root
    ia, ib, ic = _CUTS[0 if l0 >= l1 and l0 >= l2 else 1 if l1 >= l2 else 2]
    row1 = _segment_cycle(roots[ia], roots[ib], roots[ic])
    row2 = _segment_cycle(roots[ib], roots[ic], roots[ia])
    det = row1[0] * row2[1] - row1[1] * row2[0]
    size = max(abs(v) for v in row1 + row2)
    if not abs(abs(det) - 2.0 * math.pi) < 1e-4 * (1.0 + size ** 2):
        raise NonConvergent("the cut cycles failed the determinant check")
    return row1, row2


def _carlson_matrices(points):
    """``_carlson_matrix`` at each (t2, t3) row of ``points``, in one array pass.

    Returns the (n, 2, 2) matrices and a mask of the points settled: all
    but those where ``_carlson_matrix`` raises (below ``DELTA_FLOOR``, a
    non-finite entry, a failed determinant check), whose matrices are NaN.
    A settled matrix is the scalar one to the roots' rounding, up to the
    order and sign of its rows (rounding orders tied real parts and picks
    the branch of a real cut), or another pair of the same lattice where two
    sides of the root triangle tie.
    """
    t2, t3 = np.asarray(points, dtype=np.complex128).reshape(-1, 2).T[:, :, None]
    with np.errstate(all="ignore"):
        settled = abs(t2 * t2 * t2 - 27.0 * (t3 * t3)) >= \
            DELTA_FLOOR * (1.0 + abs(t2) ** 3 + abs(t3) ** 2)
        P, Q = -0.25 * t2, -0.25 * t3
        s = np.sqrt(0.25 * Q * Q + P * P * P / 27.0)
        w = np.where(abs(-0.5 * Q + s) < abs(-0.5 * Q - s), -0.5 * Q - s, -0.5 * Q + s)
        v = w ** (1.0 / 3.0) * np.array(_CUBE_ROOTS_OF_ONE)
        x = v - P / (3.0 * v)
        for _ in range(2):
            x -= (4.0 * x * x * x - t2 * x - t3) / (12.0 * x * x - t2)
        e = np.sort(x)  # by (Re, Im)
        sides = abs(e[:, [1, 0, 0]] - e[:, [2, 2, 1]])  # the side opposite each root
        e = np.take_along_axis(e, np.array(_CUTS)[sides.argmax(axis=1)], axis=1)
        # the two cuts [e_a, e_b] and [e_b, e_c], third roots e_c and e_a
        e_a, d, ac = e[:, :2], e[:, 1:] - e[:, :2], e[:, :2] - e[:, [2, 0]]
        w = 1.0 + d / ac  # the AGM of _complete_rf_rd, per element
        a, g, c_sq = np.ones_like(w), np.sqrt(w), 1.0 - w
        ratio, series = np.ones_like(w), np.full_like(w, 0.5)
        rf, rd = np.full_like(w, np.nan), np.full_like(w, np.nan)
        live = np.repeat(settled, 2, axis=1)
        for n in range(_CARLSON_MAX_STEPS):
            if not live.any():
                break
            a_next = 0.5 * (a + g)
            c = c_sq / (4.0 * a_next)
            ratio *= c / (4.0 * a_next)
            series += 2.0 ** n * ratio
            g = np.sqrt(a * g)
            g[(a_next.conj() * g).real < 0.0] *= -1.0
            a, c_sq = a_next, c * c
            stop = live & (abs(c) <= 1e-17 * abs(a))
            rf[stop] = 0.5 * math.pi / a[stop]
            rd[stop] = 3.0 * rf[stop] * series[stop]
            live &= ~stop
        pre = 2.0 * d / (np.sqrt(d) * np.sqrt(-d) * np.sqrt(ac))
        Qs = np.stack([pre * rf, pre * (e_a * rf + d * rd / 3.0)], axis=-1)
        det = Qs[:, 0, 0] * Qs[:, 1, 1] - Qs[:, 0, 1] * Qs[:, 1, 0]
        settled = settled[:, 0] & np.isfinite(Qs).all(axis=(1, 2)) & \
            (abs(abs(det) - 2.0 * math.pi) < 1e-4 * (1.0 + abs(Qs).max(axis=(1, 2)) ** 2))
    Qs[~settled] = np.nan
    return Qs, settled


@dataclass(frozen=True)
class PeriodMatrix2:
    """2x2 period matrix; rows are cycles, columns are (dx/y, x dx/y)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.shape != (2, 2):
            raise ValidationError("period matrix must be 2x2")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.entries))

    @property
    def tau(self) -> complex:
        """First-column ratio row1/row2; in the upper half plane."""
        return complex(self.entries[0, 0] / self.entries[1, 0])

    def lattice_basis(self) -> tuple[complex, complex]:
        """Generators of the period lattice (first column, row order)."""
        return complex(self.entries[0, 0]), complex(self.entries[1, 0])

    def validate(self, tol: float = 1e-6) -> None:
        det, tol = self.det, _positive("tol", tol)
        target = SIGMA * TWO_PI_I
        scale = 1.0 + float(np.abs(self.entries).max()) ** 2
        if abs(det - target) > tol * scale:
            raise NumericalError(
                f"determinant {det} differs from {target} beyond {tol:.1e}")
        if self.tau.imag <= 0:
            raise NumericalError("period ratio not in the upper half plane")


@lru_cache(maxsize=1)
def _anchor_matrix() -> np.ndarray:
    """Oriented period matrix at the anchor (4, 0).

    Row 1 is the cycle over [-1, 0] with positive real period; row 2 over
    [0, 1], oriented so the period ratio has positive imaginary part.
    """
    Q = np.array(_carlson_matrix((BASE_T2, BASE_T3)), dtype=np.complex128)
    if Q[0, 0].real < 0:
        Q[0] = -Q[0]
    if (Q[0, 0] / Q[1, 0]).imag < 0:
        Q[1] = -Q[1]
    det = np.linalg.det(Q)
    if abs(det - SIGMA * TWO_PI_I) > 1e-6:
        raise NumericalError(
            f"anchor determinant {det} incompatible with SIGMA={SIGMA}")
    Q.setflags(write=False)
    return Q


def default_path(t) -> ParamPath:
    """Straight path from the anchor to ``t``, detoured around the discriminant locus.

    The segment is parametrized by ``s in [0, 1]``; the discriminant along
    it is a cubic polynomial in ``s``, and each root close to the real unit
    interval is avoided by a polygonal semicircle in the complex ``s``
    plane, on the side away from the root, except a last root past
    ``s = 1``.  A root on the real axis is passed above.  A real segment's
    cubic is solved in real arithmetic, so its real roots are exactly real
    and the side never follows rounding noise.  The detours are taken in the
    order the eigenvalue solver returns the roots.  The last waypoint is
    ``t`` itself, and the path's clearance is the exact per-segment bound of
    ``ParamPath``.
    """
    p1 = as_weierstrass(t)
    _require_away_from_discriminant(p1)
    a0, a1 = np.array([BASE_T2, BASE_T3]), p1.as_array()
    q = a1 - a0
    # discriminant along the segment as a cubic in s
    coeffs = np.array([
        q[0] ** 3,
        3.0 * a0[0] * q[0] ** 2 - 27.0 * q[1] ** 2,
        3.0 * a0[0] ** 2 * q[0] - 54.0 * a0[1] * q[1],
        a0[0] ** 3 - 27.0 * a0[1] ** 2,
    ], dtype=np.complex128)
    if not coeffs.imag.any():  # a real segment: its real roots come out exactly real
        coeffs = coeffs.real
    _, s_roots, _ = _trimmed_roots(coeffs[None])
    s_roots = s_roots[0][~np.isnan(s_roots[0])]

    near = [s for s in s_roots if abs(s.imag) <= 0.15 and -0.1 <= s.real <= 1.1]
    hazards = sorted(s.real for s in near)
    if near and near[-1].real > 1.0:
        # its detour would come back to s = 1 along the real axis, through
        # a real root; the straight end is homotopic to it (or its limit)
        near.pop()
    svals: list[complex] = [0.0]
    cursor = 0.0
    for s0 in near:
        c = s0.real
        rho = max(0.2, 2.5 * abs(s0.imag))
        gaps = [abs(c - h) for h in hazards if abs(c - h) > 1e-12]
        if gaps:
            rho = min(rho, 0.45 * min(gaps))
        rho = min(rho, max(0.9 * abs(c), 0.05), max(0.9 * abs(1.0 - c), 0.05))
        side = -1.0 if s0.imag > 0 else 1.0
        if c - rho > cursor:
            svals.append(c - rho)
        n_arc = 12
        for j in range(1, n_arc + 1):
            theta = side * np.pi * (1.0 - j / n_arc)
            svals.append(c + rho * np.exp(1j * theta))
        cursor = c + rho
    if svals[-1] != 1.0:  # an arc ends at s = cursor
        svals.append(1.0)

    waypoints = np.array([a0 + s * q for s in svals], dtype=np.complex128)
    waypoints[-1] = a1
    try:
        return ParamPath(waypoints, discriminant=discriminant)
    except ClearanceViolation as exc:
        raise NearDiscriminant(f"could not certify a path to {t}: {exc}")


# Largest distance from the nearest integer matrix at which T Q^-1 counts
# as a clean rounding in the basis continuation.
_ROUNDING_GATE = 0.3
# Smallest continuation step, in the parameter of one path segment.
_STEP_FLOOR = 256.0 * float(np.finfo(np.float64).eps)


def _integer_change(T, Q):
    """``round(T Q^-1)`` as nested int tuples, or None when it is not clean.

    Clean means every entry lies within ``_ROUNDING_GATE`` of its integer
    and the integer matrix is unimodular.
    """
    (t00, t01), (t10, t11) = T
    (q00, q01), (q10, q11) = Q
    det = q00 * q11 - q01 * q10
    entries = ((t00 * q11 - t01 * q10) / det, (t01 * q00 - t00 * q01) / det,
               (t10 * q11 - t11 * q10) / det, (t11 * q00 - t10 * q01) / det)
    ints = []
    for v in entries:
        if not (abs(v.imag) < _ROUNDING_GATE and abs(v.real) < 2.0 ** 52):
            return None  # also a non-finite entry, which round() refuses
        n = round(v.real)
        if abs(v - n) >= _ROUNDING_GATE:
            return None
        ints.append(n)
    n00, n01, n10, n11 = ints
    if abs(n00 * n11 - n01 * n10) != 1:
        return None
    return (n00, n01), (n10, n11)


def _apply(N, Q):
    """The integer combination ``N Q`` of the rows of ``Q``."""
    (n00, n01), (n10, n11) = N
    (q00, q01), (q10, q11) = Q
    return ((n00 * q00 + n01 * q10, n00 * q01 + n01 * q11),
            (n10 * q00 + n11 * q10, n10 * q01 + n11 * q11))


# Integers below it multiply exactly in a float, so ``_unit_steps``'
# unimodularity test is exact.
_RUN_BOUND = 2.0 ** 26
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _unit_steps(N, Q, points):
    """The Ns of the next segments that the scan, at ``T = _apply(N, Q)``,
    takes in one h = 1 step each, given their Carlson matrices at s = 1 and
    s = 0.5 alternating in ``points``.  Each N is predicted by rounding the
    ratio of consecutive end matrices, chained in Python ints; one array pass
    then checks the scan's three roundings (N, N_mid and the half-step N) on
    every segment, by ``_integer_change``'s terms, gate and unimodularity."""
    with np.errstate(all="ignore"):
        adj = points[:, ::-1, ::-1].transpose(0, 2, 1) * _ADJUGATE_SIGNS
        det = (points[:, 0, 0] * points[:, 1, 1] - points[:, 0, 1] * points[:, 1, 0])[:, None, None]

        def ratios(T, k):  # T Q^-1 of the stack T and points[k], term for term
            return (T[:, :, :1] * adj[k, None, 0] + T[:, :, 1:] * adj[k, None, 1]) / det[k]

        corners = np.concatenate([[Q], points[0::2]])
        V = ratios(corners[:-1], slice(0, None, 2))
        R = np.rint(V.real)
        clean = (abs(V - R) < _ROUNDING_GATE).all(axis=(1, 2))
        Ns = [N]
        for R_i in R[:np.logical_and.accumulate(clean).sum()].astype(int).tolist():
            if R_i != [[1, 0], [0, 1]]:  # mostly it is
                N = _apply(N, R_i)
                if max(map(abs, N[0] + N[1])) >= _RUN_BOUND:
                    break
            Ns.append(N)
        r, chain = len(Ns) - 1, np.array(Ns, dtype=float)
        # T at each segment start as _apply forms it; T Q^-1 at the end and
        # the midpoint, and from N_mid Q_mid at the end
        T = chain[:-1, :, :1] * corners[:r, None, 0] + chain[:-1, :, 1:] * corners[:r, None, 1]
        V = ratios(T.repeat(2, axis=0), slice(0, 2 * r))
        N_mid, mid = np.rint(V[1::2].real), points[1:2 * r:2]
        T = N_mid[:, :, :1] * mid[:, None, 0] + N_mid[:, :, 1:] * mid[:, None, 1]
        V = np.stack([V[0::2], ratios(T, slice(0, 2 * r, 2)), V[1::2]])
        N = np.stack([chain[1:], chain[1:], N_mid])
        ok = ((abs(V - N) < _ROUNDING_GATE) & (abs(N) < _RUN_BOUND)).all(axis=(0, 2, 3)) & \
            (abs(N[..., 0, 0] * N[..., 1, 1] - N[..., 0, 1] * N[..., 1, 0]) == 1.0).all(axis=0)
    return Ns[1:1 + np.logical_and.accumulate(ok).sum()]


def _continue_basis(waypoints, T):
    """Carry the cycle basis of ``T`` along a polygon by integer rounding.

    At each step point the Carlson matrix Q is computed directly, and the
    continued matrix becomes ``N Q`` with ``N = round(T Q^-1)``.  A step
    from s to s + h on a segment is accepted only when the direct rounding
    and two half-steps agree on N; it then doubles, otherwise it halves.
    The step carries over from one segment to the next.  Returns the
    continued matrix at the last waypoint, which is ``N Q`` there.

    Q at s = 1 and s = 0.5 of every segment comes from one
    ``_carlson_matrices`` pass before the scan, on the cuts of
    ``_carlson_matrix`` (its rows may differ in order and sign, to which the
    rounding is blind, and where two sides of the root triangle tie, in the
    pair).  Other step points, and the points the pass leaves unsettled, use
    ``_carlson_matrix``, which raises there as an all-scalar scan would.
    After a segment taken in one h = 1 step, ``_unit_steps`` takes, in one
    array pass, the next segments that the scan would take so too, with the
    same N; the scan goes on from the first one it leaves.
    """
    segments = [(k, a, b) for k, (a, b) in enumerate(zip(waypoints[:-1], waypoints[1:]))
                if a != b]
    first = [pt for _, a, b in segments for pt in (b, [u + 0.5 * (v - u) for u, v in zip(a, b)])]
    Q_first, settled = _carlson_matrices(first)
    Qs, settled = Q_first.tolist(), settled.tolist()
    h, j = 1.0, 0
    while j < len(segments):
        k, a, b = segments[j]
        # a rejected step's midpoint is the next step's end
        cache = {s: Qs[i] for s, i in ((1.0, 2 * j), (0.5, 2 * j + 1)) if settled[i]}

        def carlson_at(s):
            if s not in cache:
                pt = b if s == 1.0 else [u + s * (v - u) for u, v in zip(a, b)]
                cache[s] = _carlson_matrix(pt)
            return cache[s]

        s, whole = 0.0, None
        while s < 1.0:
            h = min(h, 1.0 - s)
            if h < _STEP_FLOOR:
                raise StepUnderflow(
                    f"continuation step {h:.3e} below floor {_STEP_FLOOR:.3e} "
                    f"at s={s} of segment {k} on the path to t={waypoints[-1]}")
            end = 1.0 if h == 1.0 - s else s + h
            Q_end = carlson_at(end)
            N = _integer_change(T, Q_end)
            if N is not None:
                Q_mid = carlson_at(s + 0.5 * h)
                N_mid = _integer_change(T, Q_mid)
                if N_mid is not None and \
                        _integer_change(_apply(N_mid, Q_mid), Q_end) == N:
                    T, whole = _apply(N, Q_end), (N, Q_end) if h == 1.0 else None
                    s = end
                    h *= 2.0
                    continue
            h *= 0.5
        j += 1
        if whole and j < len(segments):
            Ns = _unit_steps(*whole, Q_first[2 * j:])
            j += len(Ns)
            T = _apply(Ns[-1], Qs[2 * j - 2]) if Ns else T
    return T


def period_matrix(t) -> PeriodMatrix2:
    """Period matrix of ``t`` in the basis continued from the anchor.

    The entries are Carlson closed forms of two cut cycles at ``t``, good
    to about eps / relative |Delta|: machine precision away from the
    discriminant, while two equally accurate root routes differ by 9.3e-13
    relative at relative |Delta| 1e-4 and 1.6e-9 at 3e-8.  The integer
    combination of them that is the continued anchor basis comes from
    rounding along the default path (see ``_continue_basis``).
    """
    p = as_weierstrass(t)
    anchor = _anchor_matrix()
    if p.t2 == BASE_T2 and p.t3 == BASE_T3:
        return PeriodMatrix2(anchor)
    P = PeriodMatrix2(_continue_basis(default_path(p).waypoints.tolist(), anchor.tolist()))
    P.validate(1e-7)
    return P


def period_map_tau(t) -> complex:
    """Upper-half-plane ratio of the first period column at ``t``."""
    return period_matrix(t).tau


def reduce_khodaya(k: KhodayaPoint):
    """Reduce the four-coefficient family to ``y^2 = 4v^3 - a v - b``.

    Substituting ``x = s v + t1`` with ``s = t0**(-1/3)`` (principal branch)
    gives the reduced parameters ``(t2 * s, t3)``.  Returns the reduced
    point and the scale ``s``.
    """
    k = _as_khodaya(k)
    s = k.t0 ** (-1.0 / 3.0)
    if not cmath.isfinite(k.t2 * s):
        raise NumericalError(f"the reduced t2 of {k} is outside the float range")
    reduced = WeierstrassPoint(k.t2 * s, k.t3)
    _require_away_from_discriminant(reduced)
    return reduced, s


def khodaya_period_matrix(k: KhodayaPoint) -> PeriodMatrix2:
    """Period matrix of the four-coefficient family member.

    With reduced matrix ``R`` and scale ``s``: column 1 is ``s * R[:, 0]``
    and column 2 is ``s * (s * R[:, 1] + t1 * R[:, 0])``, from pulling the
    forms back through ``x = s v + t1``.
    """
    k = _as_khodaya(k)
    reduced, s = reduce_khodaya(k)
    R = period_matrix(reduced).entries
    out = np.empty((2, 2), dtype=np.complex128)
    with _float_range(f"the period matrix of {k}"):
        out[:, 0] = s * R[:, 0]
        out[:, 1] = s * (s * R[:, 1] + k.t1 * R[:, 0])
    return PeriodMatrix2(out)


def tau_to_upper(tau: complex) -> complex:
    """Normalize a non-real ratio into the upper half-plane.

    Negation preserves the lattice Z tau + Z, so a ratio below the real
    axis maps to ``-tau``.
    """
    tau = _number("tau", tau)
    if tau.imag == 0:
        raise RealTau("tau must have nonzero imaginary part")
    return tau if tau.imag > 0 else -tau
