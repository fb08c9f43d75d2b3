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
continuation only resolves the integer change of basis, from the braid the
three roots trace along the path, and runs no ODE: steps certified by
Rouche's theorem keep each root in its own disk, roots are ordered along
the direction e^(0.3i), and each swap of two adjacent roots is a
Picard-Lefschetz half twist of the ordered cut-cycle basis (``_braid``).
The rounding to the Carlson basis at the end point is fixed at 0.25 and
the determinant check at 1e-7 of the entry scale, so these routes take no
tolerance.
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
    ValidationError,
    ZeroT0,
)
from .numerics import (ParamPath, _complete_rf_rd, _float_range, _number, _positive,
                       _trimmed_roots, nearest_integer_matrix)
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


def _roots(p: WeierstrassPoint) -> list[complex]:
    """The roots of ``4x^3 - t2 x - t3`` at ``p``, unsorted; NearDiscriminant
    below ``DELTA_FLOOR``.

    Cardano on ``x^3 + P x + Q`` with ``P = -t2/4``, ``Q = -t3/4``: the
    sign of the square root is the one that keeps ``-Q/2 +- sqrt(Q^2/4 +
    P^3/27)`` away from cancellation, ``u`` is its principal cube root, and
    the roots ``w u - P/(3 w u)`` over the cube roots of unity ``w`` get two
    Newton steps each.  ``u`` is nonzero off the discriminant, and above
    ``DELTA_FLOOR`` the roots stay at least about 3e-5 (1 + max|e|) apart,
    so Newton's derivative stays away from zero.
    """
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
    return roots


def curve_roots(t) -> np.ndarray:
    """Roots of ``4x^3 - t2 x - t3``, Newton-polished, sorted by (Re, Im)."""
    roots = _roots(as_weierstrass(t))
    roots.sort(key=lambda e: (e.real, e.imag))
    return np.array(roots, dtype=np.complex128)


def _segment_cycle(e_a: complex, e_b: complex, e_c: complex, rho: complex):
    """Integrals of (dx/y, x dx/y) over the cycle around the cut [e_a, e_b].

    On the cut ``x = e_a + u d`` with ``d = e_b - e_a`` and
    ``zeta = d / (e_a - e_c)``, the branch of ``y`` is
    ``2i d S sqrt(u) sqrt(1-u) sqrt(1+zeta u)`` with principal roots and
    ``S = sqrt(rho) sqrt((e_a - e_c)/rho)``, a square root of ``e_a - e_c``
    that is continuous while ``(e_a - e_c)/rho`` stays off the negative
    axis.  It needs the third root e_c off the cut (``1 + zeta u`` off
    zero).  The u-integrals of ``1/sqrt(u(1-u)(1+zeta u))`` and
    ``u/sqrt(...)`` are ``2 R_F(0, 1, 1+zeta)`` and ``(2/3) R_D(0, 1+zeta,
    1)``; the cycle integral is twice the cut one, so the prefactor is
    ``-2i / S``.  Both are complete, so one AGM of 1 and ``sqrt(1+zeta)``
    gives them (``_complete_rf_rd``; DLMF 19.8(i), 19.22(ii)).
    """
    d = e_b - e_a
    ac = e_a - e_c
    pre = -2j / (cmath.sqrt(rho) * cmath.sqrt(ac / rho))
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
    row1 = _segment_cycle(roots[ia], roots[ib], roots[ic], 1.0)
    row2 = _segment_cycle(roots[ib], roots[ic], roots[ia], 1.0)
    det = row1[0] * row2[1] - row1[1] * row2[0]
    size = max(abs(v) for v in row1 + row2)
    if not abs(abs(det) - 2.0 * math.pi) < 1e-4 * (1.0 + size ** 2):
        raise NonConvergent("the cut cycles failed the determinant check")
    return row1, row2


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


# The walk orders the roots by their projection p(e) = Re(e / _ROT).
_ROT = cmath.exp(0.3j)


def _ordered_basis(f) -> np.ndarray:
    """Rows: the cycles around the cuts [f1, f2] and [f2, f3] of roots in
    ascending p; columns (dx/y, x dx/y).

    With ``rho = -_ROT`` for the first cut and ``_ROT`` for the second,
    ``(e_a - e_c)/rho`` has Re >= 0 and ``1 + zeta`` is the ratio of two
    root differences in one closed half plane, so it stays off (-inf, 0]:
    the values are analytic in the roots as long as their p-order holds.
    """
    f1, f2, f3 = f
    return np.array([_segment_cycle(f1, f2, f3, -_ROT), _segment_cycle(f2, f3, f1, _ROT)])


def _braid(waypoints):
    """The braid word of the roots along a polygon, and the roots in
    ascending p at its start and its end.

    On a segment ``t(s) = a + s (v2, v3)``, take the roots ``x_i`` at the
    last step point, their distances ``d_ij`` and ``r = min d_ij / 4``, and
    the step ``h = 0.9 min_i 4 r prod_{j != i} (d_ij - r) / (|v2 x_i + v3| +
    |v2| r)``.  On the circle of radius r about ``x_i`` the cubic is at
    least ``4 r prod_{j != i} (d_ij - r)`` in modulus, while moving s by at
    most h changes it by ``|s - s0| |v2 x + v3|``, less than that; so by
    Rouche's theorem each root stays in its own disk for the whole step
    (Kranich 2016).  The disks are disjoint, each new root is labelled by
    its disk, and the straight interpolation between step points has the
    true braid.  A step point below ``DELTA_FLOOR`` raises
    ``NearDiscriminant``.

    Where two roots adjacent in p swap on the interpolation, at positions
    k, k + 1 (k = 1 or 2), the word gets ``(k, sigma)`` with sigma the sign
    of ``Im((x_left - x_right) / _ROT)`` at the crossing.  A tie in p keeps
    the order it had.
    """
    x = _roots(WeierstrassPoint(*waypoints[0]))
    p = [(e / _ROT).real for e in x]
    order = sorted(range(3), key=p.__getitem__)
    start, word = [x[i] for i in order], []
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        v2, v3 = b[0] - a[0], b[1] - a[1]
        s = 0.0 if v2 or v3 else 1.0
        while s < 1.0:
            d01, d02, d12 = abs(x[0] - x[1]), abs(x[0] - x[2]), abs(x[1] - x[2])
            r = 0.25 * min(d01, d02, d12)
            vr = abs(v2) * r  # the step h, with 0.9 * 4 = 3.6
            s = min(s + 3.6 * r * min((d01 - r) * (d02 - r) / (abs(v2 * x[0] + v3) + vr),
                                      (d01 - r) * (d12 - r) / (abs(v2 * x[1] + v3) + vr),
                                      (d02 - r) * (d12 - r) / (abs(v2 * x[2] + v3) + vr)), 1.0)
            new = [None] * 3
            for e in _roots(WeierstrassPoint(*(b if s == 1.0 else (a[0] + s * v2, a[1] + s * v3)))):
                g0, g1, g2 = abs(e - x[0]), abs(e - x[1]), abs(e - x[2])  # its disk is the nearest
                new[0 if g0 <= g1 and g0 <= g2 else 1 if g1 <= g2 else 2] = e
            if None in new:
                raise NonConvergent(
                    f"the roots left their disks at s={s} on the path to {waypoints[-1]}")
            q = [(e / _ROT).real for e in new]
            target = sorted(order, key=q.__getitem__)  # stable: a tie keeps the order
            while order != target:
                # the adjacent pair that swaps first on the interpolation, at time u
                u, k = min(((p[i] - p[j]) / ((p[i] - p[j]) - (q[i] - q[j])), k)
                           for k, (i, j) in enumerate(zip(order, order[1:]))
                           if target.index(i) > target.index(j))
                i, j = order[k], order[k + 1]
                gap = (x[i] + u * (new[i] - x[i]) - x[j] - u * (new[j] - x[j])) / _ROT
                word.append((k + 1, 1 if gap.imag > 0.0 else -1))
                order[k], order[k + 1] = j, i
            x, p = new, q
    return start, word, [x[i] for i in order]


def _word_matrix(word):
    """The integer matrix U, in Python ints, with the start basis continued
    along a braid word equal to U times the end basis.

    A half twist ``(k, sigma)`` maps the ordered basis B to ``S B``, with
    ``S = [[1, 0], [-sigma, 1]]`` for k = 1 and ``[[1, sigma], [0, 1]]`` for
    k = 2 (Picard-Lefschetz), so the continued rows U go to ``U S^-1``.
    """
    (a, b), (c, d) = (1, 0), (0, 1)
    for k, sigma in word:
        if k == 1:
            a, c = a + sigma * b, c + sigma * d
        else:
            b, d = b - sigma * a, d - sigma * c
    return [[a, b], [c, d]]


def period_matrix(t) -> PeriodMatrix2:
    """Period matrix of ``t`` in the basis continued from the anchor.

    The entries are Carlson closed forms of two cut cycles at ``t``, good
    to about eps / relative |Delta|: machine precision away from the
    discriminant, while two equally accurate root routes differ by 9.3e-13
    relative at relative |Delta| 1e-4 and 1.6e-9 at 3e-8.  The integer
    combination of them that is the continued anchor basis comes from the
    braid of the roots along the default path (see ``_braid``): the anchor
    matrix is ``T0 B`` in the ordered basis B there, the word maps it to
    ``T0 U B_end``, and rounding ``T0 U B_end Q^-1`` at the Carlson matrix
    Q of ``t`` gives the integers.
    """
    p = as_weierstrass(t)
    anchor = _anchor_matrix()
    if p.t2 == BASE_T2 and p.t3 == BASE_T3:
        return PeriodMatrix2(anchor)
    start, word, end = _braid(default_path(p).waypoints.tolist())
    T0, _ = nearest_integer_matrix(anchor @ np.linalg.inv(_ordered_basis(start)), 0.25)
    Q = np.array(_carlson_matrix(p))
    N, _ = nearest_integer_matrix(
        T0 @ np.array(_word_matrix(word), dtype=float) @ _ordered_basis(end) @ np.linalg.inv(Q),
        0.25)
    P = PeriodMatrix2(N @ Q)
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
