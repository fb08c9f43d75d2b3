"""Periods of the plane cubic family ``y^2 = 4x^3 - t2 x - t3``.

For parameters ``t = (t2, t3)`` off the discriminant locus
``t2**3 - 27 t3**2 = 0`` the curve carries two independent cycles, and the
2x2 period matrix collects the integrals of the forms ``dx/y`` and
``x dx/y`` (columns) over a symplectic cycle basis (rows).

Cycle-basis convention.  At the anchor parameter ``(4, 0)`` the cubic has
roots -1, 0, 1 and the two rows are the cycles over the real segments
[-1, 0] and [0, 1], oriented so that the period ratio ``tau`` (first column,
row 1 over row 2) lies in the upper half plane and the determinant equals
``SIGMA * 2*pi*i``.  Every other parameter inherits its basis by continuous
transport from the anchor along a default path that detours around the
discriminant locus.  Entry values are always computed by direct quadrature
between branch points; the transport only resolves the integer change of
basis, so its own accuracy requirement is mild.
"""

from __future__ import annotations

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
from .numerics import (
    DEFAULT_TOL,
    ParamPath,
    nearest_integer_matrix,
    quad_sqrt_singular,
)

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
        object.__setattr__(self, "t2", complex(self.t2))
        object.__setattr__(self, "t3", complex(self.t3))

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
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.t0 == 0:
            raise ZeroT0("t0 must be nonzero")


def as_weierstrass(t) -> WeierstrassPoint:
    """Coerce a WeierstrassPoint or a (t2, t3) pair."""
    if isinstance(t, WeierstrassPoint):
        return t
    t2, t3 = t
    return WeierstrassPoint(t2, t3)


def discriminant(t) -> complex:
    """``t2**3 - 27 t3**2``; zero exactly on the singular members."""
    p = as_weierstrass(t)
    return p.t2 ** 3 - 27.0 * p.t3 ** 2


def _delta_scale(p: WeierstrassPoint) -> float:
    return 1.0 + abs(p.t2) ** 3 + abs(p.t3) ** 2


def _require_away_from_discriminant(p: WeierstrassPoint) -> None:
    if abs(discriminant(p)) < DELTA_FLOOR * _delta_scale(p):
        raise NearDiscriminant(
            f"discriminant {discriminant(p):.3e} too small at t=({p.t2}, {p.t3})")


def scale_action(lam: complex, t) -> WeierstrassPoint:
    """The weighted scaling ``(t2, t3) -> (lam^4 t2, lam^6 t3)``.

    Under this action the curve is rescaled by ``(x, y) -> (lam^2 x,
    lam^3 y)``, so the two period columns pick up factors ``lam**-1`` and
    ``lam`` respectively.
    """
    lam = complex(lam)
    if lam == 0:
        from .errors import ZeroLambda
        raise ZeroLambda("lam must be nonzero")
    p = as_weierstrass(t)
    return WeierstrassPoint(lam ** 4 * p.t2, lam ** 6 * p.t3)


def curve_roots(t) -> np.ndarray:
    """Roots of ``4x^3 - t2 x - t3``, Newton-polished, sorted by (Re, Im)."""
    p = as_weierstrass(t)
    _require_away_from_discriminant(p)
    roots = np.roots([4.0, 0.0, -p.t2, -p.t3]).astype(np.complex128)
    for _ in range(3):
        val = 4.0 * roots ** 3 - p.t2 * roots - p.t3
        der = 12.0 * roots ** 2 - p.t2
        roots = roots - val / der
    order = sorted(range(3), key=lambda k: (roots[k].real, roots[k].imag))
    roots = roots[order]
    scale = 1.0 + float(np.max(np.abs(roots)))
    if min(abs(roots[0] - roots[1]), abs(roots[1] - roots[2]),
           abs(roots[0] - roots[2])) < 1e-9 * scale:
        raise NearDiscriminant("colliding branch points")
    return roots


def _segment_cycle(e_a: complex, e_b: complex, e_c: complex, tol: float):
    """Integrals of (dx/y, x dx/y) over the cycle around the cut [e_a, e_b].

    The branch of ``y = 2 sqrt((x-e_a)(x-e_b)(x-e_c))`` is kept continuous
    along the open segment by factoring each difference against the segment
    parametrization; the cycle integral is twice the segment integral.
    """
    d = e_b - e_a
    sq_d = np.sqrt(complex(d))
    sq_md = np.sqrt(complex(-d))
    ac = e_a - e_c
    zeta = d / ac
    # 1 + u*zeta traces the segment [1, 1 + zeta]; if it passes through the
    # origin the third root sits on the cut and this pairing is unusable.
    t_min = min(max(-zeta.real / max(abs(zeta) ** 2, 1e-300), 0.0), 1.0)
    if abs(1.0 + t_min * zeta) < 1e-6:
        raise NonConvergent("third branch point lies on the cut")
    sq_ac = np.sqrt(complex(ac))

    def inv_y(x: complex) -> complex:
        u = min(max(((x - e_a) / d).real, 0.0), 1.0)
        y = 2.0 * (np.sqrt(u) * sq_d) * (np.sqrt(1.0 - u) * sq_md) \
            * (sq_ac * np.sqrt(1.0 + u * zeta))
        return 1.0 / y

    i0 = quad_sqrt_singular(inv_y, e_a, e_b, tol)
    i1 = quad_sqrt_singular(lambda x: x * inv_y(x), e_a, e_b, tol)
    return 2.0 * i0, 2.0 * i1


_PAIRINGS = ((0, 1, 2), (1, 2, 0), (0, 2, 1))


def _quadrature_matrix(t, tol: float) -> np.ndarray:
    """Period matrix of ``t`` over two cut cycles sharing a branch point.

    The rows form a symplectic basis up to sign and integer change of basis;
    which one depends on the root configuration, so callers needing the
    transported anchor basis must still align the rows.
    """
    roots = curve_roots(t)
    last_error: Exception | None = None
    for (ia, ib, ic) in _PAIRINGS:
        try:
            row1 = _segment_cycle(roots[ia], roots[ib], roots[ic], tol)
            row2 = _segment_cycle(roots[ib], roots[ic], roots[ia], tol)
        except NonConvergent as exc:
            last_error = exc
            continue
        Q = np.array([row1, row2], dtype=np.complex128)
        if abs(abs(np.linalg.det(Q)) - 2.0 * np.pi) < 1e-4 * (1.0 + np.abs(Q).max() ** 2):
            return Q
        last_error = NumericalError("cycle pair failed the determinant check")
    raise NonConvergent(f"no usable branch-cut pairing: {last_error}")


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
        det = self.det
        target = SIGMA * TWO_PI_I
        scale = 1.0 + float(np.abs(self.entries).max()) ** 2
        if abs(det - target) > tol * scale:
            raise NumericalError(
                f"determinant {det} differs from {target} beyond {tol:.1e}")
        if self.tau.imag <= 0:
            raise NumericalError("period ratio not in the upper half plane")


@lru_cache(maxsize=8)
def _anchor_matrix(tol: float) -> np.ndarray:
    """Oriented period matrix at the anchor (4, 0).

    Row 1 is the cycle over [-1, 0] with positive real period; row 2 over
    [0, 1], oriented so the period ratio has positive imaginary part.
    """
    Q = _quadrature_matrix((BASE_T2, BASE_T3), tol)
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


def default_path(t_end, t_start=None) -> ParamPath:
    """Straight parameter path, detoured around the discriminant locus.

    The segment from ``t_start`` (anchor by default) to ``t_end`` is
    parametrized by ``s in [0, 1]``; the discriminant along it is a cubic
    polynomial in ``s``, and each root close to the real unit interval is
    avoided by a polygonal semicircle in the complex ``s`` plane, on the
    side away from the root.
    """
    p1 = as_weierstrass(t_end)
    p0 = as_weierstrass(t_start) if t_start is not None else \
        WeierstrassPoint(BASE_T2, BASE_T3)
    _require_away_from_discriminant(p0)
    _require_away_from_discriminant(p1)

    a0, a1 = p0.as_array(), p1.as_array()
    q = a1 - a0
    # discriminant along the segment as a cubic in s
    coeffs = np.array([
        q[0] ** 3,
        3.0 * a0[0] * q[0] ** 2 - 27.0 * q[1] ** 2,
        3.0 * a0[0] ** 2 * q[0] - 54.0 * a0[1] * q[1],
        a0[0] ** 3 - 27.0 * a0[1] ** 2,
    ], dtype=np.complex128)
    nz = np.flatnonzero(np.abs(coeffs) > 1e-14 * np.abs(coeffs).max())
    s_roots = np.roots(coeffs[nz[0]:]) if len(nz) else np.array([])

    near = [s for s in s_roots if abs(s.imag) <= 0.15 and -0.1 <= s.real <= 1.1]
    hazards = sorted(s.real for s in near)
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
    if cursor < 1.0 or not svals or svals[-1] != 1.0:
        svals.append(1.0)

    waypoints = np.array([a0 + s * q for s in svals], dtype=np.complex128)
    try:
        return ParamPath(waypoints, discriminant=lambda pt: discriminant(pt))
    except ClearanceViolation as exc:
        raise NearDiscriminant(f"could not certify a path to {t_end}: {exc}")


def period_matrix(t, tol: float = DEFAULT_TOL) -> PeriodMatrix2:
    """Period matrix of ``t`` in the basis transported from the anchor.

    Entry values come from quadrature between branch points at the requested
    tolerance; a moderate-accuracy transport of the anchor matrix along the
    default path identifies which integer combination of the quadrature
    cycles is the transported basis.
    """
    p = as_weierstrass(t)
    _require_away_from_discriminant(p)
    anchor = _anchor_matrix(min(tol, 1e-11))
    if p.t2 == BASE_T2 and p.t3 == BASE_T3:
        return PeriodMatrix2(anchor)

    Q = _quadrature_matrix(p, tol / 4.0)

    from . import gaussmanin  # deferred: gaussmanin imports this module

    path = default_path(p)
    T = gaussmanin.transport_entries(path, anchor, tol=1e-8)
    M = T @ np.linalg.inv(Q)
    try:
        M_int, _ = nearest_integer_matrix(M, 5e-2)
    except NonConvergent as exc:
        raise NonConvergent(f"basis alignment failed at t=({p.t2}, {p.t3}): {exc}")
    if abs(abs(round(float(np.linalg.det(M_int.astype(float))))) - 1) != 0:
        raise NumericalError("basis alignment produced a non-unimodular matrix")
    P = PeriodMatrix2(M_int @ Q)
    P.validate(max(100.0 * tol, 1e-7))
    return P


def period_map_tau(t, tol: float = DEFAULT_TOL) -> complex:
    """Upper-half-plane ratio of the first period column at ``t``."""
    return period_matrix(t, tol).tau


def reduce_khodaya(k: KhodayaPoint):
    """Reduce the four-coefficient family to ``y^2 = 4v^3 - a v - b``.

    Substituting ``x = s v + t1`` with ``s = t0**(-1/3)`` (principal branch)
    gives the reduced parameters ``(t2 * s, t3)``.  Returns the reduced
    point and the scale ``s``.
    """
    if not isinstance(k, KhodayaPoint):
        k = KhodayaPoint(*k)
    s = k.t0 ** (-1.0 / 3.0)
    reduced = WeierstrassPoint(k.t2 * s, k.t3)
    _require_away_from_discriminant(reduced)
    return reduced, s


def khodaya_period_matrix(k: KhodayaPoint, tol: float = DEFAULT_TOL) -> PeriodMatrix2:
    """Period matrix of the four-coefficient family member.

    With reduced matrix ``R`` and scale ``s``: column 1 is ``s * R[:, 0]``
    and column 2 is ``s * (s * R[:, 1] + t1 * R[:, 0])``, from pulling the
    forms back through ``x = s v + t1``.
    """
    if not isinstance(k, KhodayaPoint):
        k = KhodayaPoint(*k)
    reduced, s = reduce_khodaya(k)
    R = period_matrix(reduced, tol).entries
    out = np.empty((2, 2), dtype=np.complex128)
    out[:, 0] = s * R[:, 0]
    out[:, 1] = s * (s * R[:, 1] + k.t1 * R[:, 0])
    return PeriodMatrix2(out)


def tau_to_upper(tau: complex) -> complex:
    """Normalize a non-real ratio into the upper half-plane.

    Negation preserves the lattice Z tau + Z, so a ratio below the real
    axis maps to ``-tau``.
    """
    tau = complex(tau)
    if tau.imag == 0:
        raise RealTau("tau must have nonzero imaginary part")
    return tau if tau.imag > 0 else -tau
