"""Eisenstein series, Weierstrass invariants, and the j-function.

Every route first moves tau into the fundamental domain with `_reduce`.
Past it two routes stay separate so they can cross-validate each other:
`eisenstein_lattice` sums over lattice points directly, while
`eisenstein_q` sums the Lambert q-series in floats. Neither calls the other.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NearCusp, NonConvergent, NumericalError, RealTau, UnsupportedType,
                     ValidationError)
from .qseries import bernoulli, eisenstein_normalized

__all__ = [
    "G6_SIGN",
    "Lattice",
    "eisenstein_lattice",
    "eisenstein_q",
    "weierstrass_g",
    "j_normalized",
    "j_q_expansion",
    "full_modular_weight_check",
    "WeightCheckReport",
]

# Sign of the weight-6 invariant in (g4, g6) = (60 E4, s6 * 140 E6).
# Resolved empirically by the uniformization round-trip at the first
# computed point (period lattice of t = (4,4) reproduces t3 = +4 only
# with s6 = +1) and frozen. The alternative sign is recorded as an
# open convention question, not a tunable.
G6_SIGN = +1


@dataclass(frozen=True)
class Lattice:
    """Rank-2 lattice Z*omega1 + Z*omega2 with Im(omega1/omega2) > 0."""

    omega1: complex
    omega2: complex

    def __post_init__(self):
        object.__setattr__(self, "omega1", complex(self.omega1))
        object.__setattr__(self, "omega2", complex(self.omega2))
        ratio = self.omega1 / self.omega2
        if not np.isfinite(ratio) or ratio.imag <= 0:
            raise RealTau(f"lattice ratio {ratio} is not in the upper half-plane")

    @property
    def tau(self):
        return self.omega1 / self.omega2

    @staticmethod
    def from_tau(tau):
        return Lattice(complex(tau), 1.0)

    def scaled(self, mu):
        mu = complex(mu)
        if mu == 0:
            raise ValidationError("lattice scale factor must be nonzero")
        return Lattice(mu * self.omega1, mu * self.omega2)


def _shell_sum(k, omega1, omega2, shell):
    """Sum of a^(-k) over lattice points with max(|m|,|n|) == shell."""
    s = shell
    m_edge = np.arange(-s, s + 1)
    n_edge = np.arange(-s + 1, s)
    pts = np.concatenate([
        m_edge * omega1 + s * omega2,
        m_edge * omega1 - s * omega2,
        s * omega1 + n_edge * omega2,
        -s * omega1 + n_edge * omega2,
    ])
    return np.sum(pts ** (-k))

# fit window uses this many trailing shells; enough for a degree-5 model
_FIT_TERMS = 6

_CHECKPOINTS = (24, 36, 54, 81, 122, 183, 274, 411)

# B_2j / (2j)! for j = 1..7: the Euler-Maclaurin correction coefficients
_EM_COEFF = [float(bernoulli(2 * j) / math.factorial(2 * j)) for j in range(1, 8)]


def _zeta_tail(s, n):
    """sum_{m > n} (n/m)^s = n^s zeta(s, n+1), for integer s >= 2, n >= 1.

    Terms below a = max(n+1, 2s) are summed outright, the rest by Euler-Maclaurin
    at a (DLMF 25.11), an asymptotic series that diverges once s > ~2 pi a.
    """
    a = max(n + 1, 2 * s)
    em, t = a / (s - 1) + 0.5, s / a
    for j, b in enumerate(_EM_COEFF):
        em += b * t
        t *= (s + 2 * j + 1) * (s + 2 * j + 2) / (a * a)
    return sum((n / m) ** s for m in range(n + 1, a)) + (n / a) ** s * em


def _tail_estimate(k, shells, n_cut):
    """Tail sum_{S > n_cut} f(S) from the Euler-Maclaurin form of the shells.

    A shell at radius S contributes f(S) = sum_j d_j u^(1-k-j) with
    u = S/n_cut; the coefficients are fitted on the trailing window, where
    u lies in [1/2, 1], and the tail is then summed with _zeta_tail.
    """
    lo = max(n_cut // 2, 4)
    u = np.arange(lo, n_cut + 1) / n_cut
    g = np.array([shells[s] for s in range(lo, n_cut + 1)]) * u ** (k - 1)
    basis = np.vander(1.0 / u, _FIT_TERMS, increasing=True)
    coeff, *_ = np.linalg.lstsq(basis, g, rcond=None)
    return sum(c * _zeta_tail(k - 1 + j, n_cut) for j, c in enumerate(coeff))


def eisenstein_lattice(k, lat, tol=1e-10):
    """E_k(lattice) = sum over nonzero lattice points a of a^(-k).

    Shells of max-norm radius S in the reduced basis are summed outright
    and the remainder beyond the current radius is completed from the
    shells' asymptotic expansion; the result converges when two successive
    completions agree to tol/2. Raising the radius cap is the only recourse
    past that. A sum that leaves the float range raises NumericalError.
    """
    if k % 2 or k < 4:
        raise UnsupportedType(f"lattice Eisenstein sum needs even weight >= 4, got {k}")
    if not isinstance(lat, Lattice):
        lat = Lattice(*lat)
    (a, b, c, d), _, _ = _reduce(lat.tau)
    shells = {}
    partial = 0j
    top = 0
    previous = None
    try:
        w1 = _combine(a, lat.omega1, b, lat.omega2)
        w2 = _combine(c, lat.omega1, d, lat.omega2)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for n_cut in _CHECKPOINTS:
                for s in range(top + 1, n_cut + 1):
                    shells[s] = _shell_sum(k, w1, w2, s)
                    partial += shells[s]
                top = n_cut
                value = partial + _tail_estimate(k, shells, n_cut)
                if not np.isfinite(value):  # lstsq runs under its own error state
                    raise FloatingPointError
                if previous is not None and abs(value - previous) <= 0.5 * tol:
                    return complex(value)
                previous = value
    except (FloatingPointError, OverflowError):
        raise NumericalError(f"E_{k} of this lattice is outside the float range") from None
    raise NonConvergent(
        f"lattice sum for E_{k} did not stabilize to {tol} within radius {top}"
    )


def _riemann_zeta(k):
    head = sum(float(n) ** -k for n in range(24, 0, -1))
    return 24.0 ** -k * _zeta_tail(k, 24) + head


def _combine(m, x, n, y):
    """m x + n y for integers m, n and complex x, y, each part rounded once."""
    def part(u, v):  # int / int rounds once
        (p, q), (r, s) = u.as_integer_ratio(), v.as_integer_ratio()
        return (m * p * s + n * r * q) / (q * s)
    return complex(part(x.real, y.real), part(x.imag, y.imag))


def _reduce(tau):
    """((a, b, c, d), gamma tau, c tau + d) for the gamma in SL2(Z) that
    translates and inverts tau into the fundamental domain (DLMF 23.18),
    where Im(gamma tau) >= sqrt(3)/2 and |c tau + d| <= 1.

    Each step reads gamma tau formed afresh from tau, as a float iteration
    drifts off the orbit near the real axis. NearCusp once |c| > 2^52 or
    gamma tau leaves the float range.
    """
    tau = complex(tau)
    if not (tau.imag > 0 and cmath.isfinite(tau)):
        raise RealTau(f"tau = {tau} not in the upper half-plane")
    a, b, c, d = 1, 0, 0, 1
    try:
        while abs(c) <= 2 ** 52:
            w = _combine(c, tau, d, 1)
            moved = _combine(a, tau, b, 1) / w
            n = round(moved.real)
            if n:
                a, b = a - n * c, b - n * d
            elif abs(moved) >= 1.0 - 1e-15:  # so that i and rho stay put
                return (a, b, c, d), moved, w
            else:
                a, b, c, d = -c, -d, a, b
    except OverflowError:
        pass
    raise NearCusp(f"reducing tau = {tau} leaves the float range")


def eisenstein_q(k, tau):
    """E_k(Z tau + Z) = (c tau + d)^(-k) E_k(gamma tau), with E_k(gamma tau)
    from the Lambert series 2 zeta(k) + 2 (2 pi i)^k / (k-1)! times
    sum n^(k-1) q^n / (1 - q^n) (DLMF 27.7).

    It shares only the reduction with eisenstein_lattice, so their agreement
    checks both. Term moduli are formed in log space, and the sum stops
    past its peak at the first term below 1e-17 = e^-39.1. Its part from
    the lattice row tau + m, sum_r r^(k-1) q^r, has terms near
    (Im tau)^(-k) that cancel, so from weight 32 on that row is summed as
    sum_m (tau + m)^(-k) and the series keeps q^(2n) / (1 - q^n). A value
    outside the float range raises NearCusp.
    """
    if k % 2 or k < 4:
        raise UnsupportedType(f"q-expansion Eisenstein needs even weight >= 4, got {k}")
    _, reduced, w = _reduce(tau)
    # |w| <= 1 and |E_k(gamma tau)| < 10, so only a large power can overflow
    if -k * math.log(abs(w)) > 700:
        raise NearCusp(f"E_{k} at tau = {tau} is outside the float range")
    z = 2j * math.pi * reduced
    log_c = math.log(2.0) + k * math.log(2.0 * math.pi) - math.lgamma(k)
    rows = 2 if k >= 32 else 1
    total = 0j
    for n in itertools.count(1):
        log_term = log_c + (k - 1) * math.log(n) + rows * n * z.real
        total += cmath.exp(complex(log_term, rows * n * z.imag)) / (1.0 - cmath.exp(n * z))
        if rows * n * -z.real > k - 1 and log_term < -39.1:
            break
    value = 2.0 * _riemann_zeta(k) + (-1) ** (k // 2) * total
    if rows == 2:
        reach = 1 + int(math.exp(39.1 / k))  # |tau + m|^(-k) < 1e-17 past it
        value += 2.0 * sum(cmath.exp(-k * cmath.log(reduced + m))
                           for m in range(-reach, reach + 1))
    return value * w ** -k


def weierstrass_g(lat, tol=1e-10):
    """(g4, g6) of a lattice: (60 E4, G6_SIGN * 140 E6)."""
    e4 = eisenstein_lattice(4, lat, tol=tol / 200.0)
    e6 = eisenstein_lattice(6, lat, tol=tol / 200.0)
    return 60.0 * e4, G6_SIGN * 140.0 * e6


def j_normalized(tau):
    """The quotient g4^3 / (g4^3 - 27 g6^2), normalized so j(i) = 1.

    Vanishes at the third root of unity; the familiar integer-coefficient
    expansion belongs to 1728 times this. It is taken at the reduced tau as
    E^3 / (1728 q prod (1 - q^n)^24) with E = E_4 / (2 zeta(4)), a product
    that does not cancel. NearCusp once q nears underflow (Im above 112).
    """
    _, reduced, _ = _reduce(tau)
    if reduced.imag > 112:
        raise NearCusp(f"j at tau = {tau} is outside the float range")
    q = cmath.exp(2j * math.pi * reduced)
    delta, q_n = q, q
    while abs(q_n) >= 1e-17:
        delta *= (1.0 - q_n) ** 24
        q_n *= q
    return (eisenstein_q(4, reduced) / (2.0 * _riemann_zeta(4))) ** 3 / (1728.0 * delta)


def j_q_expansion(n_terms):
    """Exact q-expansion of 1728 * j_normalized, starting at q^(-1).

    Returns a QSeries with integer coefficients; n_terms counts the known
    coefficients, so the truncation order is n_terms - 1.
    """
    if n_terms < 1:
        raise ValidationError("n_terms must be at least 1")
    e4 = eisenstein_normalized(4, n_terms + 2)
    e6 = eisenstein_normalized(6, n_terms + 2)
    num = e4 ** 3
    series = 1728 * num / (num - e6 ** 2)
    return series.truncate(n_terms - 1)


@dataclass(frozen=True)
class WeightCheckReport:
    weight: int
    samples: int
    max_rel_deviation: float
    tol: float

    @property
    def passed(self):
        return self.max_rel_deviation <= self.tol


def full_modular_weight_check(f, k, samples=12, tol=1e-8, seed=0):
    """Numerically verify f(mu * L) = mu^(-k) f(L) on random lattices.

    The exponent is the one forced by the lattice-sum definition; see the
    module docstring for the convention note.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        tau = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.8, 2.0)
        lat = Lattice.from_tau(tau)
        mu = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0))
        base = f(lat)
        scaled = f(lat.scaled(mu))
        rel = abs(scaled - mu ** (-k) * base) / max(abs(base), 1e-300)
        worst = max(worst, rel)
    return WeightCheckReport(weight=k, samples=samples, max_rel_deviation=worst, tol=tol)
