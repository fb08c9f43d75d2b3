"""Eisenstein series, Weierstrass invariants, and the j-function.

Every route first moves tau into the fundamental domain with `_reduce`.
Past it two routes stay separate so they can cross-validate each other:
`eisenstein_lattice` sums lattice rows, each a 1-periodic sum completed by
Euler-Maclaurin, while `eisenstein_q` sums the Lambert q-series in floats.
Neither calls the other; they share only the reduction and zeta(k).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearCusp, NonConvergent, RealTau, UnsupportedType, ValidationError
from .numerics import MAX_WEIGHT, _float_range, _integer, _number, _positive
from .qseries import bernoulli
from .qseries import eisenstein_normalized, j_q_expansion  # noqa: F401  (re-exported)

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
        for name in ("omega1", "omega2"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.omega2 == 0:
            raise ValidationError("lattice generator omega2 must be nonzero")
        ratio = self.omega1 / self.omega2
        if not np.isfinite(ratio) or ratio.imag <= 0:
            raise RealTau(f"lattice ratio {ratio} is not in the upper half-plane")

    @property
    def tau(self):
        return self.omega1 / self.omega2

    @staticmethod
    def from_tau(tau):
        return Lattice(tau, 1.0)

    def scaled(self, mu):
        mu = _number("mu", mu)
        if mu == 0:
            raise ValidationError("lattice scale factor must be nonzero")
        return Lattice(mu * self.omega1, mu * self.omega2)


# B_2j / (2j)! for j = 1..7: the Euler-Maclaurin correction coefficients
_EM_COEFF = [float(bernoulli(2 * j) / math.factorial(2 * j)) for j in range(1, 8)]

# rows past the first shrink by e^(-pi sqrt 3) = 0.0043 or faster; nine reach 1e-17
_MAX_ROWS = 32


def _power_sum(s, w):
    """w^s sum_{j >= 0} (w + j)^(-s), for an integer s >= 2 and Re w >= _cut(s) - 1/2,
    by Euler-Maclaurin at w (DLMF 25.11). The first omitted term is at most 3e-14
    of the result (s = 8, w = 16), and the tail, w^(-s) times it, is below |w|^(1-s)."""
    u = 1.0 / w
    em, t = w / (s - 1) + 0.5, s * u
    for j, b in enumerate(_EM_COEFF):
        em += b * t
        t *= (s + 2 * j + 1) * (s + 2 * j + 2) * u * u
    return em


def _cut(k):
    # |n| below it is summed outright; at k = 4, 16 rather than 2k takes the
    # Euler-Maclaurin error in zeta(4) from 2.5e-15 to 5e-21
    return max(2 * k, 16)


def _row_sum(k, z):
    """sum over integers n of (z + n)^(-k) for even k and Im z > 0: 1-periodic,
    so z moves to |Re z| <= 1/2, and past the cut c the tails n >= c and
    (k being even) n <= -c are power sums from c + z and c - z."""
    z -= round(z.real)
    c = _cut(k)
    direct = np.sum((1.0 / (z + np.arange(1 - c, c))) ** k)
    return direct + sum((1.0 / w) ** k * _power_sum(k, w) for w in (c + z, c - z))


def eisenstein_lattice(k, lat):
    """E_k(lattice) = sum over nonzero lattice points a of a^(-k).

    In the reduced basis (w1, w2), tau = w1/w2 has Im tau >= sqrt(3)/2 and
    E_k = w2^(-k) (2 zeta(k) + 2 sum_{m >= 1} R(m tau)) with R the
    `_row_sum`, as row -m equals row m for even k. Row m is of size
    e^(-2 pi m Im tau) (Lipschitz formula, Serre, A Course in Arithmetic,
    VII 4); the sum stops at the first row that moves it by at most 1e-17
    of max(1, |sum|), near row 8 at k = 4. A sum that leaves the float
    range raises NumericalError.
    """
    k = _integer("weight k", k, -MAX_WEIGHT, MAX_WEIGHT)
    if k % 2 or k < 4:
        raise UnsupportedType(f"lattice Eisenstein sum needs even weight >= 4, got {k}")
    if not isinstance(lat, Lattice):
        lat = Lattice(*lat)
    (a, b, c, d), _, _ = _reduce(lat.tau)
    with _float_range(f"E_{k} of this lattice"):
        w2 = _combine(c, lat.omega1, d, lat.omega2)
        tau = _combine(a, lat.omega1, b, lat.omega2) / w2
        total = 2.0 * _riemann_zeta(k)
        for m in range(1, _MAX_ROWS + 1):
            row = 2.0 * _row_sum(k, m * tau)
            total += row
            if abs(row) <= 1e-17 * max(1.0, abs(total)):
                # |total| < 10, so only a large power of 1/w2 can overflow
                if -k * math.log(abs(w2)) > 700:
                    raise OverflowError
                return complex(total * (1.0 / w2) ** k)
    raise NonConvergent(f"lattice sum for E_{k} did not settle within {_MAX_ROWS} rows")


def _riemann_zeta(k):
    c = _cut(k)
    return c ** -float(k) * _power_sum(k, c) + sum(n ** -float(k) for n in range(c - 1, 0, -1))


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
    tau = _number("tau", tau)
    if not tau.imag > 0:
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
    k = _integer("weight k", k, -MAX_WEIGHT, MAX_WEIGHT)
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


def weierstrass_g(lat):
    """(g4, g6) of a lattice: (60 E4, G6_SIGN * 140 E6), each from eisenstein_lattice."""
    e4 = eisenstein_lattice(4, lat)
    e6 = eisenstein_lattice(6, lat)
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
    k, samples = _integer("weight k", k, -MAX_WEIGHT, MAX_WEIGHT), _integer("samples", samples, 1)
    tol, rng = _positive("tol", tol), np.random.default_rng(_integer("seed", seed, 0))
    worst = 0.0
    for _ in range(samples):
        tau = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.8, 2.0)
        lat = Lattice.from_tau(tau)
        mu = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0))
        base = f(lat)
        scaled = f(lat.scaled(mu))
        with _float_range(f"mu^-{k}"):
            rel = abs(scaled - mu ** (-k) * base) / max(abs(base), 1e-300)
        worst = max(worst, rel)
    return WeightCheckReport(weight=k, samples=samples, max_rel_deviation=worst, tol=tol)
