"""Exact integer routines: truncated q-expansions and a parameter count.

A `QSeries` only records coefficients; it does no arithmetic. The
divisor sums and the normalized Eisenstein series here have integer
coefficients (rational ones for weights whose multiplier -2k/B_k is not
an integer), and they feed the one exact expansion in the package,
that of 1728 j (`j_q_expansion`, re-exported by `modular`). The module
does not import numpy, so `periodlab j-qexp` and `periodlab ks-count`
(`kodaira_spencer_count`, re-exported by `domain`) start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .scalars import MAX_WEIGHT, _integer

__all__ = ["QSeries", "bernoulli", "sigma_series", "eisenstein_normalized", "j_q_expansion",
           "kodaira_spencer_count"]


@dataclass(frozen=True)
class QSeries:
    """Laurent polynomial truncation sum_{n=low}^{order-1} c_{n} q^n.

    `order` is the first exponent whose coefficient is unknown; the
    stored tuple covers exponents low, low+1, ..., order-1 exactly.
    """

    low: int
    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order < self.low:
            raise ValidationError("truncation order precedes lowest exponent")
        if len(self.coeffs) != self.order - self.low:
            raise ValidationError("coefficient count does not match exponent range")

    def coefficient(self, n):
        """Coefficient of q^n; raises if n is beyond the known range."""
        n = _integer("exponent n", n)
        if n >= self.order:
            raise ValidationError(
                f"coefficient of q^{n} not determined at truncation order {self.order}"
            )
        if n < self.low:
            return 0
        return self.coeffs[n - self.low]


def bernoulli(n):
    """Bernoulli number B_n (B_1 = +1/2 convention) as an exact Fraction.

    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)), with the tangent numbers T_m of
    tan x = sum T_m x^(2m-1) / (2m-1)! from the integer recurrence of Brent and
    Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers" (2013).
    """
    n = _integer("Bernoulli index", n, 0)
    if n < 2 or n % 2:
        return Fraction(1, n + 1) if n < 2 else Fraction(0)
    m = n // 2
    t = [0] + [math.factorial(j - 1) for j in range(1, m + 1)]  # T_j after the sweeps
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return Fraction((-1) ** (m - 1) * n * t[m], 4 ** m * (4 ** m - 1))


def sigma_series(power, n_terms):
    """sum_{n>=1} sigma_power(n) q^n with exact integer coefficients."""
    power, n_terms = _integer("power", power, 0), _integer("n_terms", n_terms, 1)
    coeffs = [0] * (n_terms - 1)  # exponent n stored at index n-1
    for d in range(1, n_terms):
        dp = d ** power
        for m in range(d, n_terms, d):
            coeffs[m - 1] += dp
    return QSeries(1, tuple(coeffs), n_terms)


def eisenstein_normalized(k, n_terms):
    """E-hat_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, exact coefficients.

    For k = 4 the multiplier is +240, for k = 6 it is -504.
    """
    k = _integer("weight", k, 2, MAX_WEIGHT)
    if k % 2:
        raise ValidationError("normalized Eisenstein series needs even weight >= 2")
    mult = -Fraction(2 * k) / bernoulli(k)
    if mult.denominator == 1:
        mult = int(mult)
    terms = (mult * c for c in sigma_series(k - 1, n_terms).coeffs)
    return QSeries(0, (1, *(int(c) if c.denominator == 1 else c for c in terms)), n_terms)


def _product(a, b):
    """The first len(a) coefficients of the product of two power series."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def j_q_expansion(n_terms):
    """Exact q-expansion of 1728 * j_normalized, starting at q^(-1).

    Returns a QSeries with integer coefficients; n_terms counts the known
    coefficients, so the truncation order is n_terms - 1. Since
    E4^3 - E6^2 = 1728 Delta with Delta = q + ... an integer series
    (Serre, A Course in Arithmetic, VII 4), 1728 j = E4^3 / Delta is the
    integer recurrence c_k = (E4^3)_k - sum_{i=1..k} Delta_{i+1} c_{k-i}
    for the coefficient c_k of q^(k-1).
    """
    n_terms = _integer("n_terms", n_terms, 1)
    e4 = eisenstein_normalized(4, n_terms + 1).coeffs
    e6 = eisenstein_normalized(6, n_terms + 1).coeffs
    e4_cubed = _product(_product(e4, e4), e4)
    delta = [(x - y) // 1728 for x, y in zip(e4_cubed, _product(e6, e6))]
    c = []
    for k in range(n_terms):
        c.append(e4_cubed[k] - sum(delta[i + 1] * c[k - i] for i in range(1, k + 1)))
    return QSeries(-1, tuple(c), n_terms - 1)


def kodaira_spencer_count(n, d):
    """Effective parameter count for degree-d hypersurfaces in P^(n+1), n and d up to MAX_WEIGHT."""
    n, d = _integer("n", n, 1, MAX_WEIGHT), _integer("d", d, 1, MAX_WEIGHT)
    return math.comb(n + 1 + d, d) - (n + 2) ** 2
