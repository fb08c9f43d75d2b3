"""Integer symplectic group elements, coset enumeration, slash operators,
and truncated Poincare series, classical and period-matrix flavored.

Matrices act on the left throughout: on period matrices by X -> A X and
on the upper half-plane through the induced Moebius map. With that
convention the automorphy factor j(z, A) = cz + d composes as
j(z, A B) = j(B z, A) j(z, B), which is the order the slash-composition
law requires (writing the factors the other way round, as one sometimes
sees, fails already on products of the two standard generators).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotInGroup,
    SizeMismatch,
    StabilizerMismatch,
    ValidationError,
)

__all__ = [
    "PSI2",
    "GroupElement",
    "CosetFamily",
    "PartialSumsReport",
    "is_in_gamma",
    "enumerate_cosets_sl2",
    "moebius",
    "classical_factor",
    "cocycle_check",
    "slash",
    "poincare_series_uhp",
    "period_poincare",
    "mean_value_diagnostic",
    "MeanValueReport",
]

PSI2 = np.array([[0, 1], [-1, 0]], dtype=np.int64)


def _as_int_matrix(a):
    arr = np.asarray(a)
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.round(np.real(arr))
        if arr.size and np.max(np.abs(arr - rounded)) > 0:
            raise NotInGroup("group elements must have integer entries")
        arr = rounded.astype(np.int64)
    return arr


def is_in_gamma(a, psi):
    """Exact integer test of A Psi A^T = Psi."""
    a = _as_int_matrix(a)
    psi = _as_int_matrix(psi)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != psi.shape:
        raise SizeMismatch(f"shapes {a.shape} and {psi.shape} do not match")
    return bool(np.array_equal(a @ psi @ a.T, psi))


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An integer matrix preserving the form psi, checked at construction."""

    entries: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        entries = _as_int_matrix(self.entries)
        psi = _as_int_matrix(self.psi)
        if not is_in_gamma(entries, psi):
            raise NotInGroup(f"matrix {entries.tolist()} does not preserve the form")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "psi", psi)
        self.entries.setflags(write=False)

    def __matmul__(self, other):
        if isinstance(other, GroupElement):
            return GroupElement(self.entries @ other.entries, self.psi)
        return NotImplemented

    def inverse(self):
        n = self.entries.shape[0]
        if n == 2:
            a, b, c, d = self.entries.flatten()
            det = a * d - b * c
            inv = np.array([[d, -b], [-c, a]], dtype=np.int64)
            if det == -1:
                inv = -inv
            elif det != 1:
                raise NotInGroup("determinant is not a unit")
            return GroupElement(inv, self.psi)
        inv = np.round(np.linalg.inv(self.entries)).astype(np.int64)
        if not np.array_equal(self.entries @ inv, np.eye(n, dtype=np.int64)):
            raise NotInGroup("no integer inverse")
        return GroupElement(inv, self.psi)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and np.array_equal(
            self.entries, other.entries
        )

    def __hash__(self):
        return hash(self.entries.tobytes())


@dataclass(frozen=True)
class CosetFamily:
    """Representatives of Gamma_P \\ Gamma with a named stabilizer."""

    representatives: tuple
    stabilizer: str
    height: int

    def check_pairwise(self, stabilizer_predicate):
        """Assert no two representatives share a coset; O(n^2), small n only."""
        reps = self.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                quotient = reps[i] @ reps[j].inverse()
                if stabilizer_predicate(quotient.entries):
                    raise ValidationError(
                        f"representatives {i} and {j} lie in one coset"
                    )
        return True


@dataclass(frozen=True)
class PartialSumsReport:
    """Shell-ordered partial sums of a truncated series."""

    heights: tuple
    partial_sums: tuple
    tail_estimate: float
    tolerance: float
    converged: bool

    @property
    def value(self):
        return self.partial_sums[-1]


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _canonical_pairs(h):
    """Coprime pairs with max(|a|,|b|) == h, one per {+,-} class."""
    if h == 1:
        return [(0, 1), (1, 0), (1, 1), (1, -1)]
    pairs = [(h, b) for b in range(-h, h + 1) if math.gcd(h, b) == 1]
    for a in range(1, h):
        if math.gcd(a, h) == 1:
            pairs += [(a, h), (a, -h)]
    return pairs


def _complete_rows(pair, stabilizer):
    """Extend a coprime pair to an SL(2,Z) matrix per the stabilizer side."""
    a, b = pair
    g, u, v = _ext_gcd(a, b)
    if g < 0:
        g, u, v = -g, -u, -v
    if g != 1:
        raise ValidationError(f"pair {pair} is not coprime")
    if stabilizer == "upper":
        # pair is the bottom row; A = [[v, -u], [a, b]]
        return ((v, -u), (a, b))
    if stabilizer == "lower":
        # pair is the top row; A = [[a, b], [-v, u]]
        return ((a, b), (-v, u))
    raise ValidationError(f"unknown stabilizer id {stabilizer!r}")


@functools.lru_cache(maxsize=4)
def _coset_table(stabilizer, height):
    """Coset representatives of heights 1..height in shell order.

    Returns one read-only (N, 2, 2) int64 array and the end offset of each
    height shell in it.
    """
    if height < 1:
        raise ValidationError("height must be at least 1")
    shells = [
        np.array([_complete_rows(pair, stabilizer) for pair in _canonical_pairs(h)],
                 dtype=np.int64)
        for h in range(1, height + 1)
    ]
    table = np.concatenate(shells)
    table.setflags(write=False)
    return table, tuple(itertools.accumulate(map(len, shells)))


def enumerate_cosets_sl2(stabilizer="upper", height=1):
    """Left-coset representatives of the triangular subgroup in SL(2,Z).

    The cosets of the upper-triangular (up to sign) subgroup are indexed
    by the bottom row, those of the lower-triangular one by the top row;
    either way the free datum is a coprime pair taken modulo overall
    sign, completed to determinant one by the extended gcd.
    """
    table, _ = _coset_table(stabilizer, height)
    reps = tuple(GroupElement(a, PSI2) for a in table)
    return CosetFamily(representatives=reps, stabilizer=stabilizer, height=height)


def moebius(a, z):
    """Action of a 2x2 matrix on the upper half-plane."""
    m = np.asarray(a, dtype=float) if not np.iscomplexobj(a) else np.asarray(a)
    num = m[0, 0] * z + m[0, 1]
    den = m[1, 0] * z + m[1, 1]
    return num / den


def classical_factor(z, a):
    """j(z, A) = cz + d."""
    m = np.asarray(a)
    return m[1, 0] * z + m[1, 1]


def _random_sl2(rng, height=3):
    while True:
        c = int(rng.integers(-height, height + 1))
        d = int(rng.integers(-height, height + 1))
        if math.gcd(c, d) != 1:
            continue
        shift = int(rng.integers(-2, 3))
        base = np.array(_complete_rows((c, d), "upper"), dtype=np.int64)
        twist = np.array([[1, shift], [0, 1]], dtype=np.int64)
        return twist @ base


def cocycle_check(factor, samples=100, tol=1e-12, seed=0):
    """Verify j(x, AB) = j(Bx, A) j(x, B) on random upper half-plane data.

    This is the factor order consistent with matrices acting on the left
    (apply B, then A); a factor violating it, such as a nontrivial
    constant, comes back False.
    """
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        z = rng.uniform(-2, 2) + 1j * rng.uniform(0.2, 3.0)
        a = _random_sl2(rng)
        b = _random_sl2(rng)
        lhs = factor(z, a @ b)
        rhs = factor(moebius(b, z), a) * factor(z, b)
        scale = max(1.0, abs(lhs), abs(rhs))
        if abs(lhs - rhs) > tol * scale:
            return False
    return True


def slash(f, n, a, factor=classical_factor):
    """The weight-n slash: (f |_n A)(x) = j(x, A)^(-n) f(A x)."""
    a = _as_int_matrix(a)

    def transformed(z):
        return factor(z, a) ** (-n) * f(moebius(a, z))

    return transformed


def _shell_tail(heights, shell_sizes):
    """Crude tail bound from the decay of the last two nonzero shells."""
    if len(shell_sizes) < 2:
        return np.inf
    last, prev = shell_sizes[-1], shell_sizes[-2]
    h_last, h_prev = heights[-1], heights[-2]
    if last == 0.0:
        return 0.0
    if last >= prev or prev == 0.0:
        return np.inf
    power = np.log(last / prev) / np.log(h_last / h_prev)
    if power >= -1.5:
        return np.inf
    return float(last * h_last / (-power - 1.0))


def _shell_series(stabilizer, height, terms, tol):
    """Partial sums over the coset table, one complete height shell at a time.

    ``terms`` maps a block of representatives (one shell of the table) to
    its summands, which are added in order; the report carries the partial
    sum after each shell plus a tail estimate fitted to the shell decay.
    """
    table, ends = _coset_table(stabilizer, height)
    heights = tuple(range(1, height + 1))
    partials, sizes = [], []
    total = 0j
    for start, end in zip((0,) + ends, ends):
        shell = sum(terms(table[start:end]), 0j)
        total += shell
        partials.append(total)
        sizes.append(abs(shell))
    tail = _shell_tail(heights, sizes)
    settled = (
        len(partials) >= 2
        and abs(partials[-1] - partials[-2]) <= tol
        and tail <= tol
    )
    return PartialSumsReport(
        heights=heights,
        partial_sums=tuple(partials),
        tail_estimate=tail,
        tolerance=tol,
        converged=bool(settled),
    )


def poincare_series_uhp(f, n, height, tau, factor=classical_factor, tol=1e-6):
    """Truncated Poincare series sum_A j(tau,A)^(-n) f(A tau) over cosets.

    Summation proceeds by complete height shells of the coset family of
    the upper-triangular stabilizer (see ``_shell_series``).
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValidationError("tau must lie in the upper half-plane")

    def terms(block):
        return (factor(tau, a) ** (-n) * f(moebius(a, tau))
                for a in block.astype(float))

    return _shell_series("upper", height, terms, tol)


_STAB_SAMPLES = {
    "upper": [np.array([[e, n], [0, e]], dtype=np.int64) for e in (1, -1)
              for n in (-3, -1, 1, 2)],
    "lower": [np.array([[e, 0], [n, e]], dtype=np.int64) for e in (1, -1)
              for n in (-3, -1, 1, 2)],
}


def _check_stabilizer(p, stabilizer, rng):
    """Sampled invariance P(S X) = P(X) for S in the declared stabilizer."""
    if stabilizer == "full":
        samples = [_random_sl2(rng) for _ in range(6)]
    else:
        samples = _STAB_SAMPLES.get(stabilizer)
        if samples is None:
            raise ValidationError(f"unknown stabilizer id {stabilizer!r}")
    for _ in range(4):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        base = p(x)
        for s in samples:
            moved = p(s.astype(complex) @ x)
            if abs(moved - base) > 1e-8 * max(1.0, abs(base)):
                raise StabilizerMismatch(
                    f"P is not invariant under the declared {stabilizer!r} stabilizer"
                )


def period_poincare(p, pm, stabilizer="lower", height=50, tol=1e-6, seed=0):
    """Poincare series of a matrix functional along the group orbit of a
    period matrix: partial sums of P(A X) over coset representatives.

    The declared stabilizer is validated by sampling before any summing;
    a functional that is not invariant under it raises StabilizerMismatch
    rather than silently producing an order-dependent number.
    """
    rng = np.random.default_rng(seed)
    _check_stabilizer(p, stabilizer, rng)
    x = np.asarray(pm.entries if hasattr(pm, "entries") else pm, dtype=complex)
    if x.shape != (2, 2):
        raise SizeMismatch("period Poincare series needs a 2x2 matrix")
    if stabilizer == "full":
        value = complex(p(x))
        return PartialSumsReport(
            heights=(0,),
            partial_sums=(value,),
            tail_estimate=0.0,
            tolerance=tol,
            converged=True,
        )
    return _shell_series(stabilizer, height, lambda block: map(p, block @ x), tol)


@dataclass(frozen=True)
class MeanValueReport:
    lhs: float
    rhs: float

    @property
    def sub_mean(self):
        return self.lhs <= self.rhs * (1 + 1e-9) + 1e-300


def mean_value_diagnostic(f, center, radius, grid=64):
    """Compare |f(a)|^2 with the area average of |f|^2 on a disk.

    For holomorphic f the left side never exceeds the right (the
    sub-mean-value property); the report just presents both numbers from
    a midpoint polar quadrature.
    """
    center = complex(center)
    radius = float(radius)
    if radius <= 0 or grid < 2:
        raise ValidationError("need a positive radius and at least a 2-point grid")
    r = (np.arange(grid) + 0.5) * (radius / grid)
    theta = (np.arange(2 * grid) + 0.5) * (2 * np.pi / (2 * grid))
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    pts = center + rr * np.exp(1j * tt)
    vals = np.abs(np.vectorize(f)(pts)) ** 2
    integral = float(np.sum(vals * rr) * (radius / grid) * (np.pi / grid))
    area = np.pi * radius ** 2
    return MeanValueReport(lhs=abs(f(center)) ** 2, rhs=integral / area)
