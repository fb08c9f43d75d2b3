"""Integer symplectic group elements, coset enumeration, slash operators,
and truncated Poincare series, each one sum of p(A x) over the coset table.

The series read the table one height shell at a time: p gets a (2, 2, n)
array y whose entry y[i, j] holds (A x)[i, j] over the shell's n cosets and
returns n values, or one for all n (any other shape raises ValidationError).
So p acts entry by entry, as ``x[0, 0] ** -4`` does, never over the shell.

Matrices act on the left throughout: on period matrices by X -> A X and
on the upper half-plane through the induced Moebius map. With that
convention the automorphy factor j(z, A) = cz + d composes as
j(z, A B) = j(B z, A) j(z, B), which is the order the slash-composition
law requires (writing the factors the other way round, as one sometimes
sees, fails already on products of the two standard generators).
"""

from __future__ import annotations

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
from .numerics import (MAX_WEIGHT, _float_range, _integer, _integer_det, _number, _positive,
                       exact_integers)

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


def is_in_gamma(a, psi):
    """Exact test of A Psi A^T = Psi, in Python integers so that no product wraps."""
    a = exact_integers(a, NotInGroup, "group elements")
    psi = exact_integers(psi, NotInGroup, "the form psi")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != psi.shape:
        raise SizeMismatch(f"shapes {a.shape} and {psi.shape} do not match")
    a, psi = a.astype(object), psi.astype(object)
    return bool(np.array_equal(a @ psi @ a.T, psi))


def _int64_entries(exact, what):
    """Python-integer entries as an int64 array; ValidationError past the int64 range."""
    exact = np.array(exact, dtype=object)
    if not all(-2**63 <= v < 2**63 for v in exact.flat):
        raise ValidationError(f"{what} has entries outside the int64 range [-2^63, 2^63)")
    return exact.astype(np.int64)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """An integer matrix preserving the form psi, checked at construction."""

    entries: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        entries = exact_integers(self.entries, NotInGroup, "group elements").copy()
        psi = exact_integers(self.psi, NotInGroup, "the form psi")
        if not is_in_gamma(entries, psi):
            raise NotInGroup(f"matrix {entries.tolist()} does not preserve the form")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "psi", psi)
        self.entries.setflags(write=False)

    def __matmul__(self, other):
        if isinstance(other, GroupElement):
            exact = self.entries.astype(object) @ other.entries.astype(object)
            return GroupElement(_int64_entries(exact, "the product"), self.psi)
        return NotImplemented

    def inverse(self):
        """A^-1 = det(A) adj(A), exact in Python integers (det A = +-1 in the group)."""
        a, n, det = self.entries, len(self.entries), _integer_det(self.entries)
        if det not in (1, -1):
            raise NotInGroup("determinant is not a unit")
        inv = [[det * (-1) ** (i + j) * _integer_det(np.delete(np.delete(a, j, 0), i, 1))
                for j in range(n)] for i in range(n)]
        return GroupElement(_int64_entries(inv, "the inverse"), self.psi)

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


def _shell_pairs(h):
    """Coprime pairs (a, b) with max(|a|, |b|) == h, one per {+,-} class: (h, b)
    for b from -h to h, then (a, h) and (a, -h) for a from 1 to h - 1."""
    if h == 1:
        return np.array([[0, 1], [1, 0], [1, 1], [1, -1]])
    b, a = np.arange(-h, h + 1), np.arange(1, h)
    b, a = b[np.gcd(h, b) == 1], np.repeat(a[np.gcd(a, h) == 1], 2)
    return np.concatenate([np.column_stack([np.full_like(b, h), b]),
                           np.column_stack([a, np.resize([h, -h], len(a))])])


def _complete(pairs, stabilizer):
    """SL(2,Z) matrices with the coprime ``pairs`` as bottom rows (stabilizer
    "upper") or top rows ("lower"), as an (n, 2, 2) int64 array.

    The extended Euclid runs elementwise on rows (r, s, t) with r = s a + t b:
    from (a, 1, 0) and (b, 0, 1) it steps (x, y) -> (y, x - (x_r // y_r) y)
    until y_r = 0, so x = (+-1, u, v) and the sign times (v, -u) completes (a, b).
    """
    if stabilizer not in ("upper", "lower"):
        raise ValidationError(f"unknown stabilizer id {stabilizer!r}")
    x, y = np.zeros((2, 3, len(pairs)), dtype=np.int64)
    x[0], x[1], y[0], y[2] = pairs[:, 0], 1, pairs[:, 1], 1
    live = np.flatnonzero(y[0])
    while live.size:
        q = x[0][live] // y[0][live]
        for xi, yi in zip(x, y):
            xi[live], yi[live] = yi[live], xi[live] - q * yi[live]
        live = live[y[0][live] != 0]
    g, u, v = x
    other = np.column_stack([g * v, -g * u])
    return np.stack([other, pairs] if stabilizer == "upper" else [pairs, -other], axis=1)


_TABLES = {}  # stabilizer -> (table, ends) through the largest height asked for


def _coset_table(stabilizer, height):
    """Coset representatives of heights 1..height in shell order, as a read-only
    (N, 2, 2) int64 prefix of the stabilizer's one table (a larger height
    appends only its new shells), and the end offset of each height shell."""
    height = _integer("height", height, 1)
    table, ends = _TABLES.get(stabilizer, (np.zeros((0, 2, 2), dtype=np.int64), ()))
    if len(ends) < height:
        shells = [_shell_pairs(h) for h in range(len(ends) + 1, height + 1)]
        ends += tuple(itertools.accumulate(map(len, shells), initial=len(table)))[1:]
        table = np.concatenate([table, _complete(np.concatenate(shells), stabilizer)])
        table.setflags(write=False)
        _TABLES[stabilizer] = table, ends
    return table[:ends[height - 1]], ends[:height]


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
        base = _complete(np.array([[c, d]]), "upper")[0]
        twist = np.array([[1, shift], [0, 1]], dtype=np.int64)
        return twist @ base


def cocycle_check(factor, samples=100, tol=1e-12, seed=0):
    """Verify j(x, AB) = j(Bx, A) j(x, B) on random upper half-plane data.

    This is the factor order consistent with matrices acting on the left
    (apply B, then A); a factor violating it, such as a nontrivial
    constant, comes back False.
    """
    samples, tol = _integer("samples", samples, 1), _positive("tol", tol)
    rng = np.random.default_rng(_integer("seed", seed, 0))
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


def slash(f, n, a):
    """The weight-n slash: (f |_n A)(x) = (cx + d)^(-n) f(A x)."""
    n = _integer("weight n", n, -MAX_WEIGHT, MAX_WEIGHT)
    a = exact_integers(a, NotInGroup, "group elements")

    def transformed(z):
        with _float_range(f"the weight-{n} slash"):
            return classical_factor(z, a) ** (-n) * f(moebius(a, z))

    return transformed


def _shell_tail(heights, shell_sizes):
    """Tail estimate from a power law fitted to the last two shell sizes: a
    fit, not a bound, which the cancelling shell sums can make far too small."""
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


def _values(p, y, lead=2):
    """p(y) over the axes of y past ``lead`` (the cosets), one value broadcast."""
    try:
        values = p(y)
    except np.linalg.LinAlgError as exc:  # np.linalg.det reduces over the last two axes
        raise ValidationError(f"the functional must act entry by entry on the array of "
                              f"images, not over its axes: {exc}") from None
    n = y.shape[lead:]
    if np.shape(values) not in ((), n):
        raise ValidationError(f"the functional returned shape {np.shape(values)}, not () or {n}")
    return np.broadcast_to(values, n)


def _shell_series(stabilizer, height, p, x, tol):
    """Partial sums of p(A x) over the coset table, one height shell at a time.

    p is called once per shell on the (2, 2, n) array of images A x (see the
    module docstring), and each shell is summed in coset order. The report
    carries the partial sum after each shell plus a tail estimate fitted to
    the shell decay. A sum that leaves the float range raises NumericalError.
    """
    table, ends = _coset_table(stabilizer, height)
    heights = tuple(range(1, len(ends) + 1))
    partials, sizes = [], []
    total = 0j
    with _float_range("the Poincare series"):
        for start, end in zip((0,) + ends, ends):
            a = table[start:end].transpose(1, 2, 0)  # a[i, j]: n entries
            y = a[:, :1] * x[0, :, None] + a[:, 1:] * x[1, :, None]
            shell = complex(np.cumsum(_values(p, y))[-1])
            total += shell
            partials.append(total)
            sizes.append(abs(shell))
    tail = _shell_tail(heights, sizes)
    settled = len(partials) >= 2 and abs(partials[-1] - partials[-2]) <= tol and tail <= tol
    return PartialSumsReport(heights=heights, partial_sums=tuple(partials), tail_estimate=tail,
                             tolerance=tol, converged=bool(settled))


def poincare_series_uhp(f, n, height, tau, tol=1e-6):
    """Truncated Poincare series sum_A (c tau + d)^(-n) f(A tau) over cosets.

    It is the period series of P(X) = X21^(-n) f(X11 / X21) at X with first
    column (tau, 1), summed over the cosets of the upper-triangular
    stabilizer (see ``_shell_series``). f is called once per height shell on
    the (n,) array of images A tau and acts elementwise, or returns one number.
    """
    n, tau = _integer("weight n", n, -MAX_WEIGHT, MAX_WEIGHT), _number("tau", tau)
    tol = _positive("tol", tol)
    if not tau.imag > 0:
        raise ValidationError(f"tau must be a point of the upper half-plane, got {tau}")

    def p(y):
        return y[1, 0] ** (-n) * _values(f, y[0, 0] / y[1, 0], 0)

    return _shell_series("upper", height, p, np.array([[tau, 0], [1, 0]]), tol)


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
        base = _values(p, x)
        for s in samples:
            moved = _values(p, s.astype(complex) @ x)
            if abs(moved - base) > 1e-8 * max(1.0, abs(base)):
                raise StabilizerMismatch(
                    f"P is not invariant under the declared {stabilizer!r} stabilizer"
                )


def period_poincare(p, pm, stabilizer="lower", height=50, tol=1e-6, seed=0):
    """Poincare series of a matrix functional along the group orbit of a
    period matrix: partial sums of P(A X) over coset representatives.

    The declared stabilizer is validated by sampling before any summing;
    a functional that is not invariant under it raises StabilizerMismatch
    rather than silently producing an order-dependent number. P then gets one
    (2, 2, n) array per height shell (see the module docstring).
    """
    height, tol = _integer("height", height, 1), _positive("tol", tol)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    _check_stabilizer(p, stabilizer, rng)
    x = np.asarray(pm.entries if hasattr(pm, "entries") else pm, dtype=complex)
    if x.shape != (2, 2):
        raise SizeMismatch("period Poincare series needs a 2x2 matrix")
    if stabilizer == "full":
        return PartialSumsReport(heights=(0,), partial_sums=(complex(_values(p, x)),),
                                 tail_estimate=0.0, tolerance=tol, converged=True)
    return _shell_series(stabilizer, height, p, x, tol)


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
    center, radius = _number("center", center), _positive("radius", radius)
    grid = _integer("grid", grid, 2)
    r = (np.arange(grid) + 0.5) * (radius / grid)
    theta = (np.arange(2 * grid) + 0.5) * (2 * np.pi / (2 * grid))
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    with _float_range("the disk average"):
        pts = center + rr * np.exp(1j * tt)
        vals = np.abs(np.vectorize(f)(pts)) ** 2
        integral = float(np.sum(vals * rr) * (radius / grid) * (np.pi / grid))
        return MeanValueReport(lhs=abs(f(center)) ** 2, rhs=integral / (np.pi * radius ** 2))
