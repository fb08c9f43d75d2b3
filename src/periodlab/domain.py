"""Period-domain dimension counts and the Hermitian classification.

Everything is computed at a point as nullspaces on an explicit basis of
the Lie algebra g of the form-preserving group; closed-form dimension
formulas (Siegel g(g+1)/2, symplectic/orthogonal algebra dimensions) live
in the tests as oracles, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import UnsupportedType, ValidationError
from .hodge import HodgeFiltration, HodgeType, _hodge_numbers, projector
from .numerics import MAX_WEIGHT, _integer

__all__ = [
    "HermitianCase",
    "DomainReport",
    "classify_hermitian",
    "lie_filtration_dims",
    "domain_dims",
    "standard_type",
    "base_point",
    "kodaira_spencer_count",
]

_SV_TOL = 1e-8


class HermitianCase(str, Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"
    NO = "No"


def classify_hermitian(m, h):
    """Prop.-3 test for whether the domain is Hermitian symmetric.

    Case1: odd weight m = 2a+1 with Hodge numbers supported on p in
    {a, a+1}. Case2: even weight m = 2a with support in {a-1, a, a+1}
    and h^{a+1,a-1} at most 1. Everything else is No.
    """
    m = _integer("weight m", m, 0)
    h = _hodge_numbers(h, m)
    support = {m - q for q, val in enumerate(h) if val}
    if m % 2:
        a = (m - 1) // 2
        if support <= {a, a + 1}:
            return HermitianCase.CASE1
        return HermitianCase.NO
    a = m // 2
    extreme = h[a - 1] if a >= 1 else 0  # h^{a+1, a-1}
    if support <= {a - 1, a, a + 1} and extreme <= 1:
        return HermitianCase.CASE2
    return HermitianCase.NO


def _lie_basis(phi):
    """Basis of g = {N : N^T Psi + Psi N = 0} as a (dim g, mu, mu) stack.

    Since Psi^T = (-1)^m Psi, the solutions are N = Psi^-1 X with X
    symmetric for odd m and skew for even m; X runs over the unit
    matrices E_ab +- E_ba of the upper triangle, and each N is scaled to
    unit norm.
    """
    mu = phi.mu
    a, b = np.triu_indices(mu, k=1 - phi.m % 2)
    x = np.zeros((a.size, mu, mu))
    x[np.arange(a.size), a, b] = 1.0
    x += (-1) ** (phi.m + 1) * x.transpose(0, 2, 1)
    basis = np.linalg.inv(phi.psi) @ x
    return basis / np.linalg.norm(basis, axis=(1, 2), keepdims=True)


def lie_filtration_dims(point):
    """Dimensions of F^i(g_C) for i = 0, -1, ..., -m at a filtration point.

    F^i(g) collects the form-preserving endomorphisms N with
    N(F^p) inside F^(p+i) for every p; the result is nondecreasing as i
    drops and tops out at dim g itself. Each containment is linear in the
    coefficients of N on the basis of g, so F^i(g) is a nullspace there.
    """
    phi = point.phi
    basis = _lie_basis(phi)
    comp = [np.eye(phi.mu) - projector(f) for f in point.levels]
    dims = []
    for i in range(0, -phi.m - 1, -1):
        conditions = [(comp[p + i] @ basis @ point.levels[p]).reshape(len(basis), -1)
                      for p in range(1 - i, phi.m + 1)]
        rank = 0
        if conditions:
            s = np.linalg.svd(np.hstack(conditions), compute_uv=False)
            rank = int(np.sum(s > _SV_TOL * max(1.0, s[0])))
        dims.append(len(basis) - rank)
    return tuple(dims)


@dataclass(frozen=True)
class DomainReport:
    """Dimension data of the period domain at a base point."""

    dim_compact_dual: int
    dim_D: int
    dim_F0_lie: int
    dim_horizontal: int
    hermitian_case: HermitianCase
    lie_dims: tuple

    def __post_init__(self):
        if self.dim_D != self.dim_compact_dual:
            raise ValidationError("D and its compact dual must share a dimension")
        if not 0 <= self.dim_horizontal <= self.dim_D:
            raise ValidationError("horizontal dimension out of range")


def domain_dims(phi, point=None):
    """Assemble the DomainReport for a type, at an optional explicit point."""
    if point is None:
        point = base_point(phi)
    dims = lie_filtration_dims(point)
    total = dims[-1]
    f0 = dims[0]
    horizontal = (dims[1] if phi.m >= 1 else total) - f0
    return DomainReport(
        dim_compact_dual=total - f0,
        dim_D=total - f0,
        dim_F0_lie=f0,
        dim_horizontal=horizontal,
        hermitian_case=classify_hermitian(phi.m, phi.h),
        lie_dims=dims,
    )


def _siegel_psi(g):
    eye = np.eye(g, dtype=np.int64)
    zero = np.zeros((g, g), dtype=np.int64)
    return np.block([[zero, eye], [-eye, zero]])


def standard_type(m, h):
    """The built-in type of weight m and Hodge numbers h, else UnsupportedType.

    Psi is the standard symplectic form for h = (g,g) and h = (1,1,1,1),
    and diag(+1 x k, -1, -1) for h = (1,k,1).
    """
    m, h = _integer("weight m", m), _hodge_numbers(h)
    if m == 1 and len(h) == 2 and h[0] == h[1]:
        return HodgeType(1, h, _siegel_psi(h[0]))
    if m == 2 and len(h) == 3 and h[0] == h[2] == 1:
        return HodgeType(2, h, np.diag([1] * h[1] + [-1, -1]).astype(np.int64))
    if m == 3 and h == (1, 1, 1, 1):
        return HodgeType(3, h, _siegel_psi(2))
    raise UnsupportedType(f"no built-in base point for weight {m} with h = {h}; supported: "
                          "weight 1 h=(g,g), weight 2 h=(1,k,1), weight 3 h=(1,1,1,1)")


def base_point(phi):
    """A standard polarized point for a type equal to standard_type(m, h).

    Weight 1: the Siegel point tau = i*Id. Weight 2: the quadric point
    e_{k+1} + i e_{k+2}. Weight 3: an explicit flag built from e1 + i e3
    and e2 - i e4. Any other type must come with a caller-supplied point.
    """
    m, h = phi.m, phi.h
    if not np.array_equal(phi.psi, standard_type(m, h).psi):
        raise UnsupportedType(f"no built-in base point for weight {m}, h = {h} with this form")
    if m == 1:
        g = h[0]
        top = np.vstack([1j * np.eye(g), np.eye(g)])
        return HodgeFiltration.from_levels(phi, (top,))
    if m == 2:
        k = h[1]
        v = np.zeros((phi.mu, 1), dtype=complex)
        v[k, 0] = 1.0
        v[k + 1, 0] = 1j
        middle = np.hstack([v, np.eye(phi.mu, k, dtype=complex)])
        return HodgeFiltration.from_levels(phi, (middle, v))
    v0 = np.array([[1.0], [0.0], [1j], [0.0]])
    v1 = np.array([[0.0], [1.0], [0.0], [-1j]])
    f2 = np.hstack([v0, v1])
    f1 = np.hstack([v0, v1, np.conj(v1)])
    return HodgeFiltration.from_levels(phi, (f1, f2, v0))


def kodaira_spencer_count(n, d):
    """Effective parameter count for degree-d hypersurfaces in P^(n+1), n and d up to MAX_WEIGHT."""
    n, d = _integer("n", n, 1, MAX_WEIGHT), _integer("d", d, 1, MAX_WEIGHT)
    return math.comb(n + 1 + d, d) - (n + 2) ** 2
