"""Abstract polarized Hodge structures on a coordinatized lattice Z^mu.

A structure type is (m, h, Psi): weight, Hodge numbers listed from
h^{m,0} down to h^{0,m}, and the integer intersection form. Filtrations
and decompositions are stored as orthonormal column bases; subspace
equality always means projector distance, never basis equality.

``real_piece_bases`` gives each real piece H^i its basis B_i, its rotation
J_i and its Weil block C_i, the one place the Weil signs are written;
``real_structure`` checks the real form of the polarization (Prop. 1) in
one pass over those pieces, and ``weil_operator`` assembles C from them.
The group check of ``group_element_action`` is ``poincare.is_in_gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateFiltration,
    NotInGroup,
    RankDeficient,
    RealTau,
    SizeMismatch,
    ValidationError,
)
from .numerics import _integer, _integer_det, _number, _positive, exact_integers
from .poincare import is_in_gamma

__all__ = [
    "HodgeType",
    "HodgeFiltration",
    "HodgeDecomposition",
    "RealHodgeData",
    "PolarizationReport",
    "orthonormal_columns",
    "subspace_distance",
    "decomposition_from_filtration",
    "filtration_from_decomposition",
    "verify_polarization",
    "elliptic_hs",
    "weil_operator",
    "real_structure",
    "group_element_action",
    "jacobian_lattice",
]

_RANK_TOL = 1e-10


def orthonormal_columns(basis, label="basis"):
    """Orthonormalize the columns of a (mu, d) matrix, refusing rank drops."""
    b = np.atleast_2d(np.asarray(basis, dtype=complex))
    if b.shape[1] == 0:
        return b
    q, r = np.linalg.qr(b)
    diag = np.abs(np.diag(r))
    if b.shape[1] > b.shape[0] or np.any(diag <= _RANK_TOL * max(1.0, diag.max())):
        raise ValidationError(f"{label} columns are linearly dependent")
    return q


def _checked_bases(phi, bases, what, label, dim):
    """Orthonormalize the m + 1 bases of a flag or a decomposition and check
    that basis i, named ``label(i)``, has dimension ``dim(i)``."""
    if len(bases) != phi.m + 1:
        raise SizeMismatch(f"expected {phi.m + 1} {what}")
    cleaned = []
    for i, basis in enumerate(bases):
        b = orthonormal_columns(np.asarray(basis, dtype=complex).reshape(phi.mu, -1),
                                label(i))
        if b.shape[1] != dim(i):
            raise ValidationError(f"dim {label(i)} = {b.shape[1]}, expected {dim(i)}")
        cleaned.append(b)
    return cleaned


def projector(basis):
    return basis @ basis.conj().T


def subspace_distance(a, b):
    """Spectral distance between the projectors onto two column spans."""
    if a.shape[1] != b.shape[1]:
        return 1.0
    if a.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(projector(a) - projector(b), 2))


def intersect_subspaces(a, b):
    """Orthonormal basis of the intersection of two column spans."""
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    stacked = np.hstack([a, -b])
    _, s, vh = np.linalg.svd(stacked)
    tol = _RANK_TOL * (s[0] if s.size else 1.0)
    null = vh.conj().T[:, np.sum(s > tol):]
    if null.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    return orthonormal_columns(a @ null[: a.shape[1]], "intersection")


def _hodge_numbers(h, m=None):
    """``h`` as a tuple of nonnegative ints; given the weight m, a palindromic
    one of m + 1 entries."""
    h = exact_integers(h, ValidationError, "Hodge numbers")
    if h.ndim != 1 or np.any(h < 0) or m is not None and len(h) != m + 1:
        raise SizeMismatch(f"h must list {'' if m is None else f'{m + 1} '}nonnegative integers")
    h = tuple(h.tolist())
    if m is not None and h != h[::-1]:
        raise ValidationError(f"Hodge numbers {h} are not palindromic")
    return h


@dataclass(frozen=True)
class HodgeType:
    """Type (m, h, Psi) of a polarized Hodge structure."""

    m: int
    h: tuple
    psi: np.ndarray

    def __post_init__(self):
        m = _integer("weight m", self.m, 1)
        h = _hodge_numbers(self.h, m)
        psi = exact_integers(self.psi, ValidationError, "Psi")
        mu = sum(h)
        if psi.shape != (mu, mu):
            raise SizeMismatch(f"Psi must be {mu}x{mu} for h = {h}")
        if not np.array_equal(psi.T, (-1) ** m * psi):
            raise ValidationError("Psi fails the (-1)^m symmetry")
        if _integer_det(psi) == 0:
            raise ValidationError("Psi is singular")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "psi", psi)
        self.psi.setflags(write=False)

    @property
    def mu(self):
        return sum(self.h)

    def filtration_dim(self, i):
        """dim F^i = sum of h^{p, m-p} over p >= i."""
        return sum(self.h[:max(self.m - _integer("level i", i) + 1, 0)])

    def pairing(self, a, b):
        """The bilinear form psi(a, b) = a^T Psi b (no conjugation)."""
        return np.asarray(a).T @ self.psi @ np.asarray(b)


@dataclass(frozen=True)
class HodgeFiltration:
    """Decreasing flag F^m <= ... <= F^0 = C^mu, levels indexed 0..m."""

    phi: HodgeType
    levels: tuple

    def __post_init__(self):
        cleaned = _checked_bases(self.phi, self.levels, "filtration levels",
                                 lambda i: f"F^{i}", self.phi.filtration_dim)
        for i in range(self.phi.m):
            inner = cleaned[i + 1]
            if inner.shape[1] and np.linalg.norm(
                inner - projector(cleaned[i]) @ inner, 2
            ) > 1e-8:
                raise ValidationError(f"F^{i + 1} is not contained in F^{i}")
        object.__setattr__(self, "levels", tuple(cleaned))

    @staticmethod
    def from_levels(phi, upper_levels):
        """Build from (F^1, ..., F^m); F^0 is always the full space."""
        full = np.eye(phi.mu, dtype=complex)
        return HodgeFiltration(phi, (full,) + tuple(upper_levels))

    def level(self, i):
        i = _integer("level i", i)
        if not 0 <= i <= self.phi.m:
            raise SizeMismatch(f"filtration level {i} outside 0..{self.phi.m}")
        return self.levels[i]


@dataclass(frozen=True)
class HodgeDecomposition:
    """Pieces H^{p,q}, stored by q = 0..m as orthonormal bases."""

    phi: HodgeType
    pieces: tuple

    def __post_init__(self):
        mu, m = self.phi.mu, self.phi.m
        cleaned = _checked_bases(self.phi, self.pieces, "decomposition pieces",
                                 lambda q: f"H^{{{m - q},{q}}}", self.phi.h.__getitem__)
        stacked = np.hstack(cleaned) if mu else np.zeros((0, 0))
        s = np.linalg.svd(stacked, compute_uv=False)
        if s.size < mu or s[-1] <= 1e-8:
            raise ValidationError("decomposition pieces do not span C^mu")
        for q in range(m + 1):
            if subspace_distance(np.conj(cleaned[q]), cleaned[m - q]) > 1e-8:
                raise ValidationError(
                    f"conjugate of H^{{{m - q},{q}}} is not H^{{{q},{m - q}}}"
                )
        object.__setattr__(self, "pieces", tuple(cleaned))


def decomposition_from_filtration(filt):
    """Recover the decomposition as H^{p,q} = F^p intersect conj(F^q).

    Parameters
    ----------
    filt : HodgeFiltration

    Returns
    -------
    HodgeDecomposition

    Raises
    ------
    DegenerateFiltration
        If some intersection has the wrong dimension or the pieces fail
        to span, which is the numerical signature of a boundary point
        (F^i meeting conj(F^{m-i+1}) nontrivially).
    """
    phi = filt.phi
    m = phi.m
    pieces = []
    for q in range(m + 1):
        p = m - q
        piece = intersect_subspaces(filt.level(p), np.conj(filt.level(q)))
        if piece.shape[1] != phi.h[q]:
            raise DegenerateFiltration(
                f"dim F^{p} cap conj(F^{q}) = {piece.shape[1]}, expected {phi.h[q]}"
            )
        pieces.append(piece)
    try:
        return HodgeDecomposition(phi, tuple(pieces))
    except ValidationError as exc:
        raise DegenerateFiltration(str(exc)) from exc


def filtration_from_decomposition(dec):
    """Assemble F^i as the span of H^{p, m-p} for p >= i."""
    m = dec.phi.m
    return HodgeFiltration(dec.phi, tuple(
        orthonormal_columns(np.hstack(dec.pieces[: m - i + 1]), f"F^{i}")
        for i in range(m + 1)))


@dataclass(frozen=True)
class PolarizationReport:
    """Outcome of the two Riemann bilinear conditions."""

    first: bool
    second: bool
    max_cross_pairing: float
    min_positivity: float
    details: tuple

    @property
    def passed(self):
        return self.first and self.second


def verify_polarization(dec, tol=1e-10):
    """Check both Riemann relations on a decomposition.

    The first relation asks that psi pair H^{p,q} only with H^{q,p}.
    The second asks that the twisted Hermitian form
    i^(q-p) psi(v, conj v) be positive definite on each H^{p,q}; for the
    elliptic line this is the familiar -sqrt(-1) psi(v, conj v) > 0.

    Parameters
    ----------
    dec : HodgeDecomposition
    tol : float
        Positive, finite threshold for the vanishing statements, applied
        after the bases are orthonormalized (so entries are O(|Psi|)).

    Returns
    -------
    PolarizationReport
    """
    tol, phi = _positive("tol", tol), dec.phi
    m = phi.m
    scale = max(1.0, float(np.linalg.norm(phi.psi, 2)))
    max_cross = 0.0
    for qa in range(m + 1):
        for qb in range(m + 1):
            if qa + qb == m:
                continue  # the (p,q)x(q,p) pairing is the nondegenerate one
            block = phi.pairing(dec.pieces[qa], dec.pieces[qb])
            if block.size:
                max_cross = max(max_cross, float(np.max(np.abs(block))))
    first = max_cross <= tol * scale

    min_pos = np.inf
    details = []
    second = True
    for q in range(m + 1):
        p = m - q
        u = dec.pieces[q]
        if u.shape[1] == 0:
            continue
        gram = (1j) ** (q - p) * phi.pairing(u, np.conj(u))
        herm_defect = float(np.linalg.norm(gram - gram.conj().T, 2))
        if herm_defect > tol * scale:
            second = False
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        low = float(eigs[0])
        min_pos = min(min_pos, low)
        if low <= 0:
            second = False
        details.append((p, q, low, herm_defect))
    return PolarizationReport(
        first=first,
        second=second,
        max_cross_pairing=max_cross,
        min_positivity=float(min_pos),
        details=tuple(details),
    )


def elliptic_hs(tau):
    """The weight-1 structure of an elliptic curve with period ratio tau.

    Points in the lower half-plane are deliberately allowed: they give
    valid filtrations whose polarization check fails its positivity
    clause, which is the operative content of the upper-half-plane
    condition.
    """
    tau = _number("tau", tau)
    if not tau.imag:
        raise RealTau(f"tau = {tau} is real")
    phi = HodgeType(1, (1, 1), np.array([[0, 1], [-1, 0]]))
    line = np.array([[tau], [1.0]], dtype=complex)
    return phi, HodgeFiltration.from_levels(phi, (line,))


def real_piece_bases(dec):
    """Real bases B_i of the pieces H^i, their operators J_i and Weil blocks C_i.

    For i < m/2 the real basis interleaves Re/Im of a basis of
    H^{m-i,i} and J_i is the block rotation; for even m the middle piece
    gets its genuine real points and J = Id.  The Weil operator acts on
    H^i by C_i = (-1)^((m-1)/2 + i) J_i for odd m and by the scalar
    (-1)^(m/2 + i) for even m; both signs are (-1)^(floor(m/2) + i).
    """
    phi = dec.phi
    m = phi.m
    out = []
    for i in range(m // 2 + 1):
        u = dec.pieces[i]  # basis of H^{m-i, i}
        if 2 * i == m:
            q, s, _ = np.linalg.svd(np.hstack([u.real, u.imag]), full_matrices=False)
            d = phi.h[i]
            if s.size < d or (d and s[d - 1] <= 1e-10):
                raise DegenerateFiltration("middle real piece has deficient rank")
            basis, j_op = q[:, :d], np.eye(d)
        else:
            basis = np.empty((phi.mu, 2 * u.shape[1]))
            basis[:, 0::2], basis[:, 1::2] = u.real, u.imag
            # J sends Re u -> -Im u and Im u -> Re u on each pair
            j_op = np.kron(np.eye(u.shape[1]), [[0.0, 1.0], [-1.0, 0.0]])
        weil = (-1.0) ** (m // 2 + i) * (j_op if m % 2 else np.eye(len(j_op)))
        out.append((basis, j_op, weil))
    return out


@dataclass(frozen=True)
class RealHodgeData:
    """Real pieces H^i with their rotations J_i and the Prop.-1 report."""

    phi: HodgeType
    bases: tuple
    operators: tuple
    clause_violations: dict = field(compare=False)

    @property
    def passed(self):
        return all(v <= 1e-8 for v in self.clause_violations.values())


def real_structure(dec):
    """Split the real span into the pieces H^i and verify Prop. 1.

    One pass over the pieces checks that they are psi-orthogonal, that
    psi is J_i-invariant and that sym(B_i^T psi B_i C_i) is positive
    definite.  (Isotropy of H^{m-i,i} under psi is the J_i-invariance
    clause; B_i^T psi B_i J_i itself need not vanish.)  The report maps
    clause names to worst violations; positivity clauses store the
    negated smallest eigenvalue, so <= 0 means a clean pass.
    """
    m = dec.phi.m
    psi = dec.phi.psi.astype(float)
    pieces = real_piece_bases(dec)
    viol = {"orthogonality": 0.0, "J-invariance": 0.0}
    worst = -np.inf

    def record(key, block):
        viol[key] = max(viol[key], float(np.max(np.abs(block))))

    for i, (basis, j_op, weil) in enumerate(pieces):
        if basis.shape[1] == 0:
            continue
        for other, _, _ in pieces[i + 1:]:
            if other.shape[1]:
                record("orthogonality", basis.T @ psi @ other)
        jb = basis @ j_op
        record("J-invariance", jb.T @ psi @ jb - basis.T @ psi @ basis)
        gram = basis.T @ psi @ (basis @ weil)
        worst = max(worst, -float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[0]))
    viol["odd-positivity" if m % 2 else "even-positivity"] = worst
    return RealHodgeData(
        phi=dec.phi,
        bases=tuple(b for b, _, _ in pieces),
        operators=tuple(j for _, j, _ in pieces),
        clause_violations=viol,
    )


def weil_operator(dec):
    """The real operator C acting on each piece H^i by its Weil block C_i.

    With B the real bases side by side, C = [B_i C_i] B^-1; psi(x, C y)
    is then symmetric positive definite, which is what the callers test.
    """
    pieces = real_piece_bases(dec)
    full = np.hstack([b for b, _, _ in pieces])
    if full.shape[0] != full.shape[1]:
        raise DegenerateFiltration("real pieces do not assemble to a full basis")
    return np.hstack([b @ c for b, _, c in pieces]) @ np.linalg.inv(full)


def group_element_action(a, filt):
    """Transform a filtration by an integer matrix preserving Psi."""
    phi = filt.phi
    a = exact_integers(a, NotInGroup, "group elements")
    if a.shape != (phi.mu, phi.mu):
        raise SizeMismatch(f"expected a {phi.mu}x{phi.mu} matrix")
    if not is_in_gamma(a, phi.psi):
        raise NotInGroup("matrix does not preserve the intersection form")
    return HodgeFiltration(phi, tuple(a.astype(complex) @ level for level in filt.levels))


def jacobian_lattice(filt):
    """Project the integer basis into F^((m+1)/2) along its conjugate.

    Returns the mu projected columns; they must span a real lattice of
    rank twice the complex dimension of the target, otherwise the
    filtration is degenerate for this construction.
    """
    phi = filt.phi
    if phi.m % 2 == 0:
        raise ValidationError("Jacobian lattice needs odd weight")
    k = (phi.m + 1) // 2
    u = filt.level(k)
    stacked = np.hstack([u, np.conj(u)])
    s = np.linalg.svd(stacked, compute_uv=False)
    if stacked.shape[1] != phi.mu or s[-1] <= 1e-10 * s[0]:
        raise RankDeficient("F^k and its conjugate do not split the space")
    coords = np.linalg.solve(stacked, np.eye(phi.mu, dtype=complex))
    proj = u @ coords[: u.shape[1]]
    real_embed = np.vstack([np.real(proj), np.imag(proj)])
    sv = np.linalg.svd(real_embed, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * max(1.0, sv[0])))
    if rank != 2 * u.shape[1]:
        raise RankDeficient(
            f"projected lattice has real rank {rank}, expected {2 * u.shape[1]}"
        )
    return proj
