"""Abstract polarized Hodge structures on a coordinatized lattice Z^mu.

A structure type is (m, h, Psi): weight, Hodge numbers listed from
h^{m,0} down to h^{0,m}, and the integer intersection form. Filtrations
and decompositions are stored as orthonormal column bases; subspace
equality always means projector distance, never basis equality.
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


@dataclass(frozen=True)
class HodgeType:
    """Type (m, h, Psi) of a polarized Hodge structure."""

    m: int
    h: tuple
    psi: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("weight m must be a positive integer")
        h = tuple(int(x) for x in self.h)
        if len(h) != self.m + 1 or any(x < 0 for x in h):
            raise SizeMismatch(f"h must list {self.m + 1} nonnegative integers")
        if h != h[::-1]:
            raise ValidationError(f"Hodge numbers {h} are not palindromic")
        psi = np.asarray(self.psi)
        if not np.issubdtype(psi.dtype, np.integer):
            rounded = np.round(np.real(psi))
            if np.max(np.abs(psi - rounded)) > 0:
                raise ValidationError("Psi must be an integer matrix")
            psi = rounded.astype(np.int64)
        mu = sum(h)
        if psi.shape != (mu, mu):
            raise SizeMismatch(f"Psi must be {mu}x{mu} for h = {h}")
        if not np.array_equal(psi.T, (-1) ** self.m * psi):
            raise ValidationError("Psi fails the (-1)^m symmetry")
        if abs(round(float(np.linalg.det(psi)))) == 0:
            raise ValidationError("Psi is singular")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "psi", psi)
        self.psi.setflags(write=False)

    @property
    def mu(self):
        return sum(self.h)

    def hodge_number(self, p, q):
        if p + q != self.m or not 0 <= q <= self.m:
            return 0
        return self.h[q]

    def filtration_dim(self, i):
        """dim F^i = sum of h^{p, m-p} over p >= i."""
        return sum(self.h[q] for q in range(self.m - i + 1))

    def pairing(self, a, b):
        """The bilinear form psi(a, b) = a^T Psi b (no conjugation)."""
        return np.asarray(a).T @ self.psi @ np.asarray(b)


@dataclass(frozen=True)
class HodgeFiltration:
    """Decreasing flag F^m <= ... <= F^0 = C^mu, levels indexed 0..m."""

    phi: HodgeType
    levels: tuple

    def __post_init__(self):
        mu, m = self.phi.mu, self.phi.m
        if len(self.levels) != m + 1:
            raise SizeMismatch(f"expected {m + 1} filtration levels")
        cleaned = []
        for i, basis in enumerate(self.levels):
            b = orthonormal_columns(np.asarray(basis, dtype=complex).reshape(mu, -1),
                                    f"F^{i}")
            if b.shape[1] != self.phi.filtration_dim(i):
                raise ValidationError(
                    f"dim F^{i} = {b.shape[1]}, expected {self.phi.filtration_dim(i)}"
                )
            cleaned.append(b)
        for i in range(m):
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
        if len(self.pieces) != m + 1:
            raise SizeMismatch(f"expected {m + 1} decomposition pieces")
        cleaned = []
        for q, basis in enumerate(self.pieces):
            b = orthonormal_columns(np.asarray(basis, dtype=complex).reshape(mu, -1),
                                    f"H^{{{m - q},{q}}}")
            if b.shape[1] != self.phi.h[q]:
                raise ValidationError(
                    f"dim H^{{{m - q},{q}}} = {b.shape[1]}, expected {self.phi.h[q]}"
                )
            cleaned.append(b)
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

    def piece(self, p, q):
        if p + q != self.phi.m or not 0 <= q <= self.phi.m:
            raise SizeMismatch(f"no piece ({p},{q}) in weight {self.phi.m}")
        return self.pieces[q]


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
    phi = dec.phi
    m = phi.m
    levels = []
    for i in range(m, -1, -1):
        blocks = [dec.pieces[q] for q in range(m - i + 1)]
        levels.append(orthonormal_columns(np.hstack(blocks), f"F^{i}"))
    return HodgeFiltration(phi, tuple(reversed(levels)))


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
        Threshold for the vanishing statements, applied after the bases
        are orthonormalized (so entries are O(|Psi|)).

    Returns
    -------
    PolarizationReport
    """
    phi = dec.phi
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
    tau = complex(tau)
    if tau.imag == 0:
        raise RealTau(f"tau = {tau} is real; the line F^1 would meet its conjugate")
    phi = HodgeType(1, (1, 1), np.array([[0, 1], [-1, 0]]))
    line = np.array([[tau], [1.0]], dtype=complex)
    return phi, HodgeFiltration.from_levels(phi, (line,))


def real_piece_bases(dec):
    """Real bases of the pieces H^i and their operators J_i.

    For i < m/2 the real basis interleaves Re/Im of a basis of
    H^{m-i,i} and J_i is the block rotation; for even m the middle piece
    gets its genuine real points and J = Id.
    """
    phi = dec.phi
    m = phi.m
    out = []
    for i in range(m // 2 + 1):
        if m % 2 == 0 and i == m // 2:
            u = dec.pieces[i]
            raw = np.hstack([np.real(u), np.imag(u)])
            q, s, _ = np.linalg.svd(raw, full_matrices=False)
            basis = q[:, : phi.h[i]]
            if basis.shape[1] != phi.h[i] or (s.size >= phi.h[i] and
                                              phi.h[i] > 0 and s[phi.h[i] - 1] <= 1e-10):
                raise DegenerateFiltration("middle real piece has deficient rank")
            j_op = np.eye(basis.shape[1])
        else:
            u = dec.pieces[i]  # basis of H^{m-i, i}
            cols = []
            for k in range(u.shape[1]):
                cols.append(np.real(u[:, k]))
                cols.append(np.imag(u[:, k]))
            basis = (np.column_stack(cols) if cols
                     else np.zeros((phi.mu, 0)))
            d = u.shape[1]
            j_op = np.zeros((2 * d, 2 * d))
            for k in range(d):
                # J sends Re u -> -Im u and Im u -> Re u on each pair
                j_op[2 * k, 2 * k + 1] = 1.0
                j_op[2 * k + 1, 2 * k] = -1.0
        out.append((basis, j_op))
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

    The report maps clause names to worst violations; positivity clauses
    store the negated smallest eigenvalue, so <= 0 means a clean pass.
    """
    phi = dec.phi
    m = phi.m
    pieces = real_piece_bases(dec)
    psi = phi.psi.astype(float)
    viol = {}
    cross = 0.0
    for a, (ba, _) in enumerate(pieces):
        for b, (bb, _) in enumerate(pieces):
            if a == b or ba.shape[1] == 0 or bb.shape[1] == 0:
                continue
            cross = max(cross, float(np.max(np.abs(ba.T @ psi @ bb))))
    viol["orthogonality"] = cross

    sym = 0.0
    for basis, j_op in pieces:
        if basis.shape[1] == 0:
            continue
        jb = basis @ j_op
        sym = max(sym, float(np.max(np.abs(jb.T @ psi @ jb - basis.T @ psi @ basis))))
    viol["J-invariance"] = sym

    if m % 2:
        worst = -np.inf
        for i, (basis, j_op) in enumerate(pieces):
            if basis.shape[1] == 0:
                continue
            sign = (-1.0) ** ((m - 1) // 2 + i)
            gram = sign * basis.T @ psi @ (basis @ j_op)
            gram = 0.5 * (gram + gram.T)
            worst = max(worst, -float(np.linalg.eigvalsh(gram)[0]))
        viol["odd-positivity"] = worst
    else:
        skewzero = 0.0
        worst = -np.inf
        for i, (basis, j_op) in enumerate(pieces):
            if basis.shape[1] == 0:
                continue
            skewzero = max(
                skewzero, float(np.max(np.abs(basis.T @ psi @ (basis @ j_op))))
            ) if i < m // 2 else skewzero
            sign = (-1.0) ** (m // 2 + i)
            gram = sign * basis.T @ psi @ basis
            gram = 0.5 * (gram + gram.T)
            worst = max(worst, -float(np.linalg.eigvalsh(gram)[0]))
        viol["even-isotropy"] = skewzero
        viol["even-positivity"] = worst

    return RealHodgeData(
        phi=phi,
        bases=tuple(b for b, _ in pieces),
        operators=tuple(j for _, j in pieces),
        clause_violations=viol,
    )


def weil_operator(dec):
    """The real operator C acting by signed rotations on the pieces H^i.

    C restricted to H^i is (-1)^((m-1)/2 + i) J_i for odd weight and the
    scalar (-1)^(m/2 + i) for even weight; psi(x, C y) is then symmetric
    positive definite, which is what the callers test.
    """
    phi = dec.phi
    m = phi.m
    pieces = real_piece_bases(dec)
    blocks = []
    basis_cols = []
    for i, (basis, j_op) in enumerate(pieces):
        if m % 2:
            block = (-1.0) ** ((m - 1) // 2 + i) * j_op
        else:
            block = (-1.0) ** (m // 2 + i) * np.eye(basis.shape[1])
        basis_cols.append(basis)
        blocks.append(block)
    full = np.hstack(basis_cols)
    if full.shape[0] != full.shape[1]:
        raise DegenerateFiltration("real pieces do not assemble to a full basis")
    diag = np.zeros_like(full)
    at = 0
    for block in blocks:
        d = block.shape[0]
        diag[at: at + d, at: at + d] = block
        at += d
    return full @ diag @ np.linalg.inv(full)


def group_element_action(a, filt):
    """Transform a filtration by an integer matrix preserving Psi."""
    phi = filt.phi
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.integer):
        rounded = np.round(np.real(a))
        if np.max(np.abs(a - rounded)) > 0:
            raise NotInGroup("group elements must be integer matrices")
        a = rounded.astype(np.int64)
    if a.shape != (phi.mu, phi.mu):
        raise SizeMismatch(f"expected a {phi.mu}x{phi.mu} matrix")
    if not np.array_equal(a @ phi.psi @ a.T, phi.psi):
        raise NotInGroup("matrix does not preserve the intersection form")
    moved = tuple(a.astype(complex) @ filt.level(i) for i in range(phi.m, -1, -1))
    return HodgeFiltration(phi, tuple(reversed(moved)))


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
