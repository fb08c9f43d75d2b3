"""Independent reference implementations and frozen constants.

Everything here deliberately avoids the package's own numerical routes:
periods come from Carlson symmetric integrals (mpmath, 25 digits), j
from mpmath's kleinj, Eisenstein values from naive truncated double
sums, Hurwitz zeta tails from direct sums, and the case classifier
from a direct transcription of its defining conditions. Frozen
constants record oracle outputs so the tests stay fast and drift
becomes visible.
"""

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 25


# --- periods ---------------------------------------------------------------

def oracle_lattice(t2, t3):
    """Period lattice generators of y^2 = 4x^3 - t2 x - t3 via Carlson RF.

    The formula is pinned by the anchor check below: at (4, 0) the first
    generator equals the lemniscate constant Gamma(1/4)^2 / (2 sqrt(2 pi)).
    """
    roots = mp.polyroots([4, 0, -mp.mpc(t2), -mp.mpc(t3)])
    e1, e2, e3 = roots
    wa = 2 * mp.elliprf(0, e1 - e3, e1 - e2)
    wb = 2 * mp.elliprf(0, e3 - e1, e3 - e2)
    return complex(wa), complex(wb)


def lattice_coordinates(z, w1, w2):
    """Real coordinates of z in the basis (w1, w2)."""
    basis = np.array([[w1.real, w2.real], [w1.imag, w2.imag]])
    return np.linalg.solve(basis, [complex(z).real, complex(z).imag])


def in_lattice(z, w1, w2, tol=1e-8):
    mn = lattice_coordinates(z, w1, w2)
    return bool(np.max(np.abs(mn - np.round(mn))) < tol)


def same_lattice(gens_a, gens_b, tol=1e-8):
    """Mutual integer expressibility with a unimodular change of basis."""
    coords = [lattice_coordinates(g, *gens_b) for g in gens_a]
    if any(np.max(np.abs(c - np.round(c))) >= tol for c in coords):
        return False
    m = np.round(np.array(coords)).astype(int)
    return abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) == 1


def oracle_j(tau):
    """kleinj normalization: 1 at i, 0 at the sixth root of unity."""
    return complex(mp.kleinj(complex(tau)))


# --- Eisenstein by brute truncation ----------------------------------------

def oracle_eisenstein(k, omega1, omega2, radius=400):
    """Naive truncated double lattice sum; error roughly radius^(2-k)."""
    m = np.arange(-radius, radius + 1)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    pts = mm * complex(omega1) + nn * complex(omega2)
    pts[radius, radius] = 1.0  # placeholder; excluded below
    vals = pts ** (-float(k))
    vals[radius, radius] = 0.0
    return complex(vals.sum())


# --- Hurwitz zeta tails: direct sums ----------------------------------------

def oracle_zeta_tails(n, powers, bits=256):
    """n^s zeta(s, n+1) = sum_{m > n} (n/m)^s for increasing powers, to 30 digits.

    The terms m < 40n are kept as integers scaled by 2^bits, each stepped
    from the previous power with one floor; the rest is n^s mp.zeta(s, 40n).
    mp.zeta(s, n+1) is not used: near s = 35, n = 411 it is off by about
    1e-9, even at 60 digits.
    """
    terms = [(1 << bits, m) for m in range(n + 1, 40 * n)]
    out, prev = {}, 0
    for s in powers:
        step, prev = s - prev, s
        terms = [(t * n ** step // m ** step, m) for t, m in terms]
        terms = [(t, m) for t, m in terms if t]
        with mp.workdps(30):
            head = mp.mpf(sum(t for t, _ in terms)) / 2 ** bits
            out[s] = head + mp.mpf(n) ** s * mp.zeta(s, 40 * n)
    return out


# --- case classifier: direct transcription ----------------------------------

def oracle_case(m, h):
    """Hand-coded reading of the two-case criterion.

    Case 1: odd weight with only the two middle Hodge numbers nonzero.
    Case 2: even weight, at most the three middle ones nonzero, and the
    off-middle pair at most 1. Everything else: no.
    """
    nonzero = [q for q, v in enumerate(h) if v != 0]
    if m % 2 == 1:
        a = (m - 1) // 2
        if all(q in (a, a + 1) for q in nonzero):
            return "Case1"
        return "No"
    a = m // 2
    if all(q in (a - 1, a, a + 1) for q in nonzero) and (
        a - 1 < 0 or h[a - 1] <= 1
    ):
        return "Case2"
    return "No"


def palindromic_vectors(mu_max, m):
    """All h of length m+1 with h[q] = h[m-q], sum >= 1, sum <= mu_max."""
    out = []

    def fill(prefix, remaining):
        if not remaining:
            h = tuple(prefix)
            if h[::-1] == h and 1 <= sum(h) <= mu_max:
                out.append(h)
            return
        for v in range(mu_max + 1):
            fill(prefix + [v], remaining - 1)

    fill([], m + 1)
    return out


# --- Lie filtration dims: every entry of N an unknown ------------------------

def oracle_lie_filtration_dims(point):
    """dim F^i(g) for i = 0..-m by the dense system over all mu^2 entries of N.

    At each level the rows of N^T Psi + Psi N = 0 are stacked with the rows
    of (1 - P_(p+i)) N F^p = 0 for every p with p + i >= 1, one column per
    matrix unit E_ab, and the nullity is read off one SVD.
    """
    phi = point.phi
    mu, psi = phi.mu, phi.psi.astype(complex)
    units = np.eye(mu * mu).reshape(-1, mu, mu)  # E_ab in row-major order
    lie = np.array([(e.T @ psi + psi @ e).flatten() for e in units]).T
    dims = []
    for i in range(0, -phi.m - 1, -1):
        blocks = [lie]
        for p in range(1 - i, phi.m + 1):
            target = point.level(p + i)
            comp = np.eye(mu) - target @ target.conj().T
            blocks.append(np.array([(comp @ e @ point.level(p)).flatten()
                                    for e in units]).T)
        s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
        dims.append(mu * mu - int(np.sum(s > 1e-8 * s[0])))
    return tuple(dims)


# --- brute-force coset classes ----------------------------------------------

def oracle_coset_classes(height):
    """Coprime pairs with max |.| <= height, modulo overall sign."""
    seen = set()
    for a in range(-height, height + 1):
        for b in range(-height, height + 1):
            if math.gcd(a, b) != 1:
                continue
            if (a, b) in seen or (-a, -b) in seen:
                continue
            seen.add((a, b))
    return seen


# --- frozen oracle outputs ---------------------------------------------------

# Gamma(1/4)^2 / (2 sqrt(2 pi)), the first period at (t2, t3) = (4, 0)
LEMNISCATE = 2.6220575542921198104648395899

# period matrix at (4, 4); first column checked against oracle_lattice,
# determinant against the Legendre value sigma * 2 pi i
P44 = np.array([
    [2.1965830501220247 + 0.0j, -1.5404129648852534 + 0.0j],
    [1.0982915250609560 - 2.3535438806150717j,
     -0.7702064824425154 - 1.2099500630790514j],
])

# four-coefficient family at (2, 1, 4, 0); det = sigma * 2 pi i / 2
K2140 = np.array([
    [2.2048787979930610 + 0.0j, 1.4924603520337338 + 0.0j],
    [0.0 - 2.2048787979930630j, 0.0 - 2.9172972439522886j],
])

# E_4 on the square lattice Z + 2i Z, from the naive double sum
E4_2I = 2.1664582514808024

# kleinj at 2i is exactly 66^3 / 1728
J_2I = 166.375

# integer q-expansion of 1728 j, exponents -1..4
J_QCOEFFS = (1, 744, 196884, 21493760, 864299970, 20245856256)

# monodromy around the positive t3 discriminant root at t2 = 4
T3_ROOT = math.sqrt(64.0 / 27.0)
M_LOOP = np.array([[1, 0], [-1, 1]])


def check_anchor():
    gens = oracle_lattice(4.0, 0.0)
    assert same_lattice((LEMNISCATE, -1j * LEMNISCATE), gens, tol=1e-12)


check_anchor()
