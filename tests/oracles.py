"""Independent reference implementations and frozen constants.

Everything here deliberately avoids the route it checks:
period lattices come from Carlson symmetric integrals (mpmath, 25
digits), single cut cycles from Gauss-Legendre quadrature of the
integrand (the package's Carlson closed forms are what they check),
cubic roots from numpy's companion-matrix eigenvalues, monodromy from
the package's ODE transport (``transport_entries``, which the Carlson
braid continuation of ``monodromy`` does not use), the basis continuation
from a scan that rounds T Q^-1 at Carlson matrices step by step (the
braid route does not round along the path), j from mpmath's kleinj,
Eisenstein values from naive truncated double sums or from an mpmath
Lambert series at the unreduced tau, Hurwitz zeta tails from direct
sums (in mpmath for complex starts), the classical Poincare series from a
per-coset Moebius loop, and the case classifier from a direct
transcription of its defining conditions. Frozen constants record oracle
outputs so the tests stay fast and drift becomes visible.
"""

import cmath
import math

import mpmath as mp
import numpy as np

from periodlab import elliptic, poincare
from periodlab.errors import StepUnderflow
from periodlab.gaussmanin import transport_entries
from periodlab.numerics import nearest_integer_matrix, quad_sqrt_singular

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


def oracle_curve_roots(t2, t3):
    """Roots of 4x^3 - t2 x - t3 as eigenvalues of the companion matrix.

    Three vectorised Newton steps polish them; they are sorted by
    (Re, Im) like ``curve_roots``.
    """
    roots = np.roots([4.0, 0.0, -complex(t2), -complex(t3)]).astype(np.complex128)
    for _ in range(3):
        val = 4.0 * roots ** 3 - t2 * roots - t3
        der = 12.0 * roots ** 2 - t2
        roots = roots - val / der
    order = sorted(range(3), key=lambda k: (roots[k].real, roots[k].imag))
    return roots[order]


def oracle_segment_cycle(e_a, e_b, e_c, rho, tol=1e-10):
    """(dx/y, x dx/y) over the cycle around the cut [e_a, e_b], by quadrature.

    A route independent of the Carlson closed forms, on the same branch:
    y^2 = 4 (x-e_a)(x-e_b)(x-e_c) is -4 d^2 (e_a-e_c) u (1-u) (1+zeta u)
    on x = e_a + u d, d = e_b - e_a, and y is taken as 2i d S sqrt(u)
    sqrt(1-u) sqrt(1+zeta u) with principal roots and S = sqrt(rho)
    sqrt((e_a-e_c)/rho). ``tol`` is relative to the integral's scale
    1/|sqrt(e_a - e_c)|.
    """
    d = e_b - e_a
    ac = e_a - e_c
    zeta = d / ac
    sq_ac = cmath.sqrt(rho) * cmath.sqrt(ac / rho)

    def inv_y(x):
        u = min(max(((x - e_a) / d).real, 0.0), 1.0)
        y = 2j * d * sq_ac * (math.sqrt(u) * math.sqrt(1.0 - u)) * cmath.sqrt(1.0 + u * zeta)
        return 1.0 / y

    # split the cut where it passes closest to e_c, so that a near-singular
    # point of the integrand sits at the clustered end nodes of both pieces
    u_near = -zeta.real / abs(zeta) ** 2
    ends = [e_a, e_a + u_near * d, e_b] if 0.0 < u_near < 1.0 else [e_a, e_b]
    scale = 1.0 / abs(sq_ac)
    i0 = i1 = 0.0
    for lo, hi in zip(ends, ends[1:]):
        i0 += quad_sqrt_singular(inv_y, lo, hi, tol * scale)
        i1 += quad_sqrt_singular(lambda x: x * inv_y(x), lo, hi,
                                 tol * scale * max(abs(e_a), abs(e_b)))
    return 2.0 * i0, 2.0 * i1


def oracle_clearance(path, discriminant):
    """Certified |discriminant| along ``path``, one segment at a time.

    On each segment the cubic through the hook's values at s = 0, 1/3, 2/3
    and 1 is solved with ``np.roots`` after dropping leading coefficients
    at most 1e-14 of the largest; the bound is |lead| times the product of
    the roots' distances from [0, 1], less the dropped moduli.
    """
    nodes = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    fit = np.linalg.inv(np.vander(nodes))
    worst = np.inf
    for start, velocity in path.segments():
        coeffs = fit @ np.array([discriminant(start + u * velocity) for u in nodes])
        size = np.abs(coeffs)
        first = np.flatnonzero(size > 1e-14 * size.max())[0]
        roots = np.roots(coeffs[first:])
        dist = np.abs(roots - np.clip(roots.real, 0.0, 1.0))
        worst = min(worst, abs(coeffs[first]) * np.prod(dist) - size[:first].sum())
    return worst


# Largest distance from the nearest integer matrix at which T Q^-1 counts
# as a clean rounding in the scan, and its smallest step.
SCAN_GATE = 0.3
SCAN_STEP_FLOOR = 256.0 * float(np.finfo(np.float64).eps)


def _scan_change(T, Q):
    """``round(T Q^-1)`` as nested int tuples, or None unless every entry lies
    within ``SCAN_GATE`` of its integer and the integer matrix is unimodular."""
    (t00, t01), (t10, t11) = T
    (q00, q01), (q10, q11) = Q
    det = q00 * q11 - q01 * q10
    entries = ((t00 * q11 - t01 * q10) / det, (t01 * q00 - t00 * q01) / det,
               (t10 * q11 - t11 * q10) / det, (t11 * q00 - t10 * q01) / det)
    ints = []
    for v in entries:
        if not (abs(v.imag) < SCAN_GATE and abs(v.real) < 2.0 ** 52):
            return None  # also a non-finite entry, which round() refuses
        n = round(v.real)
        if abs(v - n) >= SCAN_GATE:
            return None
        ints.append(n)
    n00, n01, n10, n11 = ints
    if abs(n00 * n11 - n01 * n10) != 1:
        return None
    return (n00, n01), (n10, n11)


def _scan_apply(N, Q):
    """The integer combination ``N Q`` of the rows of ``Q``."""
    (n00, n01), (n10, n11) = N
    (q00, q01), (q10, q11) = Q
    return ((n00 * q00 + n01 * q10, n00 * q01 + n01 * q11),
            (n10 * q00 + n11 * q10, n10 * q01 + n11 * q11))


def oracle_continue_basis(waypoints, T):
    """Carry the rows ``T`` along a polygon by integer rounding: the scan.

    At each step point the Carlson matrix Q (``elliptic._carlson_matrix``,
    the only library call) is computed, and the continued matrix becomes
    ``N Q`` with ``N = round(T Q^-1)``.  A step from s to s + h on a segment
    is accepted only when the direct rounding and two half-steps agree on N;
    it then doubles, otherwise it halves, down to ``SCAN_STEP_FLOOR``
    (``StepUnderflow``).  The step carries over from one segment to the
    next.  Returns the continued matrix at the last waypoint, ``N Q`` there.
    This is a sampled check, not a bound; it is the reference the braid
    route is tested against.
    """
    h = 1.0
    for k, (a, b) in enumerate(zip(waypoints[:-1], waypoints[1:])):
        if a == b:
            continue
        cache = {}

        def carlson_at(s):
            if s not in cache:
                pt = b if s == 1.0 else [u + s * (v - u) for u, v in zip(a, b)]
                cache[s] = elliptic._carlson_matrix(pt)
            return cache[s]

        s = 0.0
        while s < 1.0:
            h = min(h, 1.0 - s)
            if h < SCAN_STEP_FLOOR:
                raise StepUnderflow(
                    f"continuation step {h:.3e} below floor {SCAN_STEP_FLOOR:.3e} "
                    f"at s={s} of segment {k} on the path to t={waypoints[-1]}")
            end = 1.0 if h == 1.0 - s else s + h
            Q_end = carlson_at(end)
            N = _scan_change(T, Q_end)
            if N is not None:
                Q_mid = carlson_at(s + 0.5 * h)
                N_mid = _scan_change(T, Q_mid)
                if N_mid is not None and _scan_change(_scan_apply(N_mid, Q_mid), Q_end) == N:
                    T = _scan_apply(N, Q_end)
                    s = end
                    h *= 2.0
                    continue
            h *= 0.5
    return T


def oracle_period_matrix(t):
    """``period_matrix`` by the scan along the default path from the anchor."""
    waypoints = elliptic.default_path(t).waypoints.tolist()
    return np.array(oracle_continue_basis(waypoints, elliptic._anchor_matrix().tolist()))


def oracle_monodromy_ode(loop, P0):
    """Integer matrix M with P_end = M P0, by ODE transport of P0 around loop.

    Returns ``(M, deviation)`` from ``nearest_integer_matrix`` at 1e-4.
    """
    P0 = np.asarray(P0, dtype=np.complex128)
    return nearest_integer_matrix(transport_entries(loop, P0) @ np.linalg.inv(P0), 1e-4)


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


# --- the q-expansion of j ------------------------------------------------

def _series_product(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def oracle_j_coefficients(n):
    """The first n coefficients of 1728 j = E4^3 / Delta, from q^(-1) on.

    Delta is the Jacobi product q prod (1 - q^m)^24, expanded factor by
    factor, and E4 = 1 + 240 sum sigma_3(m) q^m comes from direct divisor
    sums; neither E6 nor the identity E4^3 - E6^2 = 1728 Delta enters.
    """
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
                for m in range(1, n)]
    prod = [1] + [0] * (n - 1)  # prod (1 - q^m)^24 up to q^(n-1)
    for m in range(1, n):
        for _ in range(24):
            for k in range(n - 1, m - 1, -1):
                prod[k] -= prod[k - m]
    num = _series_product(e4, _series_product(e4, e4))
    out = []  # num / prod, whose leading coefficient is 1
    for k in range(n):
        out.append(num[k] - sum(prod[i] * out[k - i] for i in range(1, k + 1)))
    return tuple(out)


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


def oracle_eisenstein_q(k, tau, dps=60):
    """E_k(Z tau + Z) from the Lambert series at tau itself, in mpmath.

    2 zeta(k) + 2 (2 pi i)^k / (k-1)! sum_n n^(k-1) q^n / (1 - q^n), with
    no modular transformation, summed past its peak until the terms drop
    below 10^-dps of the largest one.
    """
    with mp.workdps(dps):
        tau = mp.mpc(tau.real, tau.imag)
        q = mp.exp(2j * mp.pi * tau)
        peak = (k - 1) / -mp.log(abs(q))
        total, biggest, q_n, n = mp.mpc(0), mp.mpf(0), mp.mpc(1), 0
        while True:
            n += 1
            q_n *= q
            term = mp.mpf(n) ** (k - 1) * q_n / (1 - q_n)
            total += term
            biggest = max(biggest, abs(term))
            if n > peak and abs(term) < mp.mpf(10) ** -dps * biggest:
                break
        value = 2 * mp.zeta(k) + 2 * (2j * mp.pi) ** k / mp.factorial(k - 1) * total
        return complex(value)


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


def oracle_power_sum(s, w):
    """w^s sum_{j >= 0} (w + j)^(-s) for a complex start w, to 20 digits.

    The first J = 400 + 4|w| terms are summed directly. The rest is
    a^(-s) (a/(s-1) + 1/2 + s/(12 a)) at a = w + J, whose error, about
    s^3 |a|^(-s-3) / 720, is below 1e-16 of the sum for the starts tested.
    mp.zeta(s, a) is not used: at complex a it is off by 1e-9 (s = 60).
    """
    with mp.workdps(20):
        w = mp.mpc(w)
        n = 400 + 4 * int(abs(w))
        head = mp.fsum((w / (w + j)) ** s for j in range(n))
        a = w + n
        return complex(head + (w / a) ** s * (a / (s - 1) + mp.mpf(1) / 2 + s / (12 * a)))


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


def oracle_coset_table(stabilizer, height):
    """The coset table and its shell ends, built one pair at a time in Python.

    Shell h lists the coprime pairs (h, b) for b from -h to h, then (a, h)
    and (a, -h) for a from 1 to h - 1 (shell 1 is (0, 1), (1, 0), (1, 1),
    (1, -1)); the scalar extended gcd u a + v b = 1 completes each pair, as
    the bottom row [[v, -u], [a, b]] ("upper") or the top row
    [[a, b], [-v, u]] ("lower").
    """
    rows, ends = [], []
    for h in range(1, height + 1):
        pairs = [(0, 1), (1, 0), (1, 1), (1, -1)] if h == 1 else \
            [(h, b) for b in range(-h, h + 1) if math.gcd(h, b) == 1] + \
            [(a, sign * h) for a in range(1, h) if math.gcd(a, h) == 1 for sign in (1, -1)]
        for a, b in pairs:
            g, u, v = _ext_gcd(a, b)
            if g < 0:
                g, u, v = -g, -u, -v
            rows.append(((v, -u), (a, b)) if stabilizer == "upper" else ((a, b), (-v, u)))
        ends.append(len(rows))
    return np.array(rows, dtype=np.int64), tuple(ends)


def _shell_report(shells, tol):
    """(partial_sums, tail_estimate, converged, abs_sums) of a series given as
    its shells' term lists, each summed left to right in Python complex;
    abs_sums[k] is the running sum of |term| through shell k + 1."""
    total, mass, partials, sizes, abs_sums = 0j, 0.0, [], [], []
    for terms in shells:
        shell = sum(terms, 0j)
        total += shell
        mass += sum(map(abs, terms))
        partials.append(total)
        sizes.append(abs(shell))
        abs_sums.append(mass)
    tail = poincare._shell_tail(tuple(range(1, len(sizes) + 1)), sizes)
    settled = len(partials) >= 2 and abs(partials[-1] - partials[-2]) <= tol and tail <= tol
    return tuple(partials), tail, bool(settled), tuple(abs_sums)


def oracle_uhp_series(f, weights, height, tau, tol=1e-6):
    """The classical Poincare series by its own per-coset loop.

    Over the same coset table as ``poincare_series_uhp``, each row is cast
    to float, and c tau + d and the Moebius image A tau are formed one coset
    at a time; one f call per coset serves every weight in ``weights``.
    Returns {n: (partial_sums, tail_estimate, converged, abs_sums)}.
    """
    table, ends = poincare._coset_table("upper", height)
    tau = complex(tau)
    shells = [[(a[1, 0] * tau + a[1, 1], f(poincare.moebius(a, tau)))
               for a in table[start:end].astype(float)]
              for start, end in zip((0,) + ends, ends)]
    return {n: _shell_report(([j ** (-n) * w for j, w in terms] for terms in shells), tol)
            for n in weights}


def oracle_period_series(p, x, stabilizer, height, tol=1e-6):
    """The period Poincare series by its own per-coset loop.

    Over the same coset table as ``period_poincare``, A X is formed one coset
    at a time in Python complex arithmetic, and p is called once per coset on
    a (2, 2) object array of those Python complex entries. Returns
    (partial_sums, tail_estimate, converged, abs_sums).
    """
    table, ends = poincare._coset_table(stabilizer, height)
    x = [[complex(v) for v in row] for row in np.asarray(x)]

    def term(a):
        ax = [[a[i][0] * x[0][j] + a[i][1] * x[1][j] for j in (0, 1)] for i in (0, 1)]
        return complex(p(np.array(ax, dtype=object)))

    return _shell_report(([term(a) for a in table[start:end].tolist()]
                          for start, end in zip((0,) + ends, ends)), tol)


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

# (t2, t3, period matrix) at the 2 pinned and the 8 band_slow points of
# perfbench/refs/periods.json (rtol 1e-8 there), copied as frozen. The
# matrices came from period_matrix by Gauss quadrature plus ODE basis
# transport, which took 91-105 s at 5 band_slow points, and from ODE
# transport alone along the default path (tol 1e-12) at the 3 where that
# route failed with NonConvergent after 274-299 s.
PERIODS_HARD = [
    ((0.493-2.4352j),  # pinned
     (0.3519+0.6665j),
     [[(7.149243495687299+2.4228519604426833j),
       (1.0153181581427835-0.4207139069311292j)],
      [(0.9037050698062232-2.53246423287708j),
       (-0.4112097377716815-1.1523377548912395j)]]),
    ((1.1773-1.2437j),  # pinned
     (0.1485-0.4049j),
     [[(2.8903256921357685+0.595556306041531j),
       (-1.091873893267201+0.22498380504024212j)],
      [(1.270844708143176-7.483723713961641j),
       (0.24695121860511587+0.7012854532528534j)]]),
    ((1.8807502816014559+0.42441227041944707j),  # band_slow
     (-0.48708839972022583-0.16844481778599515j),
     [[(6.798862302299569+1.0152311788293469j),
       (0.473693265866035+0.5846599684115993j)],
      [(-0.15888093913793633-2.8603978958514342j),
       (0.0636898442105226-1.146616510526286j)]]),
    ((-1.096303312091896-0.41706911304901784j),  # band_slow
     (0.1269444766838795-0.20899104933008028j),
     [[(7.079087732209406+2.9431583792758014j),
       (-0.18303432602887026-0.7707582199126346j)],
      [(-5.00308641704675-5.435680881542202j),
       (-0.4660233306542161-0.008548936160755582j)]]),
    ((-0.944714782133544+1.3777875966010464j),  # band_slow
     (-0.4123854215656198-0.04733321278709175j),
     [[(2.5427408650137004-1.5339905095385218j),
       (-0.94859074052583-0.5721999497418637j)],
      [(1.5118565609591816-8.027594633633234j),
       (-1.819124535380503-0.9139300910034817j)]]),
    ((-0.719071015001596+0.5141852726663245j),  # band_slow
     (0.12832498612428295+0.0954533327509328j),
     [[(10.830341847741884+0.2708288291278578j),
       (-0.6301972066864494+1.7579210954471156j)],
      [(-2.0517127634202232-2.812799244792483j),
       (0.5568527762980345-0.763422626028191j)]]),
    ((-1.996895245779332-1.7853673719340575j),  # band_slow
     (0.7499031122599517-0.3857399116681771j),
     [[(7.287801572044733-0.7576973466377535j),
       (-1.066614656360678-1.9937534231639449j)],
      [(1.496374728488746-2.1736089236133687j),
       (-0.7068828358730271-1.0268923466784383j)]]),
    ((-1.116591929304453-1.4031371933911496j),  # band_slow
     (-0.45072941621217827+0.10212917649348828j),
     [[(2.470520447821947+1.551434152408333j),
       (-0.9550297359720913+0.5997374242323303j)],
      [(0.19731909576280451-8.872926196591445j),
       (1.9110094480596005-0.265426915197975j)]]),
    ((-1.063288755461364-0.27883476296186904j),  # band_slow
     (-0.08328385507195031+0.20555743379376967j),
     [[(5.7588597144122025-5.438044083133284j),
       (0.15094597102681734+0.5080231855161947j)],
      [(3.282944017840739-7.615136900623694j),
       (0.9003073006593926-0.15088700143259542j)]]),
    ((-2.5729152768130445-0.7169344063593188j),  # band_slow
     (0.33303879024024796-0.7711703741795736j),
     [[(6.739632260557685+2.6744948494610243j),
       (-0.11193774840854276-1.4150095499013025j)],
      [(-5.003442464809029-4.664216963726455j),
       (-0.7071548187569232+0.47630453774697323j)]]),
]


def check_anchor():
    gens = oracle_lattice(4.0, 0.0)
    assert same_lattice((LEMNISCATE, -1j * LEMNISCATE), gens, tol=1e-12)


check_anchor()
