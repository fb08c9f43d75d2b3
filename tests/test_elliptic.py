import cmath
import math

import numpy as np
import pytest

from periodlab import elliptic, gaussmanin, numerics
from periodlab.elliptic import (
    SIGMA,
    KhodayaPoint,
    PeriodMatrix2,
    WeierstrassPoint,
    curve_roots,
    default_path,
    discriminant,
    khodaya_period_matrix,
    period_map_tau,
    period_matrix,
    reduce_khodaya,
    scale_action,
    tau_to_upper,
)
from periodlab.errors import (
    NearDiscriminant,
    NumericalError,
    ValidationError,
    ZeroLambda,
    ZeroT0,
)

import oracles

TWO_PI_I = 2j * np.pi


def draw_point(rng, min_disc=1.0):
    while True:
        t2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        t3 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(discriminant((t2, t3))) >= min_disc:
            return (t2, t3)


class TestBasics:
    def test_discriminant(self):
        assert discriminant((4.0, 0.0)) == 64.0
        assert discriminant((3.0, 1.0)) == 0.0

    def test_curve_roots_reconstruct_cubic(self):
        t = (2.0 + 1.0j, -0.5 + 0.25j)
        e = curve_roots(t)
        # 4 prod (x - e_i) = 4x^3 - t2 x - t3
        assert np.sum(e) == pytest.approx(0.0, abs=1e-12)
        sym2 = e[0] * e[1] + e[0] * e[2] + e[1] * e[2]
        assert 4 * sym2 == pytest.approx(-t[0], abs=1e-12)
        assert 4 * np.prod(e) == pytest.approx(t[1], abs=1e-12)

    def test_scale_action_weights(self):
        out = scale_action(2.0, (1.0, 1.0))
        assert out.t2 == pytest.approx(16.0)
        assert out.t3 == pytest.approx(64.0)
        with pytest.raises(ZeroLambda):
            scale_action(0.0, (1.0, 1.0))

    def test_near_discriminant_refused(self):
        with pytest.raises(NearDiscriminant):
            period_matrix((3.0, 1.0))

    def test_tau_to_upper(self):
        assert tau_to_upper(2.0 + 3.0j) == 2.0 + 3.0j
        flipped = tau_to_upper(1.0 - 2.0j)
        assert flipped.imag > 0


class TestAnchorValues:
    def test_lemniscate_period(self):
        pm = period_matrix((4.0, 0.0))
        assert pm.entries[0, 0] == pytest.approx(oracles.LEMNISCATE, abs=1e-10)
        assert pm.entries[1, 0] == pytest.approx(-1j * oracles.LEMNISCATE,
                                                 abs=1e-10)

    def test_square_lattice_tau(self):
        assert period_map_tau((4.0, 0.0)) == pytest.approx(1j, abs=1e-10)

    def test_hexagonal_lattice_tau(self):
        rho = np.exp(1j * np.pi / 3)
        assert period_map_tau((0.0, 4.0)) == pytest.approx(rho, abs=1e-10)

    def test_frozen_p44(self):
        pm = period_matrix((4.0, 4.0))
        assert np.max(np.abs(pm.entries - oracles.P44)) < 1e-9


class TestPeriodMatrixProperties:
    def test_determinant_is_legendre_constant(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            t = draw_point(rng)
            pm = period_matrix(t)
            assert abs(pm.det - SIGMA * TWO_PI_I) < 1e-8

    def test_lattice_matches_carlson_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            t = draw_point(rng)
            gens = period_matrix(t).lattice_basis()
            assert oracles.same_lattice(gens, oracles.oracle_lattice(*t))

    def test_tau_in_upper_half_plane(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            t = draw_point(rng)
            assert period_map_tau(t).imag > 0

    def test_j_identity_against_kleinj(self):
        for t in [(4.0, 1.0), (2.0 + 1.0j, -1.0 + 0.5j), (-1.0, 2.0)]:
            tau = period_map_tau(t)
            expected = t[0] ** 3 / (t[0] ** 3 - 27 * t[1] ** 2)
            assert abs(oracles.oracle_j(tau) - expected) < 1e-10

    def test_validate_accepts_good_and_rejects_bad(self):
        period_matrix((4.0, 0.0)).validate()
        fake = PeriodMatrix2(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericalError):
            fake.validate()

    def test_shape_enforced(self):
        with pytest.raises(ValidationError):
            PeriodMatrix2(np.eye(3))


class TestHomogeneity:
    def test_columns_scale_near_identity(self):
        # lambda near 1 keeps both points on the same side of every
        # continuation wall, so the column scaling is entrywise
        rng = np.random.default_rng(0)
        for _ in range(10):
            t = draw_point(rng)
            u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
            lam = 1.0 + 0.2 * complex(u, v) / np.sqrt(2)
            p = period_matrix(t).entries
            q = period_matrix(scale_action(lam, t)).entries
            assert np.max(np.abs(q - p @ np.diag([1 / lam, lam]))) < 1e-8

    def test_general_lambda_up_to_integer_basis_change(self):
        # far from lambda = 1 the cycle convention may jump by a
        # unimodular integer matrix acting on rows; nothing more
        rng = np.random.default_rng(21)
        for _ in range(6):
            t = draw_point(rng)
            lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.8, 0.8))
            p = period_matrix(t).entries
            q = period_matrix(scale_action(lam, t)).entries
            m = q @ np.linalg.inv(p @ np.diag([1 / lam, lam]))
            mi = np.round(m.real)
            assert np.max(np.abs(m - mi)) < 1e-6
            assert abs(round(np.linalg.det(mi))) == 1


class TestKhodaya:
    def test_frozen_matrix(self):
        pm = khodaya_period_matrix(KhodayaPoint(2.0, 1.0, 4.0, 0.0))
        assert np.max(np.abs(pm.entries - oracles.K2140)) < 1e-9

    def test_determinant_scales_with_t0(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            t0 = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            t1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            t2, t3 = draw_point(rng)
            k = KhodayaPoint(t0, t1, t2, t3)
            try:
                pm = khodaya_period_matrix(k)
            except NearDiscriminant:
                continue
            assert abs(pm.det - SIGMA * TWO_PI_I / t0) < 1e-6

    def test_reduce(self):
        reduced, scale = reduce_khodaya(KhodayaPoint(2.0, 1.0, 4.0, 0.0))
        assert scale == pytest.approx(2.0 ** (-1 / 3), abs=1e-12)
        assert reduced.t2 == pytest.approx(4.0 * 2.0 ** (-1 / 3), abs=1e-12)
        assert reduced.t3 == pytest.approx(0.0, abs=1e-12)

    def test_zero_leading_coefficient_refused(self):
        with pytest.raises(ZeroT0):
            khodaya_period_matrix(KhodayaPoint(0.0, 1.0, 4.0, 0.0))


class TestDefaultPath:
    def test_ends_and_clearance(self):
        t = (2.0 + 0.5j, -1.0 + 1.0j)
        path = default_path(t)
        assert tuple(path.end) == t
        assert path.clearance is not None and path.clearance > 0

    def test_avoids_real_discriminant_crossing(self):
        # the straight segment to this point passes near a discriminant
        # root; the default path must keep a positive clearance anyway
        t = (4.0, 1.539)
        path = default_path(t)
        assert path.clearance > 1e-3


def _log_uniform(rng, real):
    modulus = 10.0 ** rng.uniform(-2, 3)
    if real:
        return complex(modulus * rng.choice([-1.0, 1.0]))
    return cmath.rect(modulus, rng.uniform(-math.pi, math.pi))


def _tied_real_parts_by_im(roots):
    """(Re, Im) order in which real parts equal to rounding count as equal.

    A real cubic's conjugate pair (and at t3 = 0, t2 < 0, all three roots)
    has equal real parts, so the (Re, Im) sort orders it by rounding noise;
    both routes then differ only in that noise.
    """
    scale = max(abs(e) for e in roots)
    out, group = [], [roots[0]]
    for e in roots[1:]:
        if abs(e.real - group[-1].real) <= 1e-13 * scale:
            group.append(e)
        else:
            out += sorted(group, key=lambda z: z.imag)
            group = [e]
    return np.array(out + sorted(group, key=lambda z: z.imag))


class TestCurveRoots:
    @pytest.mark.parametrize("seed,real,zero", [
        (0, False, None), (1, True, None), (2, False, "t2"), (3, False, "t3"),
        (4, True, "t2"), (5, True, "t3")],
        ids=["complex", "real", "t2_zero", "t3_zero", "real_t2_zero", "real_t3_zero"])
    def test_matches_companion_oracle_in_order(self, seed, real, zero):
        rng = np.random.default_rng(seed)
        checked = 0
        while checked < 300:
            t2, t3 = _log_uniform(rng, real), _log_uniform(rng, real)
            if zero == "t2":
                t2 = 0j
            elif zero == "t3":
                t3 = 0j
            if abs(discriminant((t2, t3))) < 1e-6 * (1 + abs(t2) ** 3 + abs(t3) ** 2):
                continue
            got, want = curve_roots((t2, t3)), oracles.oracle_curve_roots(t2, t3)
            if real:
                got, want = _tied_real_parts_by_im(got), _tied_real_parts_by_im(want)
            # each root relative to its own modulus; at t3 = 0 one root is 0
            size = np.abs(want) if t3 != 0 else np.max(np.abs(want))
            assert np.all(np.abs(got - want) <= 1e-14 * size), (t2, t3, got, want)
            checked += 1

    def test_near_discriminant_against_mpmath(self):
        # a near-double root is known only to about eps / sqrt(relative
        # |Delta|); rounding decides which route is ahead at any one point
        rng = np.random.default_rng(11)
        worst_got = worst_oracle = 0.0
        for _ in range(100):
            a = cmath.rect(10.0 ** rng.uniform(-1, 1.5), rng.uniform(-math.pi, math.pi))
            on = np.array([12.0 * a * a, -8.0 * a ** 3])  # double root at x = a
            direction = np.array([1.0, complex(rng.normal(), rng.normal())])
            target = 10.0 ** rng.uniform(-7.5, -3)
            eps = 1e-6 * np.max(np.abs(on))
            for _ in range(3):
                t = tuple(on + eps * direction)
                rel = abs(discriminant(t)) / (1 + abs(t[0]) ** 3 + abs(t[1]) ** 2)
                eps *= target / rel
            t = tuple(on + eps * direction)
            rel = abs(discriminant(t)) / (1 + abs(t[0]) ** 3 + abs(t[1]) ** 2)
            with oracles.mp.workdps(40):
                exact = [complex(e) for e in oracles.mp.polyroots(
                    [4, 0, -oracles.mp.mpc(t[0]), -oracles.mp.mpc(t[1])],
                    maxsteps=200, extraprec=200)]
            scale = max(abs(e) for e in exact)
            limit = np.finfo(float).eps / math.sqrt(rel)

            def error(roots):
                return max(min(abs(r - e) for e in exact) for r in roots) / scale / limit

            got = error(curve_roots(t))
            assert got <= 1.0, (t, rel)
            worst_got = max(worst_got, got)
            worst_oracle = max(worst_oracle, error(oracles.oracle_curve_roots(*t)))
        assert worst_got <= 2.0 * worst_oracle

    def test_roots_stay_apart_at_the_gate(self):
        # just above DELTA_FLOOR every root pair is still far apart, so the
        # gate alone keeps Newton's derivative 12 x^2 - t2 away from zero
        def rel(t):
            return abs(discriminant(t)) / (1 + abs(t[0]) ** 3 + abs(t[1]) ** 2)

        rng = np.random.default_rng(17)
        worst, checked = math.inf, 0
        while checked < 2000:
            # |t| from about 1e-2 to 1e3
            a = cmath.rect(10.0 ** rng.uniform(-1.5, 0.7), rng.uniform(-math.pi, math.pi))
            on = np.array([12.0 * a * a, -8.0 * a ** 3])  # double root at x = a
            direction = np.array([1.0, complex(rng.normal(), rng.normal())])
            target = elliptic.DELTA_FLOOR * rng.uniform(1.0, 1.5)
            eps = 1e-6 * np.max(np.abs(on))
            for _ in range(3):
                eps *= target / rel(tuple(on + eps * direction))
            t = tuple(on + eps * direction)
            if rel(t) < elliptic.DELTA_FLOOR:
                continue
            e = curve_roots(t)
            gap = min(abs(e[0] - e[1]), abs(e[1] - e[2]), abs(e[0] - e[2]))
            worst = min(worst, gap / (1 + np.max(np.abs(e))))
            checked += 1
        assert worst >= 1e-6

    @pytest.mark.parametrize("a", [0.5, 1.3 + 0.4j, -2.0 + 1.0j, 10.0j])
    def test_colliding_pair_refused(self, a):
        on = (12.0 * a * a, -8.0 * a ** 3)  # double root at x = a
        for t in (on, (on[0] * (1.0 + 1e-12), on[1])):
            with pytest.raises(NearDiscriminant):
                curve_roots(t)


class TestCarlsonCycles:
    def test_matches_quadrature_oracle(self):
        # the closed forms take the branch the quadrature integrand takes,
        # so the cycles agree with no sign freedom at every pairing
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 25:
            t2, t3 = (cmath.rect(10.0 ** rng.uniform(-2, 3), rng.uniform(-math.pi, math.pi))
                      for _ in range(2))
            if abs(discriminant((t2, t3))) < 1e-2 * (1 + abs(t2) ** 3 + abs(t3) ** 2):
                continue
            roots = [complex(e) for e in curve_roots((t2, t3))]
            for ia, ib, ic in elliptic._PAIRINGS:
                got = elliptic._segment_cycle(roots[ia], roots[ib], roots[ic])
                want = oracles.oracle_segment_cycle(roots[ia], roots[ib], roots[ic])
                scale = max(abs(w) for w in want)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-10 * scale, (t2, t3, ia, ib, ic)
            checked += 1


def _close_to_frozen(got, ref):
    ref = np.array(ref)
    return np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))


class TestHardPoints:
    @pytest.mark.parametrize("t2,t3,ref", oracles.PERIODS_HARD,
                             ids=[f"hard{i}" for i in range(len(oracles.PERIODS_HARD))])
    def test_frozen_reference(self, t2, t3, ref):
        assert _close_to_frozen(period_matrix((t2, t3)).entries, ref)

    def test_no_ode_and_no_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("period_matrix must not call this")

        monkeypatch.setattr(gaussmanin, "integrate_linear_ode", forbidden)
        monkeypatch.setattr(numerics, "integrate_linear_ode", forbidden)
        monkeypatch.setattr(gaussmanin, "transport_entries", forbidden)
        monkeypatch.setattr(numerics, "quad_sqrt_singular", forbidden)
        monkeypatch.setattr(elliptic, "quad_sqrt_singular", forbidden)
        monkeypatch.setattr(numerics, "leggauss", forbidden)
        t2, t3, ref = oracles.PERIODS_HARD[2]  # a band_slow point
        assert _close_to_frozen(period_matrix((t2, t3)).entries, ref)
