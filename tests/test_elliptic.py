import cmath
import math
import warnings

import numpy as np
import pytest

from periodlab import elliptic, gaussmanin, numerics
from periodlab.elliptic import (
    SIGMA,
    BASE_T2,
    BASE_T3,
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
    ClearanceViolation,
    NearDiscriminant,
    NumericalError,
    StepUnderflow,
    ValidationError,
    ZeroLambda,
    ZeroT0,
)

from periodlab.gaussmanin import circle_loop
from periodlab.numerics import ParamPath

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

    @pytest.mark.parametrize("call", [period_matrix, discriminant, default_path])
    @pytest.mark.parametrize("bad", [(1, 2, 3), ("x", 1), ("1", "2"), None, "ab", 4.0,
                                     (1, [2]), (10 ** 400, 1)],
                             ids=["triple", "text", "numeric-text", "none", "string",
                                  "scalar", "nested", "huge-int"])
    def test_malformed_point_rejected(self, call, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                call(bad)

    @pytest.mark.parametrize("fields", [("1", 2), (1, "2"), (None, 1), (1, [2]),
                                        (10 ** 400, 1)])
    def test_malformed_point_fields_rejected(self, fields):
        with pytest.raises(ValidationError):
            WeierstrassPoint(*fields)

    @pytest.mark.parametrize("call,error", [
        (lambda: period_matrix((1e300, 0)), NumericalError),
        (lambda: period_matrix((0, 1e300)), NumericalError),
        (lambda: default_path((1e300, 0)), NumericalError),
        (lambda: khodaya_period_matrix((1, 0, 1e300, 0)), NumericalError),
        # the reduction itself leaves the float range
        (lambda: khodaya_period_matrix((1, 1e308, 4, 0)), NumericalError),
        (lambda: khodaya_period_matrix((1e-320, 0, 1e300, 0)), NumericalError),
        (lambda: ParamPath([[1e300, 0], [1, 0]], discriminant=discriminant), NumericalError),
        (lambda: circle_loop(1e300, 0, 1.0), NumericalError),
        (lambda: scale_action(1e100, (4, 0)), NumericalError),
        (lambda: scale_action(1e60, (1e100, 0)), NumericalError),
        # |discriminant| and |t2|^3 past the float range, each part finite
        (lambda: period_matrix((1.2e102 * (1 + 1j), 0)), NumericalError),
        (lambda: period_matrix((0, 2.1e153 * (1 + 1j))), NumericalError),
        # a finite discriminant whose cubic fit along the path overflows
        (lambda: period_matrix((0, 1.6e153)), NumericalError),
        (lambda: period_matrix((math.inf, 0)), ValidationError),
        (lambda: curve_roots((math.inf, 0)), ValidationError),
        (lambda: scale_action(2, (math.inf, 0)), ValidationError),
        (lambda: WeierstrassPoint(math.inf, 0), ValidationError),
        (lambda: WeierstrassPoint(1.0, complex(0, math.nan)), ValidationError),
        (lambda: KhodayaPoint(1, math.nan, 1, 0), ValidationError),
    ], ids=["period-t2", "period-t3", "path", "khodaya", "khodaya-t1", "khodaya-reduced-t2",
            "certificate", "loop", "scale",
            "scale-product", "period-modulus", "period-t3-modulus", "certificate-fit",
            "period-inf",
            "roots-inf", "scale-inf", "point-inf", "point-nan", "khodaya-nan"])
    def test_outside_the_float_range_is_typed(self, call, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                call()

    def test_point_forms_agree_bit_for_bit(self):
        t2, t3 = 1.3 + 0.4j, -0.7 + 0.2j
        forms = [WeierstrassPoint(t2, t3), (t2, t3), [t2, t3], np.array([[t2, t3]])[0]]
        want = period_matrix(forms[0]).entries
        for form in forms:
            assert np.array_equal(period_matrix(form).entries, want)
            assert discriminant(form) == discriminant(forms[0])

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
        with pytest.raises(ZeroT0):
            khodaya_period_matrix((0, 1, 4, 0))

    @pytest.mark.parametrize("make", [
        lambda: KhodayaPoint("2", 1, 4, 0),
        lambda: KhodayaPoint(2, 1, None, 0),
        lambda: KhodayaPoint(2, 1, 4, 10 ** 400),
        lambda: khodaya_period_matrix((1, 0, "x", 1)),
        lambda: khodaya_period_matrix((1, 0, 4)),
        lambda: khodaya_period_matrix(4.0),
        lambda: reduce_khodaya((1, 0, 4, 0, 5)),
    ], ids=["text-field", "none-field", "huge-int", "text-in-tuple", "three-values",
            "scalar", "five-values"])
    def test_malformed_point_rejected(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_tuple_and_point_agree_bit_for_bit(self):
        want = khodaya_period_matrix(KhodayaPoint(2.0, 1.0, 4.0, 0.0)).entries
        for form in [(2, 1, 4, 0), [2.0, 1.0, 4.0, 0.0], np.array([2.0, 1.0, 4.0, 0.0])]:
            assert np.array_equal(khodaya_period_matrix(form).entries, want)


class TestDefaultPath:
    def test_ends_and_clearance(self):
        t = (2.0 + 0.5j, -1.0 + 1.0j)
        path = default_path(t)
        assert tuple(path.end) == t
        assert path.clearance is not None and path.clearance > 0

    def test_last_waypoint_is_t_itself(self, monkeypatch):
        # the certified path is the walked one: it ends at t bit for bit, and
        # period_matrix continues along its waypoints as they are
        walked, continue_basis = [], elliptic._continue_basis
        monkeypatch.setattr(elliptic, "_continue_basis",
                            lambda w, T: walked.append(w) or continue_basis(w, T))
        rng = np.random.default_rng(17)
        answered = 0
        for _ in range(200):
            t = (_log_uniform(rng, False), _log_uniform(rng, False))
            try:
                path = default_path(t)
                assert path.end.tolist() == list(t)
                assert path.start.tolist() == [BASE_T2, BASE_T3]
                period_matrix(t)
            except NearDiscriminant:
                continue
            assert walked.pop() == path.waypoints.tolist()
            answered += 1
        assert answered >= 150

    def test_avoids_real_discriminant_crossing(self):
        # the straight segment to this point passes near a discriminant
        # root; the default path must keep a positive clearance anyway
        t = (4.0, 1.539)
        path = default_path(t)
        assert path.clearance > 1e-3


def _scanned_min_abs_discriminant(path, n=20001):
    u = np.linspace(0.0, 1.0, n)
    worst = np.inf
    for start, velocity in path.segments():
        t2, t3 = (start[None, :] + u[:, None] * velocity[None, :]).T
        worst = min(worst, float(np.abs(t2 ** 3 - 27.0 * t3 ** 2).min()))
    return worst


class TestPathCertificate:
    @pytest.mark.parametrize("t2,t3", [(t2, t3) for t2, t3, _ in oracles.PERIODS_HARD],
                             ids=[f"hard{i}" for i in range(len(oracles.PERIODS_HARD))])
    def test_clearance_is_below_a_dense_scan(self, t2, t3):
        path = default_path((t2, t3))
        assert 0 < path.clearance <= _scanned_min_abs_discriminant(path)

    @pytest.mark.parametrize("t2,t3", [(t2, t3) for t2, t3, _ in oracles.PERIODS_HARD],
                             ids=[f"hard{i}" for i in range(len(oracles.PERIODS_HARD))])
    def test_matches_per_segment_oracle(self, t2, t3):
        path = default_path((t2, t3))
        want = oracles.oracle_clearance(path, discriminant)
        assert abs(path.clearance - want) <= 1e-8 * want

    def test_repeated_singular_point_rejected(self):
        # no segment moves, so the one point itself is checked: Delta(3, 1) = 0
        with pytest.raises(ClearanceViolation):
            numerics.ParamPath([(3, 1), (3, 1)], discriminant=discriminant)
        path = numerics.ParamPath([(4, 1), (4, 1)], discriminant=discriminant)
        assert path.clearance == abs(discriminant((4, 1))) == 37.0

    @pytest.mark.parametrize("make", [
        lambda: default_path(oracles.PERIODS_HARD[0][:2]),
        lambda: gaussmanin.circle_loop(4.0, oracles.T3_ROOT, 0.6, sides=64),
    ], ids=["default-path", "64-gon"])
    def test_four_hook_calls_per_segment(self, make):
        calls = []

        def hook(p):
            calls.append(p)
            return discriminant(p)

        path = numerics.ParamPath(make().waypoints, discriminant=hook)
        assert len(calls) <= 4 * len(list(path.segments()))

    @pytest.mark.parametrize("seed", range(6))
    def test_fixed_t2_loops(self, seed):
        # Delta is quadratic along each side of a t3-plane polygon
        rng = np.random.default_rng(seed)
        t2 = 4.0 * (1.0 + 0.25 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        root = complex(np.sqrt(t2 ** 3 / 27))
        radius = abs(root) * rng.uniform(0.3, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loop = gaussmanin.circle_loop(t2, root, radius, sides=64)
        assert 0 < loop.clearance <= _scanned_min_abs_discriminant(loop)

    def test_root_just_past_the_end(self):
        # Delta along the segment to (4, 1.539) vanishes at s = 1.0004; the
        # path ends straight instead of circling that root and coming back
        # through it
        assert default_path((4.0, 1.539)).waypoints.shape == (2, 2)


class TestRealAxisContract:
    def test_answers_or_near_discriminant(self):
        # real points and the same points moved 1e-9 off the real axis:
        # each call answers with a valid matrix or raises NearDiscriminant
        rng = np.random.default_rng(2026)
        real = [(complex(a), complex(b)) for a, b in rng.uniform(-5.0, 5.0, (200, 2))]
        points = real + [(a + e, b + e) for a, b in real for e in (1e-9j, -1e-9j)]
        answered = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in points:
                try:
                    P = period_matrix(t)
                except NearDiscriminant:
                    continue
                P.validate()
                answered += 1
        assert answered >= 0.9 * len(points)

    def test_basis_does_not_follow_rounding(self):
        # t3 moved 1-5 ulps either way keeps the matrix: a real segment's cubic
        # is solved in real arithmetic, so a real root is passed above, never
        # on the side its rounding noise would pick
        rng = np.random.default_rng(7)
        answered = 0
        for t2, t3 in rng.uniform(-5.0, 5.0, (200, 2)):
            try:
                ref = period_matrix((t2, t3)).entries
            except NearDiscriminant:
                continue  # the zigzag, a separate defect
            answered += 1
            for direction in (np.inf, -np.inf):
                nudged = t3
                for _ in range(rng.integers(1, 6)):
                    nudged = np.nextafter(nudged, direction)
                got = period_matrix((t2, nudged)).entries
                assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref)), (t2, t3)
        assert answered >= 180


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
        # so the cycles agree with no sign freedom at every rotation
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 25:
            t2, t3 = (cmath.rect(10.0 ** rng.uniform(-2, 3), rng.uniform(-math.pi, math.pi))
                      for _ in range(2))
            if abs(discriminant((t2, t3))) < 1e-2 * (1 + abs(t2) ** 3 + abs(t3) ** 2):
                continue
            roots = [complex(e) for e in curve_roots((t2, t3))]
            for ia, ib, ic in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # each cut, third root off it
                got = elliptic._segment_cycle(roots[ia], roots[ib], roots[ic])
                want = oracles.oracle_segment_cycle(roots[ia], roots[ib], roots[ic])
                scale = max(abs(w) for w in want)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-10 * scale, (t2, t3, ia, ib, ic)
            checked += 1


def _near_discriminant_point(rng, rel, real):
    """A point at relative |Delta| about ``rel``, near a double root."""
    a = 10.0 ** rng.uniform(-1, 1.5) * (rng.choice([-1.0, 1.0]) if real
                                        else cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
    on = np.array([12.0 * a * a, -8.0 * a ** 3])  # double root at x = a
    direction = np.array([1.0, rng.normal() if real else complex(rng.normal(), rng.normal())])
    eps = 1e-6 * np.max(np.abs(on))
    for _ in range(3):
        t = on + eps * direction
        eps *= rel / (abs(discriminant(t)) / elliptic._delta_scale(WeierstrassPoint(*t)))
    return tuple(on + eps * direction)


def _from_roots(a, b, c):
    """(t2, t3) of 4 (x - a)(x - b)(x - c), for roots summing to zero."""
    return (-4.0 * (a * b + b * c + c * a), 4.0 * a * b * c)


def _cut_clearance(e_a, e_b, e_c):
    """min over u in [0, 1] of |1 + u zeta|: how far e_c stays off the cut [e_a, e_b]."""
    zeta = (e_b - e_a) / (e_a - e_c)
    return abs(1.0 + min(max(-zeta.real / abs(zeta) ** 2, 0.0), 1.0) * zeta)


def _basis_change(Q, want):
    """The integer matrix U with Q = U want, to rounding."""
    return np.round((Q @ np.linalg.inv(want)).real)


class TestCarlsonKernel:
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_matches_scalar_route(self, real):
        # settled rows agree with _carlson_matrix up to an integer change of
        # basis, within the roots' own rounding: about eps over the relative
        # discriminant
        rng = np.random.default_rng(41 + real)
        points = [(_log_uniform(rng, real), _log_uniform(rng, real)) for _ in range(400)]
        points += [_near_discriminant_point(rng, 10.0 ** rng.uniform(-7, -2), real)
                   for _ in range(200)]
        Qs, settled = elliptic._carlson_matrices(points)
        checked = 0
        for t, Q, ok in zip(points, Qs, settled):
            rel = abs(discriminant(t)) / elliptic._delta_scale(WeierstrassPoint(*t))
            if rel < elliptic.DELTA_FLOOR:
                assert not ok
                continue
            assert ok, t
            want = np.array(elliptic._carlson_matrix(t))
            U = _basis_change(Q, want)
            limit = 1e-13 + 10.0 * np.finfo(float).eps / rel
            assert abs(round(np.linalg.det(U))) == 1, t
            assert np.max(np.abs(Q - U @ want)) <= limit * np.max(np.abs(want)), t
            checked += 1
        assert checked >= 590

    def test_one_cut_rule(self, monkeypatch):
        # both routes cut at the root opposite the longest side of the root
        # triangle: the third root stays off each cut, the array pass picks
        # the scalar route's cuts (in another row order and sign at most)
        # unless two sides tie, and it settles exactly the points the
        # scalar route answers
        rng = np.random.default_rng(53)
        points = [_from_roots(-1e-8 - 1.5j, 1j, 1e-8 + 0.5j)]  # a third root by one cut
        for real in (False, True):
            points += [(_log_uniform(rng, real), _log_uniform(rng, real)) for _ in range(600)]
            points += [_near_discriminant_point(rng, 10.0 ** rng.uniform(-8, -2), real)
                       for _ in range(500)]
            points += [(0j, _log_uniform(rng, real)) for _ in range(50)]  # equilateral roots
        cuts, segment_cycle = [], elliptic._segment_cycle
        monkeypatch.setattr(elliptic, "_segment_cycle",
                            lambda *e: cuts.append(e) or segment_cycle(*e))
        Qs, settled = elliptic._carlson_matrices(points)
        answered = 0
        for t, Q, ok in zip(points, Qs, settled):
            cuts.clear()
            try:
                want = np.array(elliptic._carlson_matrix(t))
            except NumericalError:  # NearDiscriminant or outside the float range
                assert not ok, t
                continue
            assert ok, t
            answered += 1
            assert min(_cut_clearance(*e) for e in cuts) >= 1e-6, t
            U = np.abs(_basis_change(Q, want))
            if not np.array_equal(U @ U.T, np.eye(2)):  # not a signed permutation
                e = curve_roots(t)
                sides = sorted([abs(e[1] - e[2]), abs(e[0] - e[2]), abs(e[0] - e[1])])
                assert sides[2] - sides[1] <= 1e-12 * sides[2], t
        assert answered >= 2000

    def test_unsettled_points(self):
        on_cut = _from_roots(-1e-8 - 1.5j, 1j, 1e-8 + 0.5j)  # third root by the cut [e0, e1]
        points = [(3.0, 1.0), (3.0 * (1.0 + 1e-10), 1.0), (24.0j, 16.0 - 16.0j),  # below DELTA_FLOOR
                  on_cut, (math.nan, 1.0), (1.0, complex(0.0, math.inf)), (1e300, 1.0)]
        Qs, settled = elliptic._carlson_matrices(points)
        assert Qs.shape == (7, 2, 2) and settled.tolist() == [False] * 3 + [True] + [False] * 3
        # both routes cut the point beside [e0, e1] elsewhere, the same way
        want = np.array(elliptic._carlson_matrix(on_cut))
        assert abs(abs(np.linalg.det(want)) - 2.0 * math.pi) < 1e-8
        assert np.max(np.abs(Qs[3] - _basis_change(Qs[3], want) @ want)) <= 1e-13

    def test_no_points(self):
        Qs, settled = elliptic._carlson_matrices([])
        assert Qs.shape == (0, 2, 2) and settled.shape == (0,)
        # a loop with no moving segment hands the kernel no points
        loop = ParamPath([(4, 1j), (4, 1j)], discriminant=discriminant)
        assert np.array_equal(gaussmanin.monodromy(loop).entries, np.eye(2))

    @pytest.mark.parametrize("waypoints,error", [
        # NearDiscriminant at the end corner of segment 1; (3, -1) is singular too
        ([(4, 0), (4, 1j), (3, 1), (5, 0.5j), (3, -1)], NearDiscriminant),
        # NearDiscriminant mid-segment, where t3 crosses sqrt(64/27)
        ([(4, 0), (4, 1.0), (4, 2.0), (3, 1), (5, 1j)], NearDiscriminant),
        # StepUnderflow on segment 2, passing both roots at 1e-13
        ([(4, 0), (4, -2j), (4, -1e6 + 1e-13j), (4, 1e6 + 1e-13j), (3, 1)], StepUnderflow),
    ], ids=["near-corner", "near-crossing", "underflow"])
    def test_errors_as_scalar_route(self, monkeypatch, waypoints, error):
        # the first pass settles later corners too, but the scan raises
        # where the scalar route does, with the same message
        waypoints = [[complex(u), complex(v)] for u, v in waypoints]
        anchor = elliptic._anchor_matrix().tolist()
        with pytest.raises(error) as got:
            elliptic._continue_basis(waypoints, anchor)
        monkeypatch.setattr(elliptic, "_carlson_matrices",  # nothing settled
                            lambda pts: (np.zeros((len(pts), 2, 2)), np.zeros(len(pts), bool)))
        with pytest.raises(error) as want:
            elliptic._continue_basis(waypoints, anchor)
        assert str(got.value) == str(want.value)


def _close_to_frozen(got, ref):
    ref = np.array(ref)
    return np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))


class TestHardPoints:
    @pytest.mark.parametrize("t2,t3,ref", oracles.PERIODS_HARD,
                             ids=[f"hard{i}" for i in range(len(oracles.PERIODS_HARD))])
    def test_frozen_reference(self, t2, t3, ref):
        assert _close_to_frozen(period_matrix((t2, t3)).entries, ref)

    def test_carlson_matrix_calls(self, carlson_work):
        # the continuation's step schedule: distinct step points the scan
        # reads, and the end corners and midpoints the kernel computes first
        elliptic._anchor_matrix()
        works = [carlson_work(lambda: period_matrix((t2, t3)))
                 for t2, t3, _ in oracles.PERIODS_HARD]
        assert [w.consulted for w in works] == [32, 28, 48, 97, 104, 147, 113, 114, 123, 119]
        assert [w.computed for w in works] == [2, 2, 28, 52, 52, 52, 52, 52, 52, 52]
        # each step point read is a settled kernel point or a scalar refinement
        assert [w.consulted - w.scalar for w in works] == \
            [w.computed - len(w.unused[0]) for w in works]
        # the kernel's extra points are first-pass midpoints the scan never reads
        assert [w.unused[0] for w in works] == [[], [], [], [29], [29], [3, 5, 29], [29], [29],
                                                 [29, 31, 33], [29, 31, 33]]

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
