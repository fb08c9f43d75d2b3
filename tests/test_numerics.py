import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from periodlab.domain import kodaira_spencer_count
from periodlab.elliptic import scale_action, tau_to_upper
from periodlab.errors import (
    NonFiniteRHS,
    ClearanceViolation,
    NonConvergent,
    StepUnderflow,
    ValidationError,
)
from periodlab.gaussmanin import circle_loop
from periodlab.modular import Lattice, eisenstein_lattice, eisenstein_q, j_normalized
from periodlab.numerics import (
    _complete_rf_rd,
    _integer_det,
    ParamPath,
    integrate_linear_ode,
    nearest_integer_matrix,
    quad_sqrt_singular,
)
from periodlab.poincare import period_poincare, poincare_series_uhp


class TestParamPath:
    def test_single_point_rejected(self):
        with pytest.raises(ValidationError):
            ParamPath([[1.0, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            ParamPath([[np.nan], [1.0]])

    def test_one_dimensional_promoted(self):
        path = ParamPath([0.0, 1.0 + 1.0j])
        assert path.dimension == 1
        assert path.end[0] == 1.0 + 1.0j

    def test_segments_skip_duplicates(self):
        path = ParamPath([[0.0], [0.0], [2.0]])
        segs = list(path.segments())
        assert len(segs) == 1
        assert segs[0][1][0] == 2.0

    def test_closed_and_length(self):
        square = ParamPath([[0], [1], [1 + 1j], [1j], [0]])
        assert square.is_closed()

    def test_clearance_certificate(self):
        disc = lambda p: p[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = ParamPath([[1.0], [2.0]], discriminant=disc)
            assert 0 < path.clearance <= 1.0
            with pytest.raises(ClearanceViolation):
                ParamPath([[-1.0], [1.0]], discriminant=disc)

    @pytest.mark.parametrize("hook", [lambda p: complex("nan"), lambda p: complex("inf"),
                                      lambda p: 0.0,
                                      lambda p: complex("inf") if p[0] == 2.0 else 1.0],
                             ids=["nan", "inf", "zero", "inf-at-a-waypoint"])
    def test_nonfinite_or_zero_samples_rejected(self, hook):
        for waypoints in ([[1.0], [2.0], [3.0]], [[2.0], [2.0]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ClearanceViolation):
                    ParamPath(waypoints, discriminant=lambda p: complex(hook(p)))

    def test_clearance_bounds_a_cubic(self):
        # (s - 0.5 - 0.01i)(s + 2)(s - 3) on [0, 1]: the bound is |lead|
        # times the distances 0.01, 2 and 2 of the roots from [0, 1]
        disc = lambda p: (p[0] - 0.5 - 0.01j) * (p[0] + 2.0) * (p[0] - 3.0)
        path = ParamPath([[0.0], [1.0]], discriminant=disc)
        assert path.clearance == pytest.approx(0.04, rel=1e-12)
        s = np.linspace(0.0, 1.0, 20001)
        assert path.clearance <= np.abs(disc([s])).min()


class TestQuadrature:
    def test_beta_integral_both_endpoints_singular(self):
        # int_0^1 dx / sqrt(x (1-x)) = pi
        val = quad_sqrt_singular(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 1.0)
        assert val == pytest.approx(np.pi, abs=1e-12)

    def test_smooth_integrand_matches_scipy(self):
        f = lambda x: np.exp(x) * np.cos(3 * x)
        mine = quad_sqrt_singular(f, 0.0, 2.0)
        ref, _ = quad(lambda x: np.exp(x) * np.cos(3 * x), 0.0, 2.0)
        assert mine.real == pytest.approx(ref, abs=1e-12)
        assert mine.imag == pytest.approx(0.0, abs=1e-12)

    def test_complex_segment(self):
        # int of 1/sqrt(z) from 1 to i along the segment, principal branch:
        # antiderivative 2 sqrt(z), value 2(sqrt(i) - 1)
        val = quad_sqrt_singular(lambda z: z ** -0.5, 1.0, 1j)
        expected = 2.0 * (np.exp(1j * np.pi / 4) - 1.0)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            quad_sqrt_singular(lambda x: x, 1.0, 1.0)

    def test_nonconvergent_oscillation(self):
        with pytest.raises(NonConvergent):
            quad_sqrt_singular(lambda x: np.sin(1e6 * x.real) / x ** 0.99,
                               0.0, 1.0, max_nodes=64)


def _constant_rhs(a):
    return lambda point, velocity: a * velocity[0]


class TestLinearODE:
    def test_matrix_exponential(self):
        # dY = Y A^T with constant A along [0,1]: Y(1) = Y0 expm(A)^T
        a = np.array([[0.1, -0.4], [0.7, 0.2]], dtype=complex)
        system = _constant_rhs(a)
        path = ParamPath([0.0, 1.0])
        out = integrate_linear_ode(system, path, np.eye(2), tol=1e-12)
        from scipy.linalg import expm
        assert np.allclose(out, expm(a).T, atol=1e-10)

    def test_against_scipy_on_varying_system(self):
        a = lambda s: np.array([[np.sin(s), 0.3], [-0.2, np.cos(2 * s)]],
                               dtype=complex)
        system = lambda point, velocity: a(point[0].real) * velocity[0]
        path = ParamPath([0.0, 2.0])
        mine = integrate_linear_ode(system, path, np.eye(2), tol=1e-12)

        def rhs(s, y):
            return (y.reshape(2, 2) @ a(s).T).ravel()

        ref = solve_ivp(rhs, (0.0, 2.0), np.eye(2, dtype=complex).ravel(),
                        rtol=1e-12, atol=1e-12).y[:, -1].reshape(2, 2)
        assert np.max(np.abs(mine - ref)) < 1e-9

    def test_error_decreases_with_tol(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        system = _constant_rhs(a)
        path = ParamPath([0.0, 1.0])
        from scipy.linalg import expm
        exact = expm(a).T
        errs = [
            np.max(np.abs(integrate_linear_ode(system, path, np.eye(2), tol=t)
                          - exact))
            for t in (1e-4, 1e-7, 1e-10)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_fixed_step_order(self):
        # with max_step forcing fixed h, halving h should cut the error by
        # roughly 2^5 (the integrator is fifth order)
        a = np.array([[0.2, 1.1], [-0.9, -0.1]], dtype=complex)
        system = _constant_rhs(a)
        path = ParamPath([0.0, 1.0])
        from scipy.linalg import expm
        exact = expm(a).T
        e1 = np.max(np.abs(integrate_linear_ode(
            system, path, np.eye(2), tol=1e30, max_step=0.1) - exact))
        e2 = np.max(np.abs(integrate_linear_ode(
            system, path, np.eye(2), tol=1e30, max_step=0.05) - exact))
        ratio = e1 / e2
        assert 16 < ratio < 64

    def test_shape_validation(self):
        a = np.eye(2, dtype=complex)
        system = _constant_rhs(a)
        path = ParamPath([0.0, 1.0])
        with pytest.raises(ValidationError):
            integrate_linear_ode(system, path, np.eye(3), tol=1e-8)
        with pytest.raises(ValidationError):
            integrate_linear_ode(system, path, np.ones((2, 3)), tol=1e-8)
        with pytest.raises(ValidationError):
            integrate_linear_ode(system, path, np.eye(2), tol=-1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_near_pole(self):
        # the RHS is deliberately evaluated at its pole
        system = lambda point, velocity: np.array([[velocity[0] / (point[0] - 0.5)]])
        path = ParamPath([0.0, 1.0])
        with pytest.raises((StepUnderflow, NonConvergent, NonFiniteRHS)):
            integrate_linear_ode(system, path, np.eye(1), tol=1e-10)


class TestIntegerDet:
    def test_matches_the_float_determinant_on_small_entries(self):
        rng = np.random.default_rng(11)
        for n in range(6):
            for trial in range(60):
                a = rng.integers(-3, 4, size=(n, n))
                if n > 1 and trial % 3 == 0:
                    a[-1] = a[0]  # singular
                if n > 1 and trial % 4 == 0:
                    a[0, 0] = 0  # the first pivot needs a row swap
                assert _integer_det(a) == (round(np.linalg.det(a)) if n else 1)

    def test_exact_where_the_float_determinant_rounds(self):
        big = 10 ** 8
        assert _integer_det(np.array([[big + 1, big], [big, big - 1]])) == -1
        assert _integer_det(np.array([[big, big], [big, big]])) == 0


def _one(z):
    return 1.0


# scalar inputs that raised TypeError, ValueError or ZeroDivisionError
SCALAR_INPUTS = {
    "uhp-height-str": lambda: poincare_series_uhp(_one, 4, "3", 1j),
    "uhp-height-bool": lambda: poincare_series_uhp(_one, 4, True, 1j),
    "period-height-half": lambda: period_poincare(lambda x: x[0, 0] ** -4.0, np.eye(2),
                                                  "lower", 2.5),
    "lattice-zero": lambda: Lattice(1j, 0),
    "lattice-str": lambda: Lattice("a", 1),
    "j-str": lambda: j_normalized("x"),
    "tau-to-upper-str": lambda: tau_to_upper("a"),
    "scale-action-str": lambda: scale_action("a", (4, 0)),
    "ks-count-half": lambda: kodaira_spencer_count(1.5, 3),
    "ks-count-bool": lambda: kodaira_spencer_count(True, 3),
    "loop-radius-str": lambda: circle_loop(4, 1.5, "a"),
    "lattice-weight-str": lambda: eisenstein_lattice("4", Lattice.from_tau(1j)),
    "q-weight-str": lambda: eisenstein_q("4", 1j),
}


class TestScalarInputs:
    @pytest.mark.parametrize("call", SCALAR_INPUTS.values(), ids=SCALAR_INPUTS.keys())
    def test_refused_with_validation_error(self, call):
        with pytest.raises(ValidationError):
            call()

    def test_integral_floats_answer(self):
        lat = Lattice.from_tau(0.3 + 1.1j)
        assert eisenstein_lattice(4.0, lat) == eisenstein_lattice(4, lat)
        assert poincare_series_uhp(_one, 4, 2.0, 1j) == poincare_series_uhp(_one, 4, 2, 1j)
        assert kodaira_spencer_count(2.0, 4.0) == kodaira_spencer_count(2, 4)


class TestNearestInteger:
    def test_snap(self):
        m = np.array([[1.0 + 1e-9j, -2.0000000003], [0.0, 4.0]])
        n, dev = nearest_integer_matrix(m, 1e-6)
        assert np.array_equal(n, [[1, -2], [0, 4]])
        assert dev < 1e-8

    def test_rejects_far_matrix(self):
        with pytest.raises(NonConvergent):
            nearest_integer_matrix(np.array([[0.4]]), 1e-4)


def _assert_kernel_matches_mpmath(ws):
    with mp.workdps(30):
        for w in ws:
            rf, rd = _complete_rf_rd(w)
            want_rf, want_rd = complex(mp.elliprf(0, 1, w)), complex(mp.elliprd(0, w, 1))
            assert abs(rf - want_rf) <= 1e-13 * abs(want_rf), ("R_F", w)
            assert abs(rd - want_rd) <= 1e-13 * abs(want_rd), ("R_D", w)


def _passes_cut_check(w):
    """1 + u zeta, zeta = w - 1, stays 1e-6 off zero on [0, 1]: the third root off the cut."""
    zeta = w - 1.0
    t_min = min(max(-zeta.real / abs(zeta) ** 2, 0.0), 1.0)
    return abs(1.0 + t_min * zeta) >= 1e-6


class TestCarlsonKernels:
    """``_complete_rf_rd(w)`` = (R_F(0, 1, w), R_D(0, w, 1)) against mpmath."""

    @pytest.mark.parametrize("quadrant", [0, 1, 2, 3])
    def test_against_mpmath_per_quadrant(self, quadrant):
        # w - 1 in one quadrant, |w - 1| log-uniform in [1e-14, 1e10]
        rng = np.random.default_rng(40 + quadrant)
        ws = []
        while len(ws) < 150:
            theta = (quadrant + rng.uniform(0.0, 1.0)) * 0.5 * math.pi
            w = 1.0 + cmath.rect(10.0 ** rng.uniform(-14.0, 10.0), theta)
            if _passes_cut_check(w):
                ws.append(w)
        _assert_kernel_matches_mpmath(ws)

    def test_near_coincident_arguments(self):
        # w -> 1, where the AGM must not lose 1 - w to cancellation
        rng = np.random.default_rng(44)
        ws = [1.0 + cmath.rect(10.0 ** rng.uniform(-16.0, -3.0), rng.uniform(-math.pi, math.pi))
              for _ in range(80)]
        _assert_kernel_matches_mpmath(ws + [1.0])

    def test_near_the_negative_axis(self):
        # w just above and below (-inf, 0], as close as the cut check allows
        rng = np.random.default_rng(45)
        ws = []
        for _ in range(60):
            x = 10.0 ** rng.uniform(-5.0, 8.0)
            for sign in (1.0, -1.0):
                # the segment [1, w] passes the origin at distance |Im w| / |w - 1|
                w = complex(-x, sign * 1.001e-6 * (1.0 + x))
                assert _passes_cut_check(w)
                ws.append(w)
        _assert_kernel_matches_mpmath(ws)

    def test_small_w(self):
        rng = np.random.default_rng(46)
        ws = [cmath.rect(10.0 ** rng.uniform(-6.0, -1.0), rng.uniform(-0.99, 0.99) * math.pi)
              for _ in range(80)]
        _assert_kernel_matches_mpmath(ws)

    @pytest.mark.parametrize("integral", [0, 1], ids=["_carlson_rf", "_carlson_rd"])
    def test_tiny_mean_stops_with_typed_error(self, integral):
        # R_F(0, 0, 1) and R_D(0, 0, 1) are the w = 0 shapes: the geometric
        # mean stays 0 and both integrals diverge, so the loop must give up
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent):
                _complete_rf_rd(0.0)[integral]

    @pytest.mark.parametrize("w", [complex("nan"), complex("inf"), complex(1.0, math.inf)],
                             ids=["nan", "inf", "inf-imag"])
    def test_divergent_or_nonfinite_w_raises(self, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent):
                _complete_rf_rd(w)
