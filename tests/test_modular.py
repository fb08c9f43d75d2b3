import inspect
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from periodlab import modular, qseries
from periodlab.errors import (
    NearCusp,
    NumericalError,
    RealTau,
    UnsupportedType,
    ValidationError,
)
from periodlab.errors import NonConvergent
from periodlab.modular import (
    G6_SIGN,
    Lattice,
    _cut,
    _power_sum,
    _riemann_zeta,
    eisenstein_lattice,
    eisenstein_q,
    full_modular_weight_check,
    j_normalized,
    j_q_expansion,
    weierstrass_g,
)

import oracles


class TestLattice:
    def test_orientation_enforced(self):
        lat = Lattice(2j, 1.0)
        assert lat.tau == 2j
        with pytest.raises(RealTau):
            Lattice(2.0, 1.0)

    def test_from_tau_and_scaled(self):
        lat = Lattice.from_tau(0.3 + 1.1j)
        assert lat.omega2 == 1.0
        mu = 0.5 - 0.25j
        scaled = lat.scaled(mu)
        assert scaled.omega1 == pytest.approx(mu * lat.omega1)


class TestZetaKernel:
    def test_tail_matches_direct_sums(self):
        # sum_{m > n} (n/m)^s: the terms before the kernel's start a outright
        powers = list(range(3, 41)) + [100, 200, 1000]
        for n in (24, 36, 54, 81, 122, 183, 274, 411):
            ref = oracles.oracle_zeta_tails(n, powers)
            for s in powers:
                a = max(n + 1, _cut(s))
                got = sum((n / m) ** s for m in range(n + 1, a)) + (n / a) ** s * _power_sum(s, a)
                assert got == pytest.approx(float(ref[s]), rel=1e-13), (s, n)

    @pytest.mark.parametrize("s", [4, 8, 12, 60, 200])
    def test_complex_starts_match_direct_sums(self, s):
        # the starts a row sum uses: the cut plus a point of Re in [-1/2, 1/2]
        c = _cut(s)
        for w in (c + 0.5 + 0.87j, c - 0.5 + 0.87j, c + 0.2 + 3.1j, c - 0.3 + 40j,
                  c + 0.1 + 1000j):
            ref = oracles.oracle_power_sum(s, w)
            assert abs(_power_sum(s, w) - ref) <= 1e-13 * abs(ref), (s, w)

    def test_riemann_zeta(self):
        for k in list(range(4, 100, 2)) + [200, 1000]:
            with mp.workdps(30):
                ref = float(mp.zeta(k))
            assert _riemann_zeta(k) == pytest.approx(ref, rel=1e-15), k


class TestEisensteinLattice:
    def test_square_lattice_value(self):
        val = eisenstein_lattice(4, Lattice(2j, 1.0))
        assert val == pytest.approx(oracles.E4_2I, abs=1e-10)

    def test_against_naive_truncation(self):
        # the brute double sum carries roughly radius^(2-k) of error, so
        # the comparison runs at its accuracy, not the package's
        lat = Lattice(0.3 + 1.2j, 1.0)
        for k, tol in ((4, 1e-5), (6, 1e-8)):
            mine = eisenstein_lattice(k, lat)
            ref = oracles.oracle_eisenstein(k, lat.omega1, lat.omega2)
            assert abs(mine - ref) < tol

    @pytest.mark.parametrize("k", [200, 400])
    def test_large_weight_matches_direct_sum(self, k):
        # points past radius 6 add about 7^-k, far below rounding
        direct = sum((m * 1j + n) ** (-k) for m in range(-6, 7) for n in range(-6, 7)
                     if (m, n) != (0, 0))
        assert eisenstein_lattice(k, Lattice.from_tau(1j)) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("k,lat", [(200, Lattice(0.01j, 0.01)),
                                       (50, Lattice(1e-8j, 1e-8))],
                             ids=["k200-omega0.01", "k50-omega1e-8"])
    def test_beyond_float_range_refused(self, k, lat):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="outside the float range"):
                eisenstein_lattice(k, lat)

    @pytest.mark.parametrize("k,tau,mu", [(6, 0.3 + 1.2j, 1e-4), (4, 0.4 + 3j, 1e-3)],
                             ids=["k6-mu1e-4", "k4-mu1e-3"])
    def test_tolerance_is_relative_above_one(self, k, tau, mu):
        # |E_k| is 1e12 and more here, beyond any absolute 1e-10
        got = eisenstein_lattice(k, Lattice(mu * tau, mu))
        want = eisenstein_q(k, tau) * mu ** -k
        assert abs(got - want) <= 1e-10 * abs(want)

    # (k, tau, mu, shells the fitted shell tail summed, rows the row sum takes);
    # S shells held 4 S (S + 1) points, a row holds 2 _cut(k) - 1
    @pytest.mark.parametrize("k,tau,mu,shells,rows", [
        pytest.param(*case, id="-".join(map(str, case[:4]))) for case in [
            (4, 0.3 + 1.2j, 1.5, 36, 6), (6, 0.1 + 2j, 1.2, 36, 4), (4, 1j, 2.0, 36, 8),
            (6, -0.45 + 0.9j, 1.5, 36, 8), (8, 0.2 + 1.5j, 1.3, 36, 5),
            (4, 10j, 1.5, 122, 1), (4, 30j, 1.5, 274, 1)]])
    def test_unit_sized_sums_stop_where_they_did(self, monkeypatch, k, tau, mu, shells, rows):
        summed = []
        row_sum = modular._row_sum
        monkeypatch.setattr(modular, "_row_sum", lambda *a: summed.append(a) or row_sum(*a))
        assert abs(eisenstein_lattice(k, Lattice(mu * tau, mu))) <= 1.0
        assert len(summed) == rows
        assert rows * (2 * _cut(k) - 1) < 4 * shells * (shells + 1)

    def test_weight_homogeneity(self):
        lat = Lattice(0.2 + 1.4j, 1.0)
        mu = 1.3 - 0.7j
        for k in (4, 6):
            a = eisenstein_lattice(k, lat)
            b = eisenstein_lattice(k, lat.scaled(mu))
            assert b == pytest.approx(mu ** (-k) * a, rel=1e-9)

    def test_full_weight_check_passes(self):
        report = full_modular_weight_check(
            lambda lat: eisenstein_lattice(4, lat), 4, samples=4)
        assert report.passed
        assert report.max_rel_deviation < 1e-8

    def test_full_weight_check_catches_wrong_weight(self):
        report = full_modular_weight_check(
            lambda lat: eisenstein_lattice(4, lat), 6, samples=2)
        assert not report.passed

    def test_odd_weight_rejected(self):
        with pytest.raises(UnsupportedType):
            eisenstein_lattice(5, Lattice(2j, 1.0))
        with pytest.raises(UnsupportedType):
            eisenstein_lattice(2, Lattice(2j, 1.0))


class TestCrossMethod:
    def test_lattice_vs_q_expansion(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            for k in (4, 6):
                a = eisenstein_lattice(k, Lattice(tau, 1.0))
                b = eisenstein_q(k, tau)
                assert abs(a - b) < 1e-10

    def test_symmetry_zeros(self):
        rho = np.exp(1j * np.pi / 3)
        assert abs(eisenstein_lattice(6, Lattice(1j, 1.0))) < 1e-10
        assert abs(eisenstein_lattice(4, Lattice(rho, 1.0))) < 1e-10

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.9j])
    @pytest.mark.parametrize("k", [60, 100])
    def test_high_weight_q_expansion(self, k, tau):
        # the q-terms peak near n = (k-1)/ln(1/|q|), past the weight-4 count
        lattice = eisenstein_lattice(k, Lattice.from_tau(tau))
        assert eisenstein_q(k, tau) == pytest.approx(lattice, rel=1e-10)

    # near the cusp and at high weight; the reference sums the series at tau
    # itself, slow or cancelling as it is there, in 60 digits
    @pytest.mark.parametrize("k,tau", [(200, 0.3313 + 0.7192j), (100, 0.03j), (400, 0.5j),
                                       (60, 0.41 + 0.05j), (4, 0.1234 + 0.01j), (4, 0.001j)])
    def test_matches_unreduced_lambert_series(self, k, tau):
        ref = oracles.oracle_eisenstein_q(k, tau)
        assert abs(eisenstein_q(k, tau) - ref) <= 1e-12 * abs(ref)

    def test_lattice_vs_q_near_the_real_axis(self):
        # |c| reaches about 1e15 here; a reduction whose matrix and reduced point
        # drift apart shows as a disagreement of many orders of magnitude
        rng = np.random.default_rng(5)
        for _ in range(12):
            tau = complex(rng.uniform(-1, 1), 10.0 ** -rng.uniform(8, 30))
            q_route = eisenstein_q(12, tau)
            lattice = eisenstein_lattice(12, Lattice.from_tau(tau))
            assert abs(q_route - lattice) <= 1e-12 * abs(lattice), tau

    @pytest.mark.parametrize("k", [60, 200, 400])
    def test_high_weight_near_rho(self, k):
        # the m = 1 row of the q-series cancels by about (Im tau)^-k here
        tau = complex(-0.5, np.sqrt(3) / 2) + 0.01j
        lattice = eisenstein_lattice(k, Lattice.from_tau(tau))
        assert abs(eisenstein_q(k, tau) - lattice) <= 1e-12 * abs(lattice)


    @pytest.mark.parametrize("tau", [0.001j, 100j])
    def test_elongated_lattices(self, tau):
        # reduced Im tau = 1000 and 100: row 1 is below rounding at once
        lattice = eisenstein_lattice(4, Lattice.from_tau(tau))
        assert abs(eisenstein_q(4, tau) - lattice) <= 1e-12 * abs(lattice)

    def test_seeded_sweep_against_q_route(self):
        # every lattice answers, or both routes refuse it as out of float range
        rng = np.random.default_rng(20261018)
        answered, worst = 0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(500):
                tau = complex(rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3))
                k = int(rng.choice([4, 6, 8, 12, 24, 60, 200]))
                try:
                    lattice = eisenstein_lattice(k, Lattice.from_tau(tau))
                except NumericalError as exc:
                    assert not isinstance(exc, NonConvergent), (k, tau)
                    with pytest.raises(NumericalError):
                        eisenstein_q(k, tau)
                    continue
                q_route = eisenstein_q(k, tau)
                worst = max(worst, abs(lattice - q_route) / abs(q_route))
                answered += 1
        assert answered >= 490
        assert worst <= 1e-12

    def test_lattice_route_never_takes_the_q_route(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("q route called")

        want = eisenstein_lattice(6, Lattice.from_tau(0.3 + 1.2j))
        monkeypatch.setattr(modular, "eisenstein_q", refuse)
        assert eisenstein_lattice(6, Lattice.from_tau(0.3 + 1.2j)) == want
        assert weierstrass_g(Lattice.from_tau(0.3 + 1.2j))[1] == 140.0 * G6_SIGN * want


class TestModularGroup:
    @staticmethod
    def _gamma(rng):
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.integers(1, 5)):
            n = int(rng.integers(-3, 4))
            a, b, c, d = -c, -d, a + n * c, b + n * d  # S T^n times the product
        return a, b, c, d

    def test_transformation_laws(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 3.0))
            a, b, c, d = self._gamma(rng)
            moved = (a * tau + b) / (c * tau + d)
            assert j_normalized(moved) == pytest.approx(j_normalized(tau), rel=1e-12)
            for k in (4, 6, 12):
                value = eisenstein_q(k, tau)
                assert eisenstein_q(k, tau + 1) == pytest.approx(value, rel=1e-12)
                assert eisenstein_q(k, -1 / tau) == pytest.approx(tau ** k * value, rel=1e-12)

    @pytest.mark.parametrize("tau", [10 + 1j, 1e6 + 1j])
    def test_lattice_far_from_the_origin(self, tau):
        # Z tau + Z is the square lattice: E_4 = Gamma(1/4)^8 / (960 pi^2)
        with mp.workdps(40):
            ref = float(mp.gamma(0.25) ** 8 / (960 * mp.pi ** 2))
        value = eisenstein_lattice(4, Lattice.from_tau(tau))
        assert abs(value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("tau", [5j, 20j])
    def test_j_near_the_cusp(self, tau):
        ref = oracles.oracle_j(tau)
        assert abs(j_normalized(tau) - ref) <= 1e-12 * abs(ref)

    def test_j_past_the_float_range(self):
        assert np.isfinite(j_normalized(100j))
        with pytest.raises(NearCusp):
            j_normalized(120j)

    def test_contract_sweep(self):
        # answers or NearCusp, in bounded time and without a warning
        rng = np.random.default_rng(5)
        taus = [1e-300j]
        for eps in 10.0 ** -np.arange(1, 13):
            p, q = int(rng.integers(-7, 8)), int(rng.integers(1, 12))
            taus.append(complex(p / q, eps))
        taus += [complex(rng.choice([-1, 1]) * 10.0 ** rng.uniform(0, 6),
                         10.0 ** rng.uniform(-3, 1)) for _ in range(12)]
        # tiny Im under a generic Re: |c| nears or passes 2^52
        taus += [complex(rng.uniform(-1, 1), 10.0 ** -rng.uniform(13, 300)) for _ in range(6)]
        calls = [(j_normalized, tau) for tau in taus]
        calls += [(lambda tau, k=k: eisenstein_q(k, tau), tau)
                  for k in (4, 6, 12, 60, 200, 400) for tau in taus]
        answered = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, tau in calls:
                start = time.perf_counter()
                try:
                    assert np.isfinite(f(tau))
                    answered += 1
                except NearCusp:
                    pass
                assert time.perf_counter() - start < 0.05, tau
        assert answered > len(calls) // 2

    def test_q_route_uses_no_exact_series(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact series called")

        monkeypatch.setattr(modular, "eisenstein_normalized", refuse)
        monkeypatch.setattr(modular, "bernoulli", refuse)
        monkeypatch.setattr(qseries, "bernoulli", refuse)
        assert eisenstein_q(200, 0.3 + 0.9j) == pytest.approx(
            eisenstein_lattice(200, Lattice.from_tau(0.3 + 0.9j)), rel=1e-12)
        assert j_normalized(1j) == pytest.approx(1.0, abs=1e-12)

    def test_no_tuning_parameters(self):
        assert list(inspect.signature(eisenstein_q).parameters) == ["k", "tau"]
        assert list(inspect.signature(eisenstein_lattice).parameters) == ["k", "lat"]
        assert list(inspect.signature(weierstrass_g).parameters) == ["lat"]
        assert list(inspect.signature(j_normalized).parameters) == ["tau"]


class TestWeierstrassInvariants:
    def test_round_trip_at_anchor(self):
        from periodlab.elliptic import period_matrix
        gens = period_matrix((4.0, 0.0)).lattice_basis()
        g4, g6 = weierstrass_g(Lattice(*gens))
        assert g4 == pytest.approx(4.0, rel=1e-8)
        assert abs(g6) < 1e-8

    def test_sign_constant_is_frozen(self):
        assert G6_SIGN in (-1, 1)


class TestJ:
    def test_special_values(self):
        assert j_normalized(1j) == pytest.approx(1.0, abs=1e-12)
        assert abs(j_normalized(np.exp(1j * np.pi / 3))) < 1e-12
        assert j_normalized(2j) == pytest.approx(oracles.J_2I, abs=1e-9)

    def test_translation_invariance(self):
        tau = 0.37 + 1.21j
        assert j_normalized(tau + 1) == pytest.approx(j_normalized(tau),
                                                      abs=1e-10)

    def test_against_kleinj(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.8))
            assert j_normalized(tau) == pytest.approx(oracles.oracle_j(tau),
                                                      abs=1e-9)

    def test_q_expansion_exact_integers(self):
        series = j_q_expansion(6)
        assert series.low == -1
        coeffs = tuple(series.coefficient(n) for n in range(-1, 5))
        assert coeffs == oracles.J_QCOEFFS

    def test_q_expansion_matches_jacobi_product(self):
        want = oracles.oracle_j_coefficients(100)
        assert want[:6] == oracles.J_QCOEFFS
        for n in range(1, 101):
            series = j_q_expansion(n)
            assert (series.low, series.order) == (-1, n - 1)
            assert series.coeffs == want[:n]
            assert all(type(c) is int for c in series.coeffs)

    def test_q_expansion_needs_terms(self):
        for n_terms in [0, -1, 2.5, "3", None, True]:
            with pytest.raises(ValidationError):
                j_q_expansion(n_terms)
