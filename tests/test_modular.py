import warnings

import mpmath as mp
import numpy as np
import pytest

from periodlab.errors import (
    NearCusp,
    NumericalError,
    RealTau,
    UnsupportedType,
    ValidationError,
)
from periodlab.modular import (
    _CHECKPOINTS,
    G6_SIGN,
    Lattice,
    _riemann_zeta,
    _zeta_tail,
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
        powers = list(range(3, 41)) + [100, 200, 1000]
        for n in _CHECKPOINTS:
            ref = oracles.oracle_zeta_tails(n, powers)
            for s in powers:
                assert _zeta_tail(s, n) == pytest.approx(float(ref[s]), rel=1e-13), (s, n)

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

    def test_near_cusp_refused(self):
        with pytest.raises(NearCusp):
            eisenstein_q(4, 0.001j)

    @pytest.mark.parametrize("tau", [1j, 0.3 + 0.9j])
    @pytest.mark.parametrize("k", [60, 100])
    def test_high_weight_q_expansion(self, k, tau):
        # the q-terms peak near n = (k-1)/ln(1/|q|), past the weight-4 count
        lattice = eisenstein_lattice(k, Lattice.from_tau(tau))
        assert eisenstein_q(k, tau) == pytest.approx(lattice, rel=1e-10)

    # more than 1024 terms; coefficients past the float range
    @pytest.mark.parametrize("k,tau", [(100, 0.03j), (400, 0.5j)])
    def test_high_weight_out_of_reach_refused(self, k, tau):
        with pytest.raises(NearCusp):
            eisenstein_q(k, tau)


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

    def test_q_expansion_needs_terms(self):
        with pytest.raises(ValidationError):
            j_q_expansion(0)
