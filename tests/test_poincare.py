import numpy as np
import pytest

from periodlab.elliptic import SIGMA, period_matrix
from periodlab.errors import (
    NotInGroup,
    SizeMismatch,
    StabilizerMismatch,
    ValidationError,
)
from periodlab.modular import Lattice, eisenstein_lattice, eisenstein_q
from periodlab.poincare import (
    PSI2,
    CosetFamily,
    GroupElement,
    classical_factor,
    cocycle_check,
    enumerate_cosets_sl2,
    is_in_gamma,
    mean_value_diagnostic,
    moebius,
    period_poincare,
    poincare_series_uhp,
    slash,
)

import oracles

ZETA4 = np.pi ** 4 / 90


def canon(pair):
    a, b = int(pair[0]), int(pair[1])
    return min((a, b), (-a, -b))


class TestGroupMembership:
    def test_identity_and_shear(self):
        assert is_in_gamma(np.eye(2, dtype=int), PSI2)
        assert is_in_gamma(np.array([[1, 1], [0, 1]]), PSI2)

    def test_determinant_two_rejected(self):
        assert not is_in_gamma(np.array([[2, 0], [0, 1]]), PSI2)

    def test_shape_mismatch(self):
        with pytest.raises(SizeMismatch):
            is_in_gamma(np.eye(3, dtype=int), PSI2)

    def test_non_integer_rejected(self):
        with pytest.raises(NotInGroup):
            is_in_gamma(np.array([[0.5, 0.0], [0.0, 2.0]]), PSI2)


class TestGroupElement:
    def test_inverse_and_product(self):
        a = GroupElement(np.array([[1, 2], [0, 1]]), PSI2)
        b = GroupElement(np.array([[1, 0], [3, 1]]), PSI2)
        prod = a @ b
        assert is_in_gamma(prod.entries, PSI2)
        ident = prod @ prod.inverse()
        assert np.array_equal(ident.entries, np.eye(2, dtype=np.int64))

    def test_rejects_outsiders(self):
        with pytest.raises(NotInGroup):
            GroupElement(np.array([[2, 0], [0, 1]]), PSI2)

    def test_entries_are_locked(self):
        a = GroupElement(np.array([[1, 1], [0, 1]]), PSI2)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5

    def test_hash_by_value(self):
        a = GroupElement(np.array([[1, 1], [0, 1]]), PSI2)
        b = GroupElement(np.array([[1, 1], [0, 1]]), PSI2)
        assert a == b and hash(a) == hash(b)


class TestCosetEnumeration:
    @pytest.mark.parametrize("height,count", [(1, 4), (2, 8)])
    def test_class_counts(self, height, count):
        fam = enumerate_cosets_sl2("upper", height)
        assert len(fam.representatives) == count
        assert len(oracles.oracle_coset_classes(height)) == count

    @pytest.mark.parametrize("stabilizer,row", [("upper", 1), ("lower", 0)])
    def test_matches_bruteforce_classes(self, stabilizer, row):
        for height in (1, 2, 5):
            fam = enumerate_cosets_sl2(stabilizer, height)
            ours = {canon(g.entries[row]) for g in fam.representatives}
            ref = {canon(p) for p in oracles.oracle_coset_classes(height)}
            assert ours == ref

    def test_all_representatives_in_group(self):
        fam = enumerate_cosets_sl2("lower", 6)
        assert all(is_in_gamma(g.entries, PSI2) for g in fam.representatives)

    @pytest.mark.parametrize("stabilizer,off", [("upper", (1, 0)), ("lower", (0, 1))])
    def test_pairwise_distinct(self, stabilizer, off):
        fam = enumerate_cosets_sl2(stabilizer, 5)
        assert fam.check_pairwise(lambda m: m[off] == 0)

    def test_pairwise_catches_duplicates(self):
        dup = CosetFamily(
            representatives=(
                GroupElement(np.eye(2, dtype=np.int64), PSI2),
                GroupElement(np.array([[1, 1], [0, 1]]), PSI2),
            ),
            stabilizer="upper",
            height=1,
        )
        with pytest.raises(ValidationError):
            dup.check_pairwise(lambda m: m[1, 0] == 0)

    def test_bad_height(self):
        with pytest.raises(ValidationError):
            enumerate_cosets_sl2("upper", 0)
        with pytest.raises(ValidationError):
            poincare_series_uhp(lambda z: 1.0, 4, 0, 0.3 + 1.1j)
        with pytest.raises(ValidationError):
            period_poincare(lambda x: x[0, 0] ** (-4), np.eye(2), "lower", 0)

    def test_series_sum_over_bruteforce_classes(self, pm):
        # both series sum over the same table; pin it against the oracle
        height, tau = 12, 0.3 + 1.1j
        x = pm.entries
        classes = oracles.oracle_coset_classes(height)
        ref_pp = sum((a * x[0, 0] + b * x[1, 0]) ** (-4) for a, b in classes)
        ref_uhp = sum((c * tau + d) ** (-4) for c, d in classes)
        pp = period_poincare(lambda m: m[0, 0] ** (-4), x, "lower", height).value
        uhp = poincare_series_uhp(lambda z: 1.0, 4, height, tau).value
        assert abs(pp - ref_pp) <= 1e-12 * abs(ref_pp)
        assert abs(uhp - ref_uhp) <= 1e-12 * abs(ref_uhp)


class TestCocycle:
    def test_classical_factor_composes(self):
        assert cocycle_check(classical_factor, samples=100, tol=1e-12)

    def test_trivial_factor_composes(self):
        assert cocycle_check(lambda z, a: 1.0 + 0j, samples=20)

    def test_constant_factor_fails(self):
        assert not cocycle_check(lambda z, a: 2.0 + 0j, samples=20)

    def test_wrong_slot_order_fails(self):
        # evaluating the left factor at x instead of Bx breaks composition
        assert not cocycle_check(
            lambda z, a: np.asarray(a)[0, 0] + np.asarray(a)[0, 1] / (z + 2j),
            samples=20,
        )


class TestSlash:
    S = np.array([[0, 1], [-1, 0]])
    T = np.array([[1, 1], [0, 1]])

    def test_identity_acts_trivially(self):
        f = lambda z: z ** 2 + 1j
        g = slash(f, 4, np.eye(2, dtype=int))
        for z in (0.2 + 0.9j, -1.1 + 2j):
            assert g(z) == pytest.approx(f(z))

    def test_weight_four_invariance(self):
        f = lambda z: eisenstein_q(4, z)
        for a in (self.S, self.T, self.T @ self.S @ self.T):
            g = slash(f, 4, a)
            for z in (0.3 + 1.2j, -0.4 + 0.8j):
                assert abs(g(z) - f(z)) <= 1e-10 * abs(f(z))

    def test_slash_then_inverse_restores(self):
        f = lambda z: np.exp(2j * np.pi * z) / (z + 3j)
        a = GroupElement(np.array([[2, 1], [1, 1]]), PSI2)
        g = slash(slash(f, 6, a.entries), 6, a.inverse().entries)
        z = 0.15 + 0.7j
        assert abs(g(z) - f(z)) <= 1e-12 * abs(f(z))

    def test_composition_law(self):
        # (f |_n A) |_n B == f |_n (AB), the check behind the cocycle order
        rng = np.random.default_rng(7)
        f = lambda z: 1.0 / (z + 5j) + z / 50
        for _ in range(100):
            a = np.array([[1, int(rng.integers(-3, 4))], [0, 1]]) @ np.array(
                [[1, 0], [int(rng.integers(-3, 4)), 1]]
            )
            b = np.array([[0, 1], [-1, int(rng.integers(-3, 4))]])
            z = rng.uniform(-1, 1) + 1j * rng.uniform(0.5, 2.0)
            lhs = slash(slash(f, 4, a), 4, b)(z)
            rhs = slash(f, 4, a @ b)(z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestSeriesOnUpperHalfPlane:
    TAU = 0.3 + 1.1j

    def test_weight_four_matches_lattice_sum(self):
        rep = poincare_series_uhp(lambda z: 1.0, 4, 200, self.TAU)
        assert rep.converged
        full = 2 * ZETA4 * rep.value
        ref = eisenstein_lattice(4, Lattice.from_tau(self.TAU))
        assert abs(full - ref) <= 1e-4 * abs(ref)

    def test_translation_invariance(self):
        # shell-boundary rearrangement decays like 8/H^3; height 400 is the
        # first round height that brings this point under 1e-6
        a = poincare_series_uhp(lambda z: 1.0, 4, 400, self.TAU)
        b = poincare_series_uhp(lambda z: 1.0, 4, 400, self.TAU + 1)
        assert abs(a.value - b.value) <= 1e-6

    def test_tail_decay_slope(self):
        # truncation error of the weight-n series falls off like H^(2-n)
        rep = poincare_series_uhp(lambda z: 1.0, 4, 500, self.TAU)
        ref = rep.partial_sums[-1]
        e100 = abs(rep.partial_sums[99] - ref)
        e200 = abs(rep.partial_sums[199] - ref)
        slope = np.log(e200 / e100) / np.log(2.0)
        assert abs(slope - (2 - 4)) <= 0.5

    def test_weight_zero_diverges(self):
        rep = poincare_series_uhp(lambda z: 1.0, 0, 40, self.TAU)
        assert not rep.converged
        # partial sums count coset classes, so they keep growing
        assert rep.partial_sums[-1].real > 1.5 * rep.partial_sums[9].real

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValidationError):
            poincare_series_uhp(lambda z: 1.0, 4, 10, 0.3 - 1.1j)

    def test_report_shape(self):
        rep = poincare_series_uhp(lambda z: 1.0, 4, 12, self.TAU)
        assert rep.heights == tuple(range(1, 13))
        assert len(rep.partial_sums) == 12
        assert rep.value == rep.partial_sums[-1]


@pytest.fixture(scope="module")
def pm():
    return period_matrix((4.0, 1.0))


class TestPeriodPoincare:
    def test_determinant_functional_single_coset(self, pm):
        rep = period_poincare(np.linalg.det, pm, stabilizer="full", height=80)
        assert rep.converged
        assert rep.heights == (0,)
        target = SIGMA * 2j * np.pi
        assert abs(rep.value - target) <= 1e-8

    def test_x11_functional_is_proportional_to_eisenstein(self, pm):
        rep = period_poincare(
            lambda x: x[0, 0] ** (-4), pm, stabilizer="lower", height=200
        )
        assert rep.converged
        om1, om2 = pm.entries[0, 0], pm.entries[1, 0]
        if (om1 / om2).imag <= 0:
            om1, om2 = om2, om1
        ref = eisenstein_lattice(4, Lattice(om1, om2))
        assert abs(2 * ZETA4 * rep.value - ref) <= 1e-4 * abs(ref)

    def test_constant_functional_diverges(self, pm):
        rep = period_poincare(
            lambda x: 1.0 + 0j, pm, stabilizer="lower", height=30
        )
        assert not rep.converged

    def test_wrong_stabilizer_detected(self, pm):
        with pytest.raises(StabilizerMismatch):
            period_poincare(lambda x: x[0, 0] ** (-4), pm, stabilizer="upper")

    def test_needs_two_by_two(self):
        with pytest.raises(SizeMismatch):
            period_poincare(np.linalg.det, np.eye(3, dtype=complex),
                            stabilizer="full")


class TestMeanValue:
    def test_constant(self):
        rep = mean_value_diagnostic(lambda z: 1.0, 0.5j, 0.4)
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0, abs=1e-10)
        assert rep.sub_mean

    def test_linear_at_origin(self):
        # area mean of |z|^2 on a radius-r disk is r^2/2
        rep = mean_value_diagnostic(lambda z: z, 0.0, 0.8, grid=128)
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.8 ** 2 / 2, rel=1e-4)
        assert rep.sub_mean

    def test_holomorphic_is_sub_mean(self):
        f = lambda z: np.exp(z) * (z - 0.3) ** 2
        rep = mean_value_diagnostic(f, 0.2 + 0.1j, 0.5)
        assert rep.sub_mean
        assert rep.lhs < rep.rhs

    def test_truncated_series_numerator(self):
        # |numerator of a height-8 weight-4 series|^2 still obeys the bound
        g = poincare_series_uhp(lambda z: 1.0, 4, 8, 0.3 + 1.1j).value
        f = lambda z: poincare_series_uhp(lambda w: 1.0, 4, 8, z).value - g
        rep = mean_value_diagnostic(f, 0.3 + 1.1j, 0.1, grid=16)
        assert rep.lhs <= 1e-12
        assert rep.sub_mean

    def test_validation(self):
        with pytest.raises(ValidationError):
            mean_value_diagnostic(lambda z: 1.0, 0.0, -1.0)
        with pytest.raises(ValidationError):
            mean_value_diagnostic(lambda z: 1.0, 0.0, 1.0, grid=1)
