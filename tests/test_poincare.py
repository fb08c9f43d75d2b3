import warnings

import numpy as np
import pytest

from periodlab.elliptic import SIGMA, period_matrix
from periodlab.errors import (
    NotInGroup,
    SizeMismatch,
    StabilizerMismatch,
    ValidationError,
)
from periodlab import poincare
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

    @pytest.mark.parametrize("entry", [np.nan, np.inf, "1", None, 1 + 1e-9, 1j])
    def test_non_number_entries_rejected(self, entry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotInGroup):
                is_in_gamma([[1, entry], [0, 1]], PSI2)
            with pytest.raises(NotInGroup):
                GroupElement([[1, entry], [0, 1]], PSI2)

    def test_exact_float_entries_accepted(self):
        assert is_in_gamma([[1.0, 2.0], [0.0, 1.0 + 0j]], PSI2)

    def test_no_int64_wrap(self):
        # det = 1 - 2^64, which int64 arithmetic would read as 1
        wrap = [[1 + 2**32, 0], [0, 1 - 2**32]]
        assert not is_in_gamma(wrap, PSI2)
        with pytest.raises(NotInGroup):
            GroupElement(wrap, PSI2)
        big = np.array([[2**40, 1], [2**60 - 1, 2**20]])  # det 1, products past 2^63
        assert is_in_gamma(big, PSI2)


class TestGroupElement:
    def test_caller_array_stays_writable(self):
        b = np.array([[1, 1], [0, 1]])
        g = GroupElement(b, PSI2)
        b[0, 0] = 5
        assert g.entries[0, 0] == 1
        assert not g.entries.flags.writeable

    def test_inverse_and_product(self):
        a = GroupElement(np.array([[1, 2], [0, 1]]), PSI2)
        b = GroupElement(np.array([[1, 0], [3, 1]]), PSI2)
        prod = a @ b
        assert is_in_gamma(prod.entries, PSI2)
        ident = prod @ prod.inverse()
        assert np.array_equal(ident.entries, np.eye(2, dtype=np.int64))

    def test_product_past_int64_names_the_range(self):
        a = GroupElement([[1, 2**40], [0, 1]], PSI2)
        with pytest.raises(ValidationError, match="int64 range"):
            a @ GroupElement([[1, 0], [2**30, 1]], PSI2)  # entry 1 + 2^70
        with pytest.raises(ValidationError, match="int64 range"):
            GroupElement([[1, -2**63], [0, 1]], PSI2).inverse()  # entry 2^63

    def test_product_that_fits_is_exact(self):
        a = GroupElement([[1, 2**40], [0, 1]], PSI2)
        prod = a @ GroupElement([[1, 0], [2**20, 1]], PSI2)
        assert prod.entries.tolist() == [[1 + 2**60, 2**40], [2**20, 1]]
        big = GroupElement([[2**40, 1], [2**60 - 1, 2**20]], PSI2)
        assert big.inverse().entries.tolist() == [[2**20, -1], [1 - 2**60, 2**40]]
        assert (big @ big.inverse()).entries.tolist() == [[1, 0], [0, 1]]

    def test_siegel_inverse_is_exact(self):
        # a float inverse rounds 2^60 + 1 away and finds no integer inverse
        i2, z2 = np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
        b = np.array([[2**60 + 1, 3], [3, 5]])
        psi = np.block([[z2, i2], [-i2, z2]])
        a = GroupElement(np.block([[i2, b], [z2, i2]]), psi)
        assert a.inverse().entries.tolist() == np.block([[i2, -b], [z2, i2]]).tolist()
        assert (a @ a.inverse()).entries.tolist() == np.eye(4, dtype=int).tolist()

    @pytest.mark.parametrize("entries,psi", [
        ([[2**40, 1], [2**60 - 1, 2**20]], PSI2),
        ([[3, 2, 2], [2, 1, 2], [2, 2, 1]], np.diag([1, -1, -1])),
        ([[3, -2, 2], [2, -1, 2], [-2, 2, -1]], np.diag([1, -1, -1])),
        ([[1, 3], [0, 1]], 2 * PSI2),
    ], ids=["big", "weight-2", "weight-2-det-minus-1", "twice-psi2"])
    def test_inverse_is_a_two_sided_inverse(self, entries, psi):
        a = GroupElement(entries, psi)
        eye = np.eye(len(entries), dtype=int).tolist()
        assert (a @ a.inverse()).entries.tolist() == eye
        assert (a.inverse() @ a).entries.tolist() == eye

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

    def test_each_shell_is_built_once(self, monkeypatch):
        # one table per stabilizer: a larger height appends its new shells and
        # a smaller one reads a prefix, whatever order the heights come in
        monkeypatch.setattr(poincare, "_TABLES", {})
        built, pairs = [], poincare._shell_pairs
        monkeypatch.setattr(poincare, "_shell_pairs", lambda h: built.append(h) or pairs(h))
        for height in (10, 20, 30, 40, 50) * 2:
            assert len(poincare_series_uhp(lambda z: 1.0, 4, height, 1j).heights) == height
        assert sorted(built) == list(range(1, 51))
        grown, grown_ends = poincare._coset_table("upper", 30)
        monkeypatch.setattr(poincare, "_TABLES", {})
        fresh, fresh_ends = poincare._coset_table("upper", 30)
        assert np.array_equal(grown, fresh) and grown_ends == fresh_ends
        assert not grown.flags.writeable

    @pytest.mark.parametrize("stabilizer", ["upper", "lower"])
    def test_table_equals_the_scalar_build(self, stabilizer, monkeypatch):
        # the numpy build against one extended gcd per pair, every shell to 500
        monkeypatch.setattr(poincare, "_TABLES", {})
        table, ends = poincare._coset_table(stabilizer, 500)
        ref, ref_ends = oracles.oracle_coset_table(stabilizer, 500)
        assert table.dtype == np.int64 and np.array_equal(table, ref) and ends == ref_ends

    def test_unknown_stabilizer_is_refused(self, monkeypatch):
        monkeypatch.setattr(poincare, "_TABLES", {})
        with pytest.raises(ValidationError):
            poincare._coset_table("diagonal", 3)

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


UHP_TAUS = [0.3 + 1.1j, -0.2 + 0.9j, 0.01 + 0.05j, 2.7 + 3.1j, np.exp(1j * np.pi / 3)]
UHP_FUNCTIONS = {"one": lambda z: 1.0, "q": lambda z: np.exp(2j * np.pi * z),
                 "square": lambda z: z ** 2}


def assert_matches_oracle(rep, ref):
    """Each partial sum within 1e-13 of the oracle's running sum of |term| (an
    array sum may round each term differently from a per-coset one), the same
    verdict, and the tail estimate to 1e-9 relative or both infinite."""
    partials, tail, converged, abs_sums = ref
    assert len(rep.partial_sums) == len(partials)
    for ours, theirs, mass in zip(rep.partial_sums, partials, abs_sums):
        assert abs(ours - theirs) <= 1e-13 * mass
    assert rep.converged == converged
    assert rep.tail_estimate == tail or abs(rep.tail_estimate - tail) <= 1e-9 * abs(tail)


PERIOD_FUNCTIONALS = {"x11^-4": lambda x: x[0, 0] ** -4,
                      "x11^-2 x12^-2": lambda x: x[0, 0] ** -2 * x[0, 1] ** -2}


def seeded_period_matrix(seed):
    rng = np.random.default_rng(seed)
    t2, t3 = rng.uniform(-3, 3, 2) + 1j * rng.uniform(-3, 3, 2)
    return period_matrix((t2, t3))


class TestOneSeriesEngine:
    @pytest.mark.parametrize("tau", UHP_TAUS)
    @pytest.mark.parametrize("name", sorted(UHP_FUNCTIONS))
    def test_classical_series_matches_per_coset_loop(self, tau, name):
        # summing P(X) = X21^-n f(X11/X21) over A X by shells changes no bit
        # of the result for constant f; f's own array arithmetic (an FMA
        # complex multiply, array z ** 2) may round its last bit differently
        f, weights = UHP_FUNCTIONS[name], (0, 2, 4, 6, 12)
        for height in (1, 5, 40, 120):
            ref = oracles.oracle_uhp_series(f, weights, height, tau)
            for n in weights:
                rep = poincare_series_uhp(f, n, height, tau)
                if name == "one":
                    assert (rep.partial_sums, rep.tail_estimate, rep.converged) == ref[n][:3]
                else:
                    assert_matches_oracle(rep, ref[n])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(PERIOD_FUNCTIONALS))
    def test_period_series_matches_per_coset_loop(self, name, seed):
        p, x = PERIOD_FUNCTIONALS[name], seeded_period_matrix(seed)
        for height in (1, 5, 40, 200):
            ref = oracles.oracle_period_series(p, x.entries, "lower", height)
            assert_matches_oracle(period_poincare(p, x, "lower", height), ref)

    def test_one_functional_call_per_shell(self, pm):
        calls = []

        def f(z):
            calls.append(z)
            return 1.0

        poincare_series_uhp(f, 4, 12, 0.3 + 1.1j)
        assert len(calls) == 12
        calls.clear()
        period_poincare(lambda x: f(x) * x[0, 0] ** (-4), pm, "lower", 12)
        # plus the stabilizer check: 4 sampled X, each alone and under 8 samples
        assert len(calls) == 12 + 4 * 9

    def test_functional_value_of_another_shape_is_refused(self, pm):
        with pytest.raises(ValidationError, match=r"shape \(2,\)"):
            period_poincare(lambda x: x[0], pm, "lower", 3)
        with pytest.raises(ValidationError, match=r"shape \(3,\)"):
            poincare_series_uhp(lambda z: np.ones(3), 4, 3, 1j)
        # det over the last two axes of a (2, 2, n) shell, not entry by entry
        with pytest.raises(ValidationError, match="entry by entry"):
            period_poincare(np.linalg.det, pm, "lower", 5)


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
