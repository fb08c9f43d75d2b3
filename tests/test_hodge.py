import numpy as np
import pytest

from periodlab.domain import base_point, standard_type
from periodlab.errors import (
    DegenerateFiltration,
    NotInGroup,
    RankDeficient,
    RealTau,
    ValidationError,
)
from periodlab.hodge import (
    HodgeFiltration,
    HodgeType,
    decomposition_from_filtration,
    elliptic_hs,
    filtration_from_decomposition,
    group_element_action,
    intersect_subspaces,
    jacobian_lattice,
    real_structure,
    subspace_distance,
    verify_polarization,
    weil_operator,
)

PSI2 = np.array([[0, 1], [-1, 0]])


def weight2_example():
    # h = (1, 2, 1) with the diagonal form of signature (2, 2)
    phi = HodgeType(2, (1, 2, 1), np.diag([1, 1, -1, -1]).astype(np.int64))
    v = np.zeros((4, 1), dtype=complex)
    v[2, 0], v[3, 0] = 1.0, 1.0j
    f1 = np.zeros((4, 3), dtype=complex)
    f1[:, 0:1] = v
    f1[0, 1], f1[1, 2] = 1.0, 1.0
    return phi, HodgeFiltration.from_levels(phi, (f1, v))


class TestHodgeType:
    def test_validation(self):
        phi = HodgeType(1, (2, 2), np.kron(PSI2, np.eye(2, dtype=int)))
        assert phi.mu == 4
        assert phi.filtration_dim(1) == 2
        with pytest.raises(ValidationError):
            HodgeType(1, (1, 2), PSI2)  # not palindromic
        with pytest.raises(ValidationError):
            HodgeType(1, (1, 1), np.eye(2, dtype=int))  # wrong symmetry
        with pytest.raises(ValidationError):
            HodgeType(2, (1, 0, 1), np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("m,h,psi", [
        (1, (1.5, 1.5), PSI2),
        (1, ("1", 1), PSI2),
        (1, (None, 1), PSI2),
        (1.5, (1, 1), PSI2),
        ("1", (1, 1), PSI2),
        (1, (1, 1), [[0, "1"], [-1, 0]]),
        (1, (1, 1), [[0, None], [-1, 0]]),
        (1, (1, 1), [[0, 1.5], [-1.5, 0]]),
        (1, (1, 1), [[0, np.nan], [-1, 0]]),
    ], ids=["half-h", "str-h", "none-h", "half-m", "str-m", "str-psi", "none-psi",
            "half-psi", "nan-psi"])
    def test_non_integers_refused(self, m, h, psi):
        with pytest.raises(ValidationError):
            HodgeType(m, h, psi)

    def test_exact_float_fields_accepted(self):
        phi = HodgeType(1.0, [1.0, 1.0], np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert (phi.m, phi.h) == (1, (1, 1))
        assert phi.psi.dtype == np.int64

    def test_singularity_is_decided_exactly(self):
        # det = -1, though the float determinant of these entries is 0.0
        big = 10 ** 8
        phi = HodgeType(2, (1, 0, 1), [[big + 1, big], [big, big - 1]])
        assert phi.psi.tolist() == [[big + 1, big], [big, big - 1]]
        with pytest.raises(ValidationError, match="singular"):
            HodgeType(2, (1, 0, 1), [[big, big], [big, big]])

    def test_pairing(self):
        phi = HodgeType(1, (1, 1), PSI2)
        e1, e2 = np.eye(2)
        assert phi.pairing(e1, e2) == 1
        assert phi.pairing(e2, e1) == -1


class TestEllipticStructure:
    def test_polarization_dichotomy(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.5))
            _, filt = elliptic_hs(tau)
            dec = decomposition_from_filtration(filt)
            assert verify_polarization(dec).passed
            _, conj_filt = elliptic_hs(np.conj(tau))
            conj_dec = decomposition_from_filtration(conj_filt)
            report = verify_polarization(conj_dec)
            assert report.first and not report.second

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        _, filt = elliptic_hs(0.3 + 1.1j)
        with pytest.raises(ValidationError, match="positive and finite"):
            verify_polarization(decomposition_from_filtration(filt), tol)

    def test_real_tau_refused(self):
        with pytest.raises(RealTau):
            elliptic_hs(0.7)

    def test_round_trip(self):
        _, filt = elliptic_hs(0.3 + 1.4j)
        dec = decomposition_from_filtration(filt)
        back = filtration_from_decomposition(dec)
        for i in range(2):
            assert subspace_distance(filt.level(i), back.level(i)) < 1e-10

    def test_degenerate_filtration_detected(self):
        phi = HodgeType(1, (1, 1), PSI2)
        real_line = np.array([[1.0], [0.0]], dtype=complex)
        filt = HodgeFiltration.from_levels(phi, (real_line,))
        with pytest.raises(DegenerateFiltration):
            decomposition_from_filtration(filt)


class TestHigherWeight:
    def test_weight2_polarization(self):
        _, filt = weight2_example()
        dec = decomposition_from_filtration(filt)
        report = verify_polarization(dec)
        assert report.passed
        assert report.max_cross_pairing < 1e-10
        assert report.min_positivity > 0.5

    def test_weight3_base_point(self):
        phi = HodgeType(3, (1, 1, 1, 1),
                        np.kron(np.array([[0, 1], [-1, 0]]), np.eye(2, dtype=int)))
        filt = base_point(phi)
        dec = decomposition_from_filtration(filt)
        assert verify_polarization(dec).passed
        data = real_structure(dec)
        assert data.passed


class TestRealStructure:
    def test_elliptic_clauses(self):
        _, filt = elliptic_hs(0.2 + 1.1j)
        dec = decomposition_from_filtration(filt)
        data = real_structure(dec)
        assert data.passed
        assert data.clause_violations["orthogonality"] < 1e-8
        assert data.clause_violations["J-invariance"] < 1e-8
        # stored as a negated smallest eigenvalue: strictly negative
        assert data.clause_violations["odd-positivity"] < 0

    def test_weil_operator(self):
        _, filt = elliptic_hs(0.4 + 0.9j)
        dec = decomposition_from_filtration(filt)
        c = weil_operator(dec)
        # squares to (-1)^m on the whole space for odd weight
        assert np.allclose(c @ c, -np.eye(2), atol=1e-10)
        # psi(x, C y) is symmetric positive definite on the real points
        gram = PSI2 @ c
        sym = 0.5 * (gram + gram.T)
        assert np.allclose(gram, sym, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(sym.real)) > 0


def group_move(phi, seed):
    """A generic real element of the group of phi.psi, by the Cayley transform
    (1 - N)^-1 (1 + N) of a seeded N = Psi^-1 X in its Lie algebra."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.3, 0.3, (phi.mu, phi.mu))
    x = x + (-1) ** (phi.m + 1) * x.T  # symmetric for odd m, skew for even m
    n = np.linalg.solve(phi.psi, x)
    eye = np.eye(phi.mu)
    return np.linalg.solve(eye - n, eye + n)


def frozen_points():
    """A moved polarized point of each standard type, and the same flag under -Psi,
    where the positivity clauses fail."""
    out = {}
    for seed, (m, h) in enumerate([(1, (1, 1)), (1, (2, 2)), (2, (1, 1, 1)),
                                   (2, (1, 3, 1)), (3, (1, 1, 1, 1))]):
        phi = standard_type(m, h)
        g = group_move(phi, seed)
        levels = tuple(g @ level for level in base_point(phi).levels[1:])
        name = f"w{m}-" + "".join(map(str, h))
        out[name] = HodgeFiltration.from_levels(phi, levels)
        flipped = HodgeType(m, h, -phi.psi)
        out[name + "-flipped"] = HodgeFiltration.from_levels(flipped, levels)
    return out


# real_structure clause values and weil_operator matrices at frozen_points(),
# recorded from the implementation that wrote each Weil sign in three places.
FROZEN_CLAUSES = {
    "w1-11": {
        "orthogonality": 0.0,
        "J-invariance": 1.3877787807814457e-17,
        "odd-positivity": -0.0892561083368772,
    },
    "w1-11-flipped": {
        "orthogonality": 0.0,
        "J-invariance": 1.3877787807814457e-17,
        "odd-positivity": 0.08925610833687721,
    },
    "w1-22": {
        "orthogonality": 0.0,
        "J-invariance": 1.0408340855860843e-16,
        "odd-positivity": -0.2678374115556979,
    },
    "w1-22-flipped": {
        "orthogonality": 0.0,
        "J-invariance": 1.0408340855860843e-16,
        "odd-positivity": 0.4743678703005929,
    },
    "w2-111": {
        "orthogonality": 9.856581880919699e-17,
        "J-invariance": 3.885780586188048e-16,
        "even-positivity": -0.29087274390704204,
    },
    "w2-111-flipped": {
        "orthogonality": 9.856581880919699e-17,
        "J-invariance": 3.885780586188048e-16,
        "even-positivity": 0.4101841262027488,
    },
    "w2-131": {
        "orthogonality": 2.1237174529770814e-16,
        "J-invariance": 1.249000902703301e-16,
        "even-positivity": -0.09555360141651761,
    },
    "w2-131-flipped": {
        "orthogonality": 2.1237174529770814e-16,
        "J-invariance": 1.249000902703301e-16,
        "even-positivity": 0.9999999999999998,
    },
    "w3-1111": {
        "orthogonality": 9.761760225322817e-17,
        "J-invariance": 5.551115123125783e-17,
        "odd-positivity": -0.17893737932291612,
    },
    "w3-1111-flipped": {
        "orthogonality": 9.761760225322817e-17,
        "J-invariance": 5.551115123125783e-17,
        "odd-positivity": 0.37607751720041394,
    },
}
FROZEN_WEIL = {
    "w1-11": [
        [2.2256180218214916, -10.644419536629105],
        [0.5592954654380277, -2.225618021821491],
    ],
    "w1-22": [
        [-0.2816815679411577, 1.0396286016145926, -2.5343083908334445, 0.5435663617258466],
        [0.33627299210539807, -0.22650979241853988, 0.5435663617258464, -0.7908881526880194],
        [0.6069693396909824, 0.2010866970306407, 0.2816815679411574, -0.3362729921053979],
        [0.2010866970306404, 1.9095110550946937, -1.0396286016145935, 0.22650979241854013],
    ],
    "w2-111": [
        [2.43792954461069, 0.14531786007595987, -2.2186444474112186],
        [-0.1453178600759593, -1.0061424413103985, 0.09377989257302158],
        [2.218644447411218, 0.09377989257302193, -2.431787103300292],
    ],
    "w2-131": [
        [2.3799894882559394, -2.8334447553233315, 0.21178135554384103, 2.247519096444746, -2.7724120183245207],
        [-2.83344475532333, 7.870615898133445, -0.8728558879948475, -3.889717647363536, 7.389653430467233],
        [0.21178135554384017, -0.8728558879948443, 1.2147249117435441, 0.04331673123578658, -1.1315515966002883],
        [-2.2475190964447456, 3.88971764736354, -0.04331673123578806, -3.159604280601755, 3.3466434818042954],
        [2.7724120183245198, -7.389653430467233, 1.1315515966002914, 3.3466434818042914, -7.305726017531172],
    ],
    "w3-1111": [
        [-1.3956321460080066, -0.49657076243796866, -0.777157665626818, -0.4987595959819681],
        [-1.8375696870889517, -0.41330925691185194, -0.49875959598196795, -1.8892340671636019],
        [4.620897665271458, 0.5395513731399434, 1.3956321460080063, 1.8375696870889513],
        [0.5395513731399441, 0.960284132629813, 0.49657076243796894, 0.41330925691185205],
    ],
}


class TestFrozenRealStructure:
    @pytest.mark.parametrize("name", sorted(FROZEN_CLAUSES))
    def test_clauses_and_weil_operator(self, name):
        dec = decomposition_from_filtration(frozen_points()[name])
        clauses = real_structure(dec).clause_violations
        assert clauses.keys() == FROZEN_CLAUSES[name].keys()
        for key, want in FROZEN_CLAUSES[name].items():
            assert clauses[key] == pytest.approx(want, abs=1e-12), key
        c = weil_operator(dec)
        assert np.isrealobj(c)
        want = np.array(FROZEN_WEIL[name.removesuffix("-flipped")])
        assert np.max(np.abs(c - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert verify_polarization(dec).passed == (not name.endswith("flipped"))
        assert real_structure(dec).passed == verify_polarization(dec).passed


class TestGroupAction:
    def test_shear_translates_tau(self):
        tau = 0.3 + 1.2j
        _, filt = elliptic_hs(tau)
        shear = np.array([[1, 1], [0, 1]])
        moved = group_element_action(shear, filt)
        line = moved.level(1)
        ratio = line[0, 0] / line[1, 0]
        assert ratio == pytest.approx(tau + 1, abs=1e-12)
        dec = decomposition_from_filtration(moved)
        assert verify_polarization(dec).passed

    def test_non_group_matrix_refused(self):
        _, filt = elliptic_hs(1.3j)
        with pytest.raises(NotInGroup):
            group_element_action(np.array([[2, 0], [0, 1]]), filt)

    def test_no_int64_wrap(self):
        _, filt = elliptic_hs(1.3j)
        with pytest.raises(NotInGroup):  # det = 1 - 2^64
            group_element_action([[1 + 2**32, 0], [0, 1 - 2**32]], filt)

    @pytest.mark.parametrize("entry", [np.nan, "1", None, 0.5])
    def test_non_integer_matrix_refused(self, entry):
        _, filt = elliptic_hs(1.3j)
        with pytest.raises(NotInGroup):
            group_element_action([[1, entry], [0, 1]], filt)


class TestJacobianLattice:
    def test_elliptic_rank_two(self):
        tau = 0.3 + 1.4j
        _, filt = elliptic_hs(tau)
        proj = jacobian_lattice(filt)
        assert proj.shape == (2, 2)
        # both projected basis vectors lie on the line spanned by (tau, 1)
        direction = np.array([tau, 1.0])
        for col in proj.T:
            cross = col[0] * direction[1] - col[1] * direction[0]
            assert abs(cross) < 1e-10
        stacked = np.vstack([proj.real, proj.imag])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == 2

    def test_near_real_line_degenerates(self):
        phi = HodgeType(1, (1, 1), PSI2)
        line = np.array([[0.5], [1.0]], dtype=complex)
        filt = HodgeFiltration.from_levels(phi, (line,))
        with pytest.raises(RankDeficient):
            jacobian_lattice(filt)

    def test_weight3_rank_four(self):
        phi = HodgeType(3, (1, 1, 1, 1),
                        np.kron(np.array([[0, 1], [-1, 0]]), np.eye(2, dtype=int)))
        filt = base_point(phi)
        proj = jacobian_lattice(filt)
        stacked = np.vstack([proj.real, proj.imag])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == 4


class TestSubspaceHelpers:
    def test_intersection(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        cap = intersect_subspaces(a, b)
        assert cap.shape[1] == 1
        assert abs(cap[1, 0]) < 1e-12 and abs(cap[2, 0]) < 1e-12

    def test_distance(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert subspace_distance(e1, e1) < 1e-14
        assert subspace_distance(e1, e2) == pytest.approx(1.0)
