import numpy as np
import pytest

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
        from periodlab.domain import base_point
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
        from periodlab.domain import base_point
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
