import numpy as np
import pytest

from periodlab import hodge
from periodlab.domain import (
    MAX_MU,
    DomainReport,
    HermitianCase,
    _lie_basis,
    base_point,
    classify_hermitian,
    domain_dims,
    kodaira_spencer_count,
    lie_filtration_dims,
    standard_type,
)
from periodlab.errors import UnsupportedType, ValidationError
from periodlab.hodge import (
    HodgeFiltration,
    HodgeType,
    decomposition_from_filtration,
    group_element_action,
)
from periodlab.numerics import MAX_WEIGHT

import oracles


def siegel_type(g):
    psi = np.block([
        [np.zeros((g, g), dtype=int), np.eye(g, dtype=int)],
        [-np.eye(g, dtype=int), np.zeros((g, g), dtype=int)],
    ])
    return HodgeType(1, (g, g), psi)


def weight2_type(k):
    return HodgeType(2, (1, k, 1), np.diag([1] * k + [-1, -1]).astype(np.int64))


WEIGHT3 = HodgeType(3, (1, 1, 1, 1),
                    np.kron(np.array([[0, 1], [-1, 0]]), np.eye(2, dtype=int)))


class TestClassifier:
    def test_elliptic_is_case1(self):
        assert classify_hermitian(1, (1, 1)) == HermitianCase.CASE1

    def test_k3_like_is_case2(self):
        assert classify_hermitian(2, (1, 19, 1)) == HermitianCase.CASE2

    def test_weight3_generic_is_no(self):
        assert classify_hermitian(3, (1, 1, 1, 1)) == HermitianCase.NO

    def test_middle_pair_bound(self):
        assert classify_hermitian(2, (2, 3, 2)) == HermitianCase.NO
        assert classify_hermitian(2, (1, 3, 1)) == HermitianCase.CASE2

    def test_full_table_against_direct_reading(self):
        for m in range(5):
            for h in oracles.palindromic_vectors(6, m):
                got = classify_hermitian(m, h)
                assert got.value == oracles.oracle_case(m, h), (m, h)


class TestDimensions:
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_siegel(self, g):
        report = domain_dims(siegel_type(g))
        assert report.dim_D == g * (g + 1) // 2
        assert report.dim_horizontal == report.dim_D
        # the ambient algebra is sp(2g)
        assert report.lie_dims[-1] == g * (2 * g + 1)
        assert report.hermitian_case == HermitianCase.CASE1

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 19])
    def test_weight2(self, k):
        report = domain_dims(weight2_type(k))
        assert report.dim_D == k
        assert report.dim_horizontal == k
        # the ambient algebra is so(k + 2)
        assert report.lie_dims[-1] == (k + 2) * (k + 1) // 2
        assert report.hermitian_case == HermitianCase.CASE2

    def test_weight3_horizontal_is_proper(self):
        report = domain_dims(WEIGHT3)
        assert report.lie_dims == (6, 8, 9, 10)
        assert report.dim_D == 4
        assert report.dim_horizontal == 2
        assert report.hermitian_case == HermitianCase.NO

    def test_lie_dims_increase(self):
        dims = lie_filtration_dims(base_point(WEIGHT3))
        assert all(a < b for a, b in zip(dims, dims[1:]))

    def test_point_of_another_type_refused(self):
        with pytest.raises(ValidationError, match="differs"):
            domain_dims(standard_type(2, [1, 3, 1]), base_point(standard_type(1, [2, 2])))
        doubled = HodgeType(2, (1, 3, 1), 2 * weight2_type(3).psi)
        with pytest.raises(ValidationError, match="differs"):
            domain_dims(weight2_type(3),
                        HodgeFiltration(doubled, base_point(weight2_type(3)).levels))

    def test_empty_top_level(self):
        # h^{2,0} = 0: every condition has zero columns, so F^i(g) is all of g
        phi = HodgeType(2, (0, 2, 0), np.eye(2, dtype=np.int64))
        point = HodgeFiltration.from_levels(phi, (np.eye(2), np.zeros((2, 0))))
        assert domain_dims(phi, point).lie_dims == oracles.oracle_lie_filtration_dims(point)

    def test_report_invariants(self):
        with pytest.raises(ValidationError):
            DomainReport(2, 3, 1, 1, HermitianCase.NO, (1,))
        with pytest.raises(ValidationError):
            DomainReport(2, 2, 1, 5, HermitianCase.NO, (1,))


class TestLieBasis:
    """The explicit basis of g against the dense mu^2-unknown formulation."""

    @pytest.mark.parametrize("phi", [siegel_type(1), siegel_type(2), weight2_type(1),
                                     weight2_type(3), weight2_type(8), WEIGHT3],
                             ids=["1,1", "2,2", "1,1,1", "1,3,1", "1,8,1", "1,1,1,1"])
    def test_matches_dense_oracle(self, phi):
        point = base_point(phi)
        assert lie_filtration_dims(point) == oracles.oracle_lie_filtration_dims(point)

    def test_matches_dense_oracle_at_moved_point(self):
        shear = np.block([[np.eye(2, dtype=int), np.array([[1, 2], [2, -1]])],
                          [np.zeros((2, 2), dtype=int), np.eye(2, dtype=int)]])
        point = group_element_action(shear, base_point(WEIGHT3))
        dims = oracles.oracle_lie_filtration_dims(point)
        assert lie_filtration_dims(point) == dims
        assert domain_dims(WEIGHT3, point).lie_dims == dims

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_matches_dense_oracle_at_moved_weight2_point(self, k):
        # [[1,2,2],[2,1,2],[2,2,3]] preserves x^2 + y^2 - z^2 on coordinates (0, 1, k)
        phi = weight2_type(k)
        move = np.eye(k + 2, dtype=int)
        move[np.ix_([0, 1, k], [0, 1, k])] = [[1, 2, 2], [2, 1, 2], [2, 2, 3]]
        point = group_element_action(move, base_point(phi))
        dims = oracles.oracle_lie_filtration_dims(point)
        assert lie_filtration_dims(point) == dims
        assert domain_dims(phi, point).lie_dims == dims

    def test_condition_widths(self, monkeypatch):
        # one annihilator row of F^1 and twenty of F^2 at mu = 21; the projector
        # form took (210, 441) at i = 0 and (210, 21) at i = -1
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
        domain_dims(weight2_type(19))
        assert shapes == [(210, 40), (210, 1)]

    @pytest.mark.parametrize("phi", [siegel_type(3), WEIGHT3, weight2_type(1),
                                     weight2_type(4)],
                             ids=["odd-3,3", "odd-1,1,1,1", "even-1,1,1", "even-1,4,1"])
    def test_basis_spans_the_lie_algebra(self, phi):
        basis = _lie_basis(phi)
        psi = phi.psi
        for n in basis:
            assert np.max(np.abs(n.T @ psi + psi @ n)) < 1e-14
        assert np.linalg.matrix_rank(basis.reshape(len(basis), -1)) == len(basis)
        # at i = -m no containment applies: the dense count is dim g itself
        assert len(basis) == oracles.oracle_lie_filtration_dims(base_point(phi))[-1]


class TestBasePoint:
    def test_base_points_are_polarized(self):
        for phi in (siegel_type(1), siegel_type(2), weight2_type(2), WEIGHT3):
            dec = decomposition_from_filtration(base_point(phi))
            from periodlab.hodge import verify_polarization
            assert verify_polarization(dec).passed

    def test_form_checked_without_a_second_type(self, monkeypatch):
        phi = weight2_type(19)
        calls = []
        monkeypatch.setattr(hodge, "_integer_det", lambda a: calls.append(a) or 1)
        base_point(phi)
        assert calls == []

    def test_mu_bound(self):
        assert standard_type(1, (MAX_MU // 2, MAX_MU // 2)).mu == MAX_MU
        for m, h in ((2, (1, MAX_MU - 1, 1)), (1, (MAX_MU, MAX_MU)), (2, (1, 1000, 1)),
                     (2, (2, MAX_MU, 2))):
            with pytest.raises(ValidationError, match=f"<= {MAX_MU}"):
                standard_type(m, h)
        big = HodgeType(2, (1, MAX_MU - 1, 1), np.diag([1] * (MAX_MU - 1) + [-1, -1]))
        with pytest.raises(ValidationError, match=f"<= {MAX_MU}"):
            base_point(big)

    def test_unsupported_shape(self):
        phi = HodgeType(2, (2, 1, 2),
                        np.diag([1, -1, -1, 1, -1]).astype(np.int64))
        with pytest.raises(UnsupportedType):
            base_point(phi)


class TestKodairaSpencer:
    def test_quartic_surfaces(self):
        assert kodaira_spencer_count(2, 4) == 19

    def test_cubic_curves(self):
        assert kodaira_spencer_count(1, 3) == 1

    def test_quintic_threefolds(self):
        assert kodaira_spencer_count(3, 5) == 101

    def test_size_bound(self):
        # n and d up to MAX_WEIGHT: the count then has about 600 digits
        assert len(str(kodaira_spencer_count(MAX_WEIGHT, MAX_WEIGHT))) == 601
        for n, d in ((MAX_WEIGHT + 1, 3), (2, MAX_WEIGHT + 1), (10000, 10000)):
            with pytest.raises(ValidationError, match=f"<= {MAX_WEIGHT}"):
                kodaira_spencer_count(n, d)
