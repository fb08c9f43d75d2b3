from fractions import Fraction

import mpmath
import pytest

from periodlab.errors import ValidationError
from periodlab.qseries import (
    QSeries,
    bernoulli,
    eisenstein_normalized,
    sigma_series,
)

BAD_TERMS = [0, -3, 2.5, "3", None, True]


class TestConstruction:
    def test_unknown_coefficient_refused(self):
        s = QSeries(0, (1, 2), 2)
        assert s.coefficient(-1) == 0
        assert s.coefficient(1) == 2
        with pytest.raises(ValidationError):
            s.coefficient(2)

    def test_inconsistent_record_refused(self):
        with pytest.raises(ValidationError):
            QSeries(0, (1, 2), 3)
        with pytest.raises(ValidationError):
            QSeries(2, (), 1)


class TestNumberTheory:
    def test_bernoulli(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(1, 2)  # the B-plus convention
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(8) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)
        assert bernoulli(3) == 0

    def test_bernoulli_matches_the_akiyama_tanigawa_sums(self):
        # the tangent-number recurrence against the Akiyama-Tanigawa triangle
        b = []
        for m in range(121):
            b.append(Fraction(1, m + 1))
            for j in range(m, 0, -1):
                b[j - 1] = j * (b[j - 1] - b[j])
            assert bernoulli(m) == b[0]

    def test_bernoulli_at_the_weight_cap(self):
        assert bernoulli(1000) == Fraction(*mpmath.bernfrac(1000))

    def test_sigma_series(self):
        s3 = sigma_series(3, 6)
        assert [s3.coefficient(n) for n in range(1, 6)] == [1, 9, 28, 73, 126]

    def test_eisenstein_normalized_coefficients(self):
        e4 = eisenstein_normalized(4, 5)
        assert [e4.coefficient(n) for n in range(4)] == [1, 240, 2160, 6720]
        e6 = eisenstein_normalized(6, 5)
        assert [e6.coefficient(n) for n in range(4)] == [1, -504, -16632,
                                                         -122976]

    def test_one_term(self):
        assert eisenstein_normalized(4, 1) == QSeries(0, (1,), 1)
        assert sigma_series(3, 1) == QSeries(1, (), 1)

    def test_rational_multiplier(self):
        # -24 / B_12 = 65520 / 691; the coefficients are exact, integral when they can be
        e12 = eisenstein_normalized(12, 3)
        assert e12.coeffs == (1, Fraction(65520, 691), Fraction(65520 * 2049, 691))
        assert all(isinstance(c, int) for c in eisenstein_normalized(4, 8).coeffs)

    @pytest.mark.parametrize("n_terms", BAD_TERMS)
    def test_bad_term_count_refused(self, n_terms):
        with pytest.raises(ValidationError):
            eisenstein_normalized(4, n_terms)
        with pytest.raises(ValidationError):
            sigma_series(3, n_terms)

    @pytest.mark.parametrize("power", [-1, 1.5, "3", None, True])
    def test_bad_power_refused(self, power):
        with pytest.raises(ValidationError):
            sigma_series(power, 5)

    def test_power_zero_counts_divisors(self):
        assert sigma_series(0, 7).coeffs == (1, 2, 2, 3, 2, 4)

    @pytest.mark.parametrize("n", [-1, 2.5, "4", None, True])
    def test_bad_bernoulli_index_refused(self, n):
        with pytest.raises(ValidationError):
            bernoulli(n)

    @pytest.mark.parametrize("k", [0, 3, "4", None, True])
    def test_bad_weight_refused(self, k):
        with pytest.raises(ValidationError):
            eisenstein_normalized(k, 3)

    @pytest.mark.parametrize("call", [bernoulli, lambda k: eisenstein_normalized(k, 3)],
                             ids=["bernoulli", "weight"])
    def test_integral_float_reads_as_int(self, call):
        # one integer rule for the package: 4.0 is the integer 4, True is refused
        assert call(4.0) == call(4)
