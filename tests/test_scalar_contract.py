"""One scalar contract for the public API.

Every scalar argument is read by ``scalars._number`` (a finite complex number),
``scalars._integer`` (an int; integral floats are accepted, bools refused)
or ``scalars._positive`` (a positive finite float). A malformed scalar
raises ``ValidationError``; an integral float gives what the int gives.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from periodlab.domain import classify_hermitian, kodaira_spencer_count, standard_type
from periodlab.elliptic import period_matrix
from periodlab.errors import NumericalError, ValidationError
from periodlab.gaussmanin import circle_loop, connection_matrix, transport
from periodlab.hodge import (
    HodgeType,
    decomposition_from_filtration,
    elliptic_hs,
    verify_polarization,
)
from periodlab.modular import (
    Lattice,
    eisenstein_lattice,
    eisenstein_q,
    full_modular_weight_check,
    j_q_expansion,
)
from periodlab.numerics import MAX_WEIGHT, ParamPath, nearest_integer_matrix
from periodlab.poincare import (
    PSI2,
    GroupElement,
    classical_factor,
    cocycle_check,
    enumerate_cosets_sl2,
    mean_value_diagnostic,
    period_poincare,
    poincare_series_uhp,
    slash,
)
from periodlab.qseries import bernoulli, eisenstein_normalized, sigma_series


def _one(z):
    return 1.0


def _det(x):
    return x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]


def _x11_m4(x):
    return x[0, 0] ** -4.0


I2 = np.eye(2, dtype=int)
ANCHOR = period_matrix((4.0, 0.0))
SHORT_PATH = ParamPath([[4.0, 0.0], [4.0, 0.01]])


def _decomposition():
    return decomposition_from_filtration(elliptic_hs(0.3 + 1.1j)[1])


# each of these raised TypeError or ValueError, or answered, before the contract
REFUSED = {
    "uhp-weight-str": lambda: poincare_series_uhp(_one, "4", 2, 1j),
    "uhp-weight-none": lambda: poincare_series_uhp(_one, None, 2, 1j),
    "uhp-weight-bool": lambda: poincare_series_uhp(_one, True, 2, 1j),
    "uhp-tau-str": lambda: poincare_series_uhp(_one, 4, 2, "a"),
    "uhp-tau-none": lambda: poincare_series_uhp(_one, 4, 2, None),
    "uhp-tol-str": lambda: poincare_series_uhp(_one, 4, 2, 1j, tol="x"),
    "slash-weight-str": lambda: slash(_one, "4", I2)(1j),
    "mean-center-str": lambda: mean_value_diagnostic(_one, "a", 1.0),
    "mean-radius-str": lambda: mean_value_diagnostic(_one, 0.0, "a"),
    "mean-radius-nan": lambda: mean_value_diagnostic(_one, 0.0, math.nan),
    "mean-grid-str": lambda: mean_value_diagnostic(_one, 0.0, 1.0, grid="8"),
    "mean-grid-half": lambda: mean_value_diagnostic(_one, 0.0, 1.0, grid=2.5),
    "classify-weight-str": lambda: classify_hermitian("1", (1, 1)),
    "classify-h-half": lambda: classify_hermitian(1, (1.5, 1.5)),
    "standard-h-half": lambda: standard_type(1, (1.5, 1.5)),
    "standard-h-scalar": lambda: standard_type(1, 3),
    "cocycle-samples-half": lambda: cocycle_check(classical_factor, samples=2.5),
    "weight-check-str": lambda: full_modular_weight_check(_one, "4"),
    "period-tol-str": lambda: period_poincare(_x11_m4, ANCHOR, "lower", 2, tol="x"),
    "period-seed-half": lambda: period_poincare(_x11_m4, ANCHOR, "lower", 2, seed=1.5),
    "transport-tol-str": lambda: transport(SHORT_PATH, ANCHOR, tol="x"),
    "polarization-tol-str": lambda: verify_polarization(_decomposition(), tol="x"),
    "elliptic-hs-str": lambda: elliptic_hs("a"),
    "elliptic-hs-none": lambda: elliptic_hs(None),
    "nearest-tol-str": lambda: nearest_integer_matrix(I2, "x"),
    "connection-direction-str": lambda: connection_matrix((4.0, 0.0), "ab"),
    # uint64 values past 2^63 - 1, which a cast to int64 wraps to negatives
    "uhp-weight-past-int64": lambda: poincare_series_uhp(_one, 2**64 - 1, 2, 1j),
    "group-entry-past-int64": lambda: GroupElement(
        np.array([[1, 2**63], [0, 1]], dtype=np.uint64), PSI2),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_malformed_scalar_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


INTEGRAL_FLOATS = {
    "bernoulli": bernoulli,
    "j-q-expansion": j_q_expansion,
    "sigma-power": lambda n: sigma_series(n, 6),
    "sigma-terms": lambda n: sigma_series(3, n + 2),
    "coset-height": lambda n: enumerate_cosets_sl2("upper", n),
    "uhp-weight": lambda n: poincare_series_uhp(_one, n, 2, 0.3 + 1.1j),
    "weight-check": lambda n: full_modular_weight_check(
        lambda lat: eisenstein_lattice(4, lat), n, samples=2),
}


@pytest.mark.parametrize("call", INTEGRAL_FLOATS.values(), ids=INTEGRAL_FLOATS.keys())
def test_integral_float_equals_the_int_call(call):
    assert call(4.0) == call(4)


def test_integral_float_loop_equals_the_int_loop():
    a = circle_loop(4, 1.539600717839002, 0.6, turns=2.0, sides=64.0)
    b = circle_loop(4, 1.539600717839002, 0.6, turns=2, sides=64)
    assert np.array_equal(a.waypoints, b.waypoints) and a.clearance == b.clearance


# one weight bound, |k| <= MAX_WEIGHT: each of these answers at the cap and
# refuses the next even weight
WEIGHTED = {
    "lattice": lambda k: eisenstein_lattice(k, Lattice.from_tau(1j)),
    "q": lambda k: eisenstein_q(k, 1j),
    "weight-check": lambda k: full_modular_weight_check(_one, k, samples=2),
    "weight-check-negative": lambda k: full_modular_weight_check(_one, -k, samples=2),
    "uhp": lambda k: poincare_series_uhp(_one, k, 2, 1j),
    "uhp-negative": lambda k: poincare_series_uhp(_one, -k, 1, 0.5j),
    "slash": lambda k: slash(_one, k, [[1, 1], [0, 1]])(1j),
    "slash-negative": lambda k: slash(_one, -k, [[1, 1], [0, 1]])(1j),
    "normalized": lambda k: eisenstein_normalized(k, 3),
}


@pytest.mark.parametrize("call", WEIGHTED.values(), ids=WEIGHTED.keys())
def test_weights_stop_at_the_cap(call):
    assert MAX_WEIGHT == 1000
    call(MAX_WEIGHT)
    with pytest.raises(ValidationError):
        call(MAX_WEIGHT + 2)


def test_huge_weight_no_longer_loses_the_phase():
    with pytest.raises(ValidationError):
        poincare_series_uhp(_one, 2 ** 53, 2, 1j)
    assert abs(poincare_series_uhp(_one, 1000, 2, 1j).value - 2.0) < 1e-12


# --- the property: any scalar in any slot answers or raises a typed error ----

def _integral_above(value, cap):
    """Whether the library would read ``value`` as an integer of modulus above cap."""
    if isinstance(value, (bool, str)) or value is None:
        return False
    z = complex(value)
    return (z.imag == 0 and math.isfinite(z.real) and z.real.is_integer()
            and cap < abs(z.real) <= 2.0 ** 53)


# ints at and beyond the bounds of the contract: small lower bounds, MAX_WEIGHT,
# the exact floats and the int64 range
EDGES = sorted({s * v for s in (1, -1) for v in (0, 1, 2, 3, MAX_WEIGHT, MAX_WEIGHT + 1,
                                                 MAX_WEIGHT + 2, 2 ** 53, 2 ** 53 + 1,
                                                 2 ** 63 - 1, 2 ** 63, 2 ** 64)})


def scalars(low=None, high=None):
    """Booleans, text, None, floats and complex numbers (nan and inf included),
    integers, the ``EDGES`` and numpy integers. A slot that sizes the work draws
    its integers from [low, high] and no integral float or complex number above
    ``high``."""
    ints = st.integers() if high is None else st.integers(low, high)
    edges = st.sampled_from([v for v in EDGES if high is None or v <= high])
    numpy_ints = st.one_of(
        st.one_of(ints, edges).filter(lambda v: -2 ** 63 <= v < 2 ** 63).map(np.int64),
        edges.filter(lambda v: 0 <= v < 2 ** 64).map(np.uint64))
    kinds = st.one_of(st.booleans(), st.text(max_size=4), st.none(), st.floats(),
                      st.complex_numbers(), ints, edges, numpy_ints)
    if high is None:
        return kinds
    return kinds.filter(lambda v: not _integral_above(v, high))


# (id, call of the drawn value, strategy, whether NumericalError is allowed)
SLOTS = [
    ("uhp-weight", lambda x: poincare_series_uhp(_one, x, 2, 0.3 + 1.1j), scalars(), True),
    ("uhp-height", lambda x: poincare_series_uhp(_one, 4, x, 0.3 + 1.1j), scalars(-3, 8),
     False),
    ("uhp-tau", lambda x: poincare_series_uhp(_one, 4, 2, x), scalars(), True),
    ("uhp-tol", lambda x: poincare_series_uhp(_one, 4, 2, 1j, tol=x), scalars(), False),
    ("slash-weight", lambda x: slash(_one, x, [[1, 1], [-1, 0]])(0.3 + 1.1j), scalars(),
     True),
    ("mean-center", lambda x: mean_value_diagnostic(_one, x, 0.5, grid=4), scalars(), True),
    ("mean-radius", lambda x: mean_value_diagnostic(_one, 0.0, x, grid=4), scalars(), True),
    ("mean-grid", lambda x: mean_value_diagnostic(_one, 0.0, 0.5, grid=x), scalars(-3, 16),
     False),
    ("classify-weight", lambda x: classify_hermitian(x, (1, 1)), scalars(), False),
    ("classify-h", lambda x: classify_hermitian(1, (x, x)), scalars(), False),
    ("standard-weight", lambda x: standard_type(x, (1, 1)), scalars(), False),
    ("standard-h", lambda x: standard_type(1, (x, x)), scalars(-3, 4), False),
    ("cocycle-samples", lambda x: cocycle_check(classical_factor, samples=x),
     scalars(-3, 5), False),
    ("cocycle-tol", lambda x: cocycle_check(classical_factor, samples=2, tol=x), scalars(),
     False),
    ("cocycle-seed", lambda x: cocycle_check(classical_factor, samples=2, seed=x),
     scalars(), False),
    ("weight-check-weight", lambda x: full_modular_weight_check(_one, x, samples=2),
     scalars(), True),
    ("weight-check-samples", lambda x: full_modular_weight_check(_one, 4, samples=x),
     scalars(-3, 5), False),
    ("period-height", lambda x: period_poincare(_x11_m4, ANCHOR, "lower", x),
     scalars(-3, 8), False),
    ("period-tol", lambda x: period_poincare(_x11_m4, ANCHOR, "lower", 2, tol=x),
     scalars(), False),
    ("period-seed", lambda x: period_poincare(_det, ANCHOR, "full", 2, seed=x), scalars(),
     False),
    ("transport-tol", lambda x: transport(SHORT_PATH, ANCHOR, tol=x), scalars(), True),
    ("polarization-tol", lambda x: verify_polarization(_decomposition(), tol=x), scalars(),
     False),
    ("elliptic-hs-tau", elliptic_hs, scalars(), True),
    ("nearest-tol", lambda x: nearest_integer_matrix(I2 + 1e-9, x), scalars(), True),
    ("connection-direction", lambda x: connection_matrix((4.0, 0.0), (x, 1.0)), scalars(),
     True),
    ("bernoulli-index", bernoulli, scalars(-3, 40), False),
    ("j-terms", j_q_expansion, scalars(-3, 30), False),
    ("sigma-power", lambda x: sigma_series(x, 6), scalars(-3, 40), False),
    ("sigma-terms", lambda x: sigma_series(3, x), scalars(-3, 40), False),
    ("normalized-weight", lambda x: eisenstein_normalized(x, 4), scalars(-3, 40), False),
    ("loop-sides", lambda x: circle_loop(4, 1.539600717839002, 0.6, sides=x),
     scalars(-3, 200), True),
    ("loop-turns", lambda x: circle_loop(4, 1.539600717839002, 0.6, turns=x),
     scalars(-3, 3), True),
    ("loop-radius", lambda x: circle_loop(4, 1.539600717839002, x), scalars(), True),
    ("coset-height", lambda x: enumerate_cosets_sl2("upper", x), scalars(-3, 8), False),
    ("lattice-weight", lambda x: eisenstein_lattice(x, Lattice.from_tau(1j)),
     scalars(-3, 60), True),
    ("q-weight", lambda x: eisenstein_q(x, 1j), scalars(-3, 60), True),
    ("ks-count-n", lambda x: kodaira_spencer_count(x, 3), scalars(), False),
    ("ks-count-d", lambda x: kodaira_spencer_count(2, x), scalars(-3, 40), False),
    ("hodge-weight", lambda x: HodgeType(x, (1, 1), PSI2), scalars(), False),
]


@pytest.mark.parametrize("call,values,numerical", [s[1:] for s in SLOTS],
                         ids=[s[0] for s in SLOTS])
@settings(derandomize=True, database=None, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_any_scalar_answers_or_raises_a_typed_error(call, values, numerical, data):
    value = data.draw(values, label="value")
    typed = (ValidationError, NumericalError) if numerical else ValidationError
    outcome = _outcome(call, value, typed)
    if type(value) is int and -2 ** 63 <= value < 2 ** 64:
        # an int is read without numpy, its numpy twin by exact_integers
        twin = np.int64(value) if value < 2 ** 63 else np.uint64(value)
        assert _outcome(call, twin, typed) == outcome


def _outcome(call, value, typed):
    """The class of the typed error the call raises, or None if it answers."""
    try:
        call(value)
    except typed as exc:
        return type(exc)
    return None
