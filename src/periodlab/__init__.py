"""Numerical periods of elliptic families, their differential equations,
and the surrounding modular / Hodge-theoretic machinery.

The pieces fit together as follows: ``elliptic`` computes period
matrices of y^2 = 4x^3 - t2 x - t3 from Carlson's symmetric integrals,
with the cycle basis continued from an anchor along ``default_path`` by
the braid of the curve's roots, ``gaussmanin`` moves them around
parameter space by integrating the Gauss-Manin connection
(``connection_matrix`` is the right-hand side of
``numerics.integrate_linear_ode``) and gives the monodromy of loops by
the same continuation, ``modular`` inverts the
construction through Eisenstein series and j, ``hodge`` and ``domain``
handle the linear-algebra side (filtrations, Riemann relations, period
domain dimensions), and ``poincare`` averages functionals over the
integer symplectic group. ``cli`` exposes all of it as subcommands.
"""

from .errors import (
    ClearanceViolation,
    DegenerateFiltration,
    NearCusp,
    NearDiscriminant,
    NonConvergent,
    NonFiniteRHS,
    NonIntegralMonodromy,
    NotInGroup,
    NumericalError,
    PeriodLabError,
    RankDeficient,
    RealTau,
    SizeMismatch,
    StabilizerMismatch,
    StepUnderflow,
    UnsupportedType,
    ValidationError,
    ZeroLambda,
    ZeroT0,
)
from .numerics import (
    DEFAULT_TOL,
    ParamPath,
    integrate_linear_ode,
    nearest_integer_matrix,
    quad_sqrt_singular,
)
from .elliptic import (
    SIGMA,
    KhodayaPoint,
    PeriodMatrix2,
    WeierstrassPoint,
    curve_roots,
    default_path,
    discriminant,
    khodaya_period_matrix,
    period_map_tau,
    period_matrix,
    reduce_khodaya,
    scale_action,
    tau_to_upper,
)
from .gaussmanin import (
    MonodromyMatrix,
    circle_loop,
    connection_matrix,
    monodromy,
    transport,
)
from .qseries import QSeries, bernoulli, eisenstein_normalized, sigma_series
from .modular import (
    G6_SIGN,
    Lattice,
    WeightCheckReport,
    eisenstein_lattice,
    eisenstein_q,
    full_modular_weight_check,
    j_normalized,
    j_q_expansion,
    weierstrass_g,
)
from .hodge import (
    HodgeDecomposition,
    HodgeFiltration,
    HodgeType,
    PolarizationReport,
    RealHodgeData,
    decomposition_from_filtration,
    elliptic_hs,
    filtration_from_decomposition,
    group_element_action,
    jacobian_lattice,
    real_structure,
    verify_polarization,
    weil_operator,
)
from .domain import (
    DomainReport,
    HermitianCase,
    base_point,
    classify_hermitian,
    domain_dims,
    kodaira_spencer_count,
    lie_filtration_dims,
    standard_type,
)
from .poincare import (
    CosetFamily,
    GroupElement,
    MeanValueReport,
    PartialSumsReport,
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

__version__ = "0.1.0"
