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

The public names below are read from their submodules on first use (PEP
562), so ``import periodlab`` is cheap and a process loads only the
submodules it touches; ``qseries`` and ``scalars`` do not import numpy.
"""

import importlib

__version__ = "0.1.0"

# Each library submodule and the public names it defines.
_EXPORTS = {
    "errors": """ClearanceViolation DegenerateFiltration NearCusp NearDiscriminant NonConvergent
        NonFiniteRHS NonIntegralMonodromy NotInGroup NumericalError PeriodLabError RankDeficient
        RealTau SizeMismatch StabilizerMismatch StepUnderflow UnsupportedType ValidationError
        ZeroLambda ZeroT0""",
    "scalars": "DEFAULT_TOL",
    "numerics": "ParamPath integrate_linear_ode nearest_integer_matrix quad_sqrt_singular",
    "elliptic": """SIGMA KhodayaPoint PeriodMatrix2 WeierstrassPoint curve_roots default_path
        discriminant khodaya_period_matrix period_map_tau period_matrix reduce_khodaya
        scale_action tau_to_upper""",
    "gaussmanin": "MonodromyMatrix circle_loop connection_matrix monodromy transport",
    "qseries": """QSeries bernoulli eisenstein_normalized j_q_expansion kodaira_spencer_count
        sigma_series""",
    "modular": """G6_SIGN Lattice WeightCheckReport eisenstein_lattice eisenstein_q
        full_modular_weight_check j_normalized weierstrass_g""",
    "hodge": """HodgeDecomposition HodgeFiltration HodgeType PolarizationReport RealHodgeData
        decomposition_from_filtration elliptic_hs filtration_from_decomposition
        group_element_action jacobian_lattice real_structure verify_polarization weil_operator""",
    "domain": """DomainReport HermitianCase base_point classify_hermitian domain_dims
        lie_filtration_dims standard_type""",
    "poincare": """CosetFamily GroupElement MeanValueReport PartialSumsReport classical_factor
        cocycle_check enumerate_cosets_sl2 is_in_gamma mean_value_diagnostic moebius
        period_poincare poincare_series_uhp slash""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the submodule that defines ``name`` (or is ``name``) on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
