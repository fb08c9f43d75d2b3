import ast
import os
import subprocess
import sys
import types

import pytest

import periodlab

SRC = os.path.dirname(os.path.dirname(periodlab.__file__))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# The public non-module names of the package: an addition or a removal is an
# edit here, in the same change.
PUBLIC_API = [
    "ClearanceViolation",
    "CosetFamily",
    "DEFAULT_TOL",
    "DegenerateFiltration",
    "DomainReport",
    "G6_SIGN",
    "GroupElement",
    "HermitianCase",
    "HodgeDecomposition",
    "HodgeFiltration",
    "HodgeType",
    "KhodayaPoint",
    "Lattice",
    "MeanValueReport",
    "MonodromyMatrix",
    "NearCusp",
    "NearDiscriminant",
    "NonConvergent",
    "NonFiniteRHS",
    "NonIntegralMonodromy",
    "NotInGroup",
    "NumericalError",
    "ParamPath",
    "PartialSumsReport",
    "PeriodLabError",
    "PeriodMatrix2",
    "PolarizationReport",
    "QSeries",
    "RankDeficient",
    "RealHodgeData",
    "RealTau",
    "SIGMA",
    "SizeMismatch",
    "StabilizerMismatch",
    "StepUnderflow",
    "UnsupportedType",
    "ValidationError",
    "WeierstrassPoint",
    "WeightCheckReport",
    "ZeroLambda",
    "ZeroT0",
    "base_point",
    "bernoulli",
    "circle_loop",
    "classical_factor",
    "classify_hermitian",
    "cocycle_check",
    "connection_matrix",
    "curve_roots",
    "decomposition_from_filtration",
    "default_path",
    "discriminant",
    "domain_dims",
    "eisenstein_lattice",
    "eisenstein_normalized",
    "eisenstein_q",
    "elliptic_hs",
    "enumerate_cosets_sl2",
    "filtration_from_decomposition",
    "full_modular_weight_check",
    "group_element_action",
    "integrate_linear_ode",
    "is_in_gamma",
    "j_normalized",
    "j_q_expansion",
    "jacobian_lattice",
    "khodaya_period_matrix",
    "kodaira_spencer_count",
    "lie_filtration_dims",
    "mean_value_diagnostic",
    "moebius",
    "monodromy",
    "nearest_integer_matrix",
    "period_map_tau",
    "period_matrix",
    "period_poincare",
    "poincare_series_uhp",
    "quad_sqrt_singular",
    "real_structure",
    "reduce_khodaya",
    "scale_action",
    "sigma_series",
    "slash",
    "standard_type",
    "tau_to_upper",
    "transport",
    "verify_polarization",
    "weierstrass_g",
    "weil_operator",
]


def _src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_import_loads_no_scipy():
    code = "import sys, periodlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv,absent", [
    (["ks-count", "--n", "2", "--d", "4"], ["numpy"]),
    (["j-qexp", "--terms", "6"], ["numpy"]),
    (["periods", "--t2", "4", "--t3", "0"],
     ["periodlab.hodge", "periodlab.poincare", "periodlab.domain"]),
], ids=["ks-count", "j-qexp", "periods"])
def test_cold_subcommand_imports_only_what_it_runs(argv, absent):
    code = ("import sys\nfrom periodlab.cli import main\ncode = main(sys.argv[1:])\n"
            "print(sorted(sys.modules), file=sys.stderr)\nsys.exit(code)")
    run = subprocess.run([sys.executable, "-c", code, *argv], env=_src_env(),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = ast.literal_eval(run.stderr.splitlines()[-1])
    assert "periodlab.errors" in loaded
    assert not [m for m in loaded if m in absent or m.split(".")[0] in absent]


def test_benchmark_tracer_finds_every_name():
    """perfbench/tracer.py wraps package functions by module attribute name;
    a renamed or deleted one would only show up under --trace."""
    env = dict(_src_env(), PYTHONDONTWRITEBYTECODE="1")
    code = "import tracer, worker; tracer.install(tracer.Tracer())"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=PERFBENCH,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_public_api_is_the_frozen_list():
    names = [n for n in dir(periodlab)
             if not n.startswith("_") and not isinstance(getattr(periodlab, n), types.ModuleType)]
    assert sorted(names) == PUBLIC_API
