"""Command-line front end.

Every subcommand prints a single JSON object (inputs echoed, values,
diagnostics) or, with ``--sweep flag=start:stop:count``, CSV rows over a
real grid in one flag. Complex numbers serialize as two-element arrays
[re, im] and matrices as row-major nested arrays, so any value parses
back losslessly. Exit codes: 0 success, 2 rejected input, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import domain as domain_mod
from . import elliptic, gaussmanin, hodge, modular, poincare
from .errors import NumericalError, ValidationError
from .numerics import DEFAULT_TOL, ParamPath


def parse_complex(text):
    """Read '1.5', 'i', '0.3+1.1i', '2j', '-i' style complex literals."""
    s = str(text).strip().replace(" ", "").replace("I", "i").replace("i", "j")
    if s in ("j", "+j"):
        s = "1j"
    elif s == "-j":
        s = "-1j"
    else:
        s = s.replace("+j", "+1j").replace("-j", "-1j")
    try:
        return complex(s)
    except ValueError:
        raise ValidationError(f"cannot parse complex number {text!r}")


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def _cmat(m):
    return [[_c(v) for v in row] for row in np.asarray(m)]


def _imat(m):
    return [[int(v) for v in row] for row in np.asarray(m)]


def _json_to_complex(leaf):
    if isinstance(leaf, (int, float)):
        return complex(leaf)
    if isinstance(leaf, str):
        return parse_complex(leaf)
    if isinstance(leaf, list) and len(leaf) == 2 and all(
        isinstance(v, (int, float)) for v in leaf
    ):
        return complex(leaf[0], leaf[1])
    raise ValidationError(f"expected a complex value, got {leaf!r}")


def _json_to_cmatrix(rows):
    return np.array([[_json_to_complex(v) for v in row] for row in rows])


def _resolve_tol(args):
    if args.tol is not None:
        return args.tol
    env = os.environ.get("PERIODLAB_TOL")
    if env:
        try:
            tol = float(env)
        except ValueError:
            raise ValidationError(f"PERIODLAB_TOL={env!r} is not a number")
        if not tol > 0:
            raise ValidationError("PERIODLAB_TOL must be positive")
        return tol
    return DEFAULT_TOL


# ---------------------------------------------------------------------------
# subcommand handlers, each mapping parsed args to a plain dict


def cmd_periods(args):
    tol = _resolve_tol(args)
    t = (args.t2, args.t3)
    pm = elliptic.period_matrix(t, tol)
    target = elliptic.SIGMA * 2j * np.pi
    return {
        "command": "periods",
        "inputs": {"t2": _c(args.t2), "t3": _c(args.t3), "tol": tol},
        "matrix": _cmat(pm.entries),
        "det": _c(pm.det),
        "tau": _c(pm.tau),
        "diagnostics": {"det_deviation": abs(pm.det - target), "sigma": elliptic.SIGMA},
    }


def cmd_tau(args):
    tol = _resolve_tol(args)
    value = elliptic.period_map_tau((args.t2, args.t3), tol)
    return {
        "command": "tau",
        "inputs": {"t2": _c(args.t2), "t3": _c(args.t3), "tol": tol},
        "tau": _c(value),
    }


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from None


def _load_path_file(path):
    data = _read_json(path)
    loop = data.get("loop") if isinstance(data, dict) else None
    if loop is None and not isinstance(data, list):
        raise ValidationError("path file must be a waypoint array or a loop object")
    try:
        if loop is not None:
            t2, center = _json_to_complex(loop["t2"]), _json_to_complex(loop["center"])
            radius, turns = float(loop["radius"]), loop.get("turns", 1)
        else:
            waypoints = [[_json_to_complex(t2), _json_to_complex(t3)] for t2, t3 in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed path file: {type(exc).__name__}: {exc}") from None
    if loop is not None:
        return gaussmanin.circle_loop(t2, center, radius, turns=turns)
    return ParamPath(waypoints, discriminant=elliptic.discriminant)


def cmd_pf_transport(args):
    tol = _resolve_tol(args)
    path = _load_path_file(args.path_file)
    start = tuple(path.start)
    end = tuple(path.end)
    pm_start = elliptic.period_matrix(start, tol)
    pm_end = gaussmanin.transport(path, pm_start, tol)
    quad_end = elliptic.period_matrix(end, tol)
    dev = float(np.max(np.abs(pm_end.entries - quad_end.entries)))
    return {
        "command": "pf-transport",
        "inputs": {"path_file": args.path_file, "waypoints": len(path.waypoints),
                   "tol": tol},
        "start": _cmat(pm_start.entries),
        "end": _cmat(pm_end.entries),
        "end_quadrature": _cmat(quad_end.entries),
        "diagnostics": {
            "det_drift": abs(pm_end.det - pm_start.det),
            "max_entry_deviation_vs_quadrature": dev,
        },
    }


def cmd_monodromy(args):
    tol = _resolve_tol(args)
    loop = gaussmanin.circle_loop(args.t2, args.center, args.radius,
                                  turns=args.turns)
    m = gaussmanin.monodromy(loop, tol=tol)
    return {
        "command": "monodromy",
        "inputs": {"t2": _c(args.t2), "center": _c(args.center),
                   "radius": args.radius, "turns": args.turns, "tol": tol},
        "matrix": _imat(m.entries),
        "trace": m.trace,
        "diagnostics": {"integer_deviation": m.deviation},
    }


def cmd_eisenstein(args):
    tol = _resolve_tol(args)
    if args.tau is None and (args.omega1 is None or args.omega2 is None):
        raise ValidationError("eisenstein needs --tau or both --omega1 and --omega2")
    if args.tau is not None:
        lat = modular.Lattice(args.tau, 1.0)
    else:
        lat = modular.Lattice(args.omega1, args.omega2)
    value = modular.eisenstein_lattice(args.k, lat, tol)
    out = {
        "command": "eisenstein",
        "inputs": {"k": args.k, "omega1": _c(lat.omega1), "omega2": _c(lat.omega2),
                   "tol": tol},
        "value": _c(value),
        "diagnostics": {},
    }
    if args.tau is not None:
        via_q = modular.eisenstein_q(args.k, args.tau)
        out["value_q"] = _c(via_q)
        out["diagnostics"]["cross_method_deviation"] = abs(value - via_q)
    return out


def cmd_j(args):
    value = modular.j_normalized(args.tau)
    return {
        "command": "j",
        "inputs": {"tau": _c(args.tau)},
        "value_normalized": _c(value),
        "value_1728": _c(1728.0 * value),
    }


def cmd_j_qexp(args):
    series = modular.j_q_expansion(args.terms)
    return {
        "command": "j-qexp",
        "inputs": {"terms": args.terms},
        "low": series.low,
        "coefficients": [int(c) for c in series.coeffs],
    }


def _filtration_from_file(path):
    data = _read_json(path)
    if isinstance(data, dict) and "tau" in data:
        _, filt = hodge.elliptic_hs(_json_to_complex(data["tau"]))
        return filt
    try:
        phi = hodge.HodgeType(int(data["m"]), tuple(int(v) for v in data["h"]),
                              np.array(data["psi"], dtype=np.int64))
        levels = [_json_to_cmatrix(level) for level in data["levels"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"point file is missing required fields: {exc}")
    return hodge.HodgeFiltration.from_levels(phi, levels)


def cmd_hodge_check(args):
    tol = _resolve_tol(args)
    filt = _filtration_from_file(args.point_file)
    dec = hodge.decomposition_from_filtration(filt)
    pol = hodge.verify_polarization(dec, tol)
    real = hodge.real_structure(dec)
    return {
        "command": "hodge-check",
        "inputs": {"point_file": args.point_file, "weight": filt.phi.m,
                   "h": list(filt.phi.h), "tol": tol},
        "first_relation": pol.first,
        "second_relation": pol.second,
        "passed": pol.passed,
        "diagnostics": {
            "max_cross_pairing": pol.max_cross_pairing,
            "min_positivity": pol.min_positivity,
            "real_structure_passed": real.passed,
            "real_clause_violations": {k: float(v) for k, v in
                                       real.clause_violations.items()},
        },
    }


def cmd_domain_dims(args):
    h = tuple(int(v) for v in args.hodge_numbers.split(","))
    phi = domain_mod.standard_type(args.weight, h)
    report = domain_mod.domain_dims(phi)
    return {
        "command": "domain-dims",
        "inputs": {"weight": args.weight, "hodge_numbers": list(h)},
        "dim_D": report.dim_D,
        "dim_compact_dual": report.dim_compact_dual,
        "dim_horizontal": report.dim_horizontal,
        "dim_F0_lie": report.dim_F0_lie,
        "hermitian_case": str(report.hermitian_case.value),
        "lie_dims": list(report.lie_dims),
    }


def cmd_ks_count(args):
    return {
        "command": "ks-count",
        "inputs": {"n": args.n, "d": args.d},
        "m": domain_mod.kodaira_spencer_count(args.n, args.d),
    }


_FUNCTIONALS = {
    "det": (lambda x: x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0], "full"),
    "x11^-4": (lambda x: x[0, 0] ** (-4.0), "lower"),
}


def cmd_poincare(args):
    tol = _resolve_tol(args)
    functional, stabilizer = _FUNCTIONALS[args.functional]
    pm = elliptic.period_matrix((args.t2, args.t3), tol)
    report = poincare.period_poincare(functional, pm, stabilizer, args.height,
                                      tol=args.series_tol, seed=args.seed)
    out = {
        "command": "poincare",
        "inputs": {"functional": args.functional, "t2": _c(args.t2),
                   "t3": _c(args.t3), "height": args.height,
                   "series_tol": args.series_tol, "tol": tol},
        "value": _c(report.value),
        "converged": report.converged,
        "diagnostics": {
            "shells": len(report.heights),
            "tail_estimate": report.tail_estimate,
        },
    }
    if args.functional == "x11^-4":
        lat = modular.Lattice(*pm.lattice_basis())
        e4 = modular.eisenstein_lattice(4, lat, tol)
        out["diagnostics"]["eisenstein_ratio"] = _c(report.value / e4)
    return out


def cmd_khodaya(args):
    tol = _resolve_tol(args)
    k = elliptic.KhodayaPoint(args.t0, args.t1, args.t2, args.t3)
    pm = elliptic.khodaya_period_matrix(k, tol)
    reduced, scale = elliptic.reduce_khodaya(k)
    expected = elliptic.SIGMA * 2j * np.pi / args.t0
    return {
        "command": "khodaya",
        "inputs": {"t0": _c(args.t0), "t1": _c(args.t1), "t2": _c(args.t2),
                   "t3": _c(args.t3), "tol": tol},
        "matrix": _cmat(pm.entries),
        "det": _c(pm.det),
        "reduced": {"t2": _c(reduced.t2), "t3": _c(reduced.t3),
                    "scale": _c(scale)},
        "diagnostics": {"det_deviation": abs(pm.det - expected)},
    }


_HANDLERS = {
    "periods": cmd_periods,
    "tau": cmd_tau,
    "pf-transport": cmd_pf_transport,
    "monodromy": cmd_monodromy,
    "eisenstein": cmd_eisenstein,
    "j": cmd_j,
    "j-qexp": cmd_j_qexp,
    "hodge-check": cmd_hodge_check,
    "domain-dims": cmd_domain_dims,
    "ks-count": cmd_ks_count,
    "poincare": cmd_poincare,
    "khodaya": cmd_khodaya,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="periodlab",
        description="Periods, Picard-Fuchs transport, modular forms, Hodge "
                    "structure checks, and Poincare series, emitted as JSON.",
    )
    parser.add_argument("--tol", type=float, default=None,
                        help="working tolerance (default: PERIODLAB_TOL or 1e-10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for any sampled validation")
    parser.add_argument("--output", default=None, help="write to a file instead of stdout")
    parser.add_argument("--sweep", default=None, metavar="FLAG=START:STOP:COUNT",
                        help="rerun over a real grid in one flag and emit CSV rows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periods", help="2x2 period matrix at (t2, t3)")
    p.add_argument("--t2", type=parse_complex, required=True)
    p.add_argument("--t3", type=parse_complex, required=True)

    p = sub.add_parser("tau", help="period ratio at (t2, t3)")
    p.add_argument("--t2", type=parse_complex, required=True)
    p.add_argument("--t3", type=parse_complex, required=True)

    p = sub.add_parser("pf-transport", help="transport periods along a path file")
    p.add_argument("--path-file", required=True,
                   help="JSON waypoint array [[t2,t3],...] with [re,im] entries, "
                        "or {\"loop\": {\"t2\":..., \"center\":..., \"radius\":..., \"turns\":...}}")

    p = sub.add_parser("monodromy", help="integer monodromy around a t3-plane circle")
    p.add_argument("--t2", type=parse_complex, required=True)
    p.add_argument("--center", type=parse_complex, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--turns", type=int, default=1)

    p = sub.add_parser("eisenstein", help="weight-k lattice sum")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tau", type=parse_complex, default=None)
    p.add_argument("--omega1", type=parse_complex, default=None)
    p.add_argument("--omega2", type=parse_complex, default=None)

    p = sub.add_parser("j", help="j at tau, both normalizations")
    p.add_argument("--tau", type=parse_complex, required=True)

    p = sub.add_parser("j-qexp", help="integer q-expansion of 1728 j")
    p.add_argument("--terms", type=int, required=True)

    p = sub.add_parser("hodge-check", help="Riemann relations at a filtration point")
    p.add_argument("--point-file", required=True,
                   help="JSON {\"tau\": ...} or {\"m\", \"h\", \"psi\", \"levels\"}")

    p = sub.add_parser("domain-dims", help="period domain dimensions for a type")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--hodge-numbers", required=True, help="comma-separated, e.g. 1,1")

    p = sub.add_parser("ks-count", help="effective parameter count for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("poincare", help="period Poincare series of a functional")
    p.add_argument("--functional", choices=sorted(_FUNCTIONALS), required=True)
    p.add_argument("--t2", type=parse_complex, default=4.0 + 0j)
    p.add_argument("--t3", type=parse_complex, default=0j)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--series-tol", type=float, default=1e-6)

    p = sub.add_parser("khodaya", help="period matrix of the four-coefficient family")
    p.add_argument("--t0", type=parse_complex, required=True)
    p.add_argument("--t1", type=parse_complex, required=True)
    p.add_argument("--t2", type=parse_complex, required=True)
    p.add_argument("--t3", type=parse_complex, required=True)

    return parser


def _flatten(obj, prefix=""):
    out = {}
    if isinstance(obj, dict):
        for key in obj:
            out.update(_flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            out.update(_flatten(val, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = obj
    return out


def _parse_sweep(text):
    try:
        flag, grid = text.split("=", 1)
        lo, hi, count = grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValidationError(
            f"--sweep expects FLAG=START:STOP:COUNT, got {text!r}")
    if count < 1:
        raise ValidationError("sweep count must be at least 1")
    return flag.lstrip("-").replace("-", "_"), np.linspace(lo, hi, count)


def _run_sweep(args, handler):
    attr, grid = _parse_sweep(args.sweep)
    if not hasattr(args, attr) or attr in ("sweep", "output", "command"):
        raise ValidationError(f"cannot sweep over flag {attr!r}")
    original = getattr(args, attr)
    rows = []
    for value in grid:
        cast = value if not isinstance(original, complex) else complex(value)
        if isinstance(original, int) and not isinstance(original, bool):
            cast = int(round(value))
        setattr(args, attr, cast)
        rows.append(_flatten(handler(args)))
    columns = sorted(set().union(*[set(r) for r in rows]))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def main(argv=None):
    parser = build_parser()
    try:
        # parse_complex raises ValidationError from inside parse_args
        args = parser.parse_args(argv)
        handler = _HANDLERS[args.command]
        if args.sweep:
            text = _run_sweep(args, handler)
        else:
            text = json.dumps(handler(args), sort_keys=True, indent=2) + "\n"
    except ValidationError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
