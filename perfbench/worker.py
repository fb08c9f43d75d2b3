"""Benchmark worker: imports periodlab once and answers calls from run.py.

Run as ``python3 perfbench/worker.py [--trace]`` with ``src`` on
PYTHONPATH. Requests and replies are length-prefixed pickles on
stdin/stdout; a request is ``(op, args, record)`` and ``None`` ends the
worker. Every reply carries the outcome class, the RuntimeWarnings the
call raised and the worker's peak resident memory so far. With ``--trace`` the public functions of each periodlab
module are wrapped (see tracer.py), and the reply to a request with
``record`` set also carries the call's spans and work counts.

The ops are also what ``freeze.py`` calls, in process and with no
deadline, to compute the frozen references.
"""

from __future__ import annotations

import os
import pickle
import resource
import struct
import sys
import time
import warnings

_t_import = time.perf_counter()
import numpy as np  # noqa: E402  (timed together with periodlab)

import periodlab  # noqa: E402
from periodlab import domain, elliptic, gaussmanin, hodge, modular  # noqa: E402
from periodlab import numerics, poincare  # noqa: E402
from periodlab.errors import PeriodLabError  # noqa: E402

IMPORT_S = time.perf_counter() - _t_import

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer as tracer_mod  # noqa: E402

TRACER = tracer_mod.Tracer()


def _cmat(m):
    return [[complex(v) for v in row] for row in np.asarray(m)]


# The Poincare functionals count their own evaluations; the count is a
# no-op unless the tracer is recording.
def _x11_m4(x):
    TRACER.count("functional_evals")
    return x[0, 0] ** (-4.0)


def _one(z):
    TRACER.count("functional_evals")
    return 1.0


def _siegel_psi(g):
    eye = np.eye(g, dtype=np.int64)
    zero = np.zeros((g, g), dtype=np.int64)
    return np.block([[zero, eye], [-eye, zero]])


def _hodge_type(weight, h):
    h = tuple(h)
    if weight == 2:
        psi = np.diag([1] * h[1] + [-1, -1]).astype(np.int64)
    else:
        psi = _siegel_psi(sum(h) // 2)
    return hodge.HodgeType(weight, h, psi)


# --- ops: plain arguments in, plain Python values out ----------------------

def op_period_matrix(t2, t3):
    return _cmat(elliptic.period_matrix((t2, t3)).entries)


def op_transport_reference(t2, t3):
    """Period matrix by transport alone along the default path at tol 1e-12.

    The default path defines the cycle basis, so this is an independent
    route to what period_matrix returns; freeze.py uses it as a cross
    check and as the reference where quadrature gives no answer.
    """
    anchor = elliptic.period_matrix((4.0, 0.0))
    path = elliptic.default_path((t2, t3))
    return _cmat(gaussmanin.transport_entries(path, anchor.entries, tol=1e-12))


def op_monodromy(t2, center, radius, turns):
    m = gaussmanin.monodromy(gaussmanin.circle_loop(t2, center, radius, turns))
    return {"matrix": m.entries.tolist(), "deviation": m.deviation}


def op_transport(waypoints):
    path = numerics.ParamPath(waypoints, discriminant=elliptic.discriminant)
    start = elliptic.period_matrix(tuple(path.start))
    end = gaussmanin.transport(path, start, tol=1e-10)
    quad = elliptic.period_matrix(tuple(path.end))
    return {"transported": _cmat(end.entries), "quadrature": _cmat(quad.entries)}


def op_period_poincare(entries, height):
    report = poincare.period_poincare(_x11_m4, np.array(entries), "lower", height)
    return {"value": complex(report.value), "shells": len(report.heights)}


def op_eisenstein_lattice(k, omega1, omega2):
    return complex(modular.eisenstein_lattice(k, modular.Lattice(omega1, omega2)))


def op_weierstrass_g(omega1, omega2):
    g4, g6 = modular.weierstrass_g(modular.Lattice(omega1, omega2))
    return [complex(g4), complex(g6)]


def op_j_and_q(tau):
    return {
        "j": complex(modular.j_normalized(tau)),
        "q4": complex(modular.eisenstein_q(4, tau)),
        "lattice4": complex(modular.eisenstein_lattice(4, modular.Lattice.from_tau(tau))),
    }


def op_hodge(tau):
    out = []
    for z in (tau, complex(tau).conjugate()):
        _, filt = hodge.elliptic_hs(z)
        report = hodge.verify_polarization(hodge.decomposition_from_filtration(filt))
        out.append([bool(report.first), bool(report.second)])
    return out


def op_uhp(tau, height):
    report = poincare.poincare_series_uhp(_one, 4, height, tau)
    return {"value": complex(report.value), "shells": len(report.heights),
            "converged": bool(report.converged)}


def op_domain_dims(weight, h):
    report = domain.domain_dims(_hodge_type(weight, h))
    return {"lie_dims": list(report.lie_dims), "dim_D": report.dim_D,
            "dim_horizontal": report.dim_horizontal,
            "case": report.hermitian_case.value}


def op_environment():
    """Versions, BLAS thread setting and import time of this worker."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "periodlab": periodlab.__version__,
        "blas": blas,
        "import_s": IMPORT_S,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


OPS = {name[3:]: fn for name, fn in globals().items() if name.startswith("op_")}


def call(op, args):
    """Run one op; return the reply dict (never raises for op errors)."""
    reply = {"status": "ok", "value": None, "error": None}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            reply["value"] = OPS[op](*args)
        except PeriodLabError as exc:
            reply["status"] = "typed"
            reply["error"] = type(exc).__name__
        except Exception as exc:  # run.py counts it as a failure
            reply["status"] = "untyped"
            reply["error"] = f"{type(exc).__name__}: {exc}"
    reply["warnings"] = [str(w.message) for w in caught
                         if issubclass(w.category, RuntimeWarning)]
    return reply


def _read_exact(stream, n):
    data = stream.read(n)
    return data if len(data) == n else None


def serve(traced):
    inp = sys.stdin.buffer
    out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    sys.stdout = sys.stderr  # keep stray prints off the reply channel
    if traced:
        tracer_mod.install(TRACER)
    while True:
        head = _read_exact(inp, 4)
        if head is None:
            return
        request = pickle.loads(_read_exact(inp, struct.unpack(">I", head)[0]))
        if request is None:
            return
        op, args, record = request
        TRACER.recording = traced and record
        reply = call(op, args)
        TRACER.recording = False
        if traced:
            reply["spans"], reply["counters"] = TRACER.take()
        reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        body = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        out.write(struct.pack(">I", len(body)) + body)
        out.flush()


if __name__ == "__main__":
    serve("--trace" in sys.argv[1:])
