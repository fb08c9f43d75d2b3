"""Spans and work counts for periodlab, recorded from outside the package.

``install()`` replaces each traced public function with a wrapper at the
place where its callers look it up (a module attribute, or the name a
module imported with ``from ... import``). The package source is not
touched. A wrapper records one span (name, start, end, parent) per call
and, for the work counts, adds to named counters.

Spans are only recorded while ``Tracer.recording`` is true, so a worker
can warm up untraced and then trace its measured calls.
"""

from __future__ import annotations

import functools
import time

_clock = time.perf_counter


class Tracer:
    """In-memory span list plus named counters for one process."""

    def __init__(self):
        self.recording = False
        self.spans = []      # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def count(self, name, amount=1):
        if self.recording:
            self.counters[name] = self.counters.get(name, 0) + amount

    def take(self):
        """Hand over the spans and counters recorded so far and reset."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], {}
        return spans, counters

    def wrap(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(result)`` may add to counters. A call that raises gets a
        ``<name>!failed`` count.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            tracer.spans.append(span)
            stack.append(index)
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = _clock()
                stack.pop()
                tracer.count(name + "!failed")
                raise
            span[2] = _clock()
            stack.pop()
            if after is not None:
                after(result)
            return result

        # updated=(): a wrapped class must not copy its __dict__ over
        return functools.update_wrapper(traced, fn, updated=())


def _counting_integrand(tracer):
    """``before`` hook for quad_sqrt_singular: count integrand evaluations."""

    def before(args, kwargs):
        integrand = args[0]

        def counted(x):
            tracer.counters["quad_nodes"] = tracer.counters.get("quad_nodes", 0) + 1
            return integrand(x)

        return (counted,) + tuple(args[1:]), kwargs

    return before


def _count_ode_segments(tracer):
    def before(args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.count("ode_segments", sum(1 for _ in path.segments()))
        return args, kwargs

    return before


def _count_terms(tracer):
    def before(args, kwargs):
        n_terms = args[1] if len(args) > 1 else kwargs["n_terms"]
        tracer.count("terms", int(n_terms))
        return args, kwargs

    return before


def install(tracer):
    """Wrap the traced functions of every periodlab module; return the tracer.

    Each entry names the module whose namespace the caller reads, the
    attribute, and the span name. A function imported into several
    modules is wrapped in each of them under one span name.
    """
    from periodlab import cli, domain, elliptic, gaussmanin, hodge
    from periodlab import modular, numerics, poincare

    def waypoints(result):
        tracer.count("path_waypoints", len(result.waypoints))

    def shells(result):
        tracer.count("shells", len(result.heights))

    table = [
        # numerics
        (elliptic, "quad_sqrt_singular", "numerics.quad", _counting_integrand(tracer), None),
        (numerics, "leggauss", "numerics.gauss_rule", None, None),
        (gaussmanin, "integrate_linear_ode", "numerics.ode", _count_ode_segments(tracer), None),
        (numerics, "ParamPath", "numerics.path", None, None),
        (elliptic, "ParamPath", "numerics.path", None, None),
        (gaussmanin, "ParamPath", "numerics.path", None, None),
        (cli, "ParamPath", "numerics.path", None, None),
        # elliptic
        (elliptic, "period_matrix", "elliptic.period", None, None),
        (elliptic, "curve_roots", "elliptic.roots", None, None),
        (elliptic, "default_path", "elliptic.default_path", None, waypoints),
        # gaussmanin
        (gaussmanin, "transport_entries", "gaussmanin.transport", None, None),
        (gaussmanin, "connection_matrix", "gaussmanin.rhs", None, None),
        (gaussmanin, "monodromy", "gaussmanin.monodromy", None, None),
        (gaussmanin, "circle_loop", "gaussmanin.loop", None, None),
        # qseries, as modular reads it
        (modular, "eisenstein_normalized", "qseries.eisenstein", _count_terms(tracer), None),
        # modular
        (modular, "eisenstein_lattice", "modular.lattice", None, None),
        (modular, "eisenstein_q", "modular.q", None, None),
        (modular, "j_normalized", "modular.j", None, None),
        (modular, "weierstrass_g", "modular.weierstrass", None, None),
        # poincare
        (poincare, "period_poincare", "poincare.period_series", None, shells),
        (poincare, "poincare_series_uhp", "poincare.uhp_series", None, shells),
        # hodge and domain
        (hodge, "decomposition_from_filtration", "hodge.decomposition", None, None),
        (hodge, "verify_polarization", "hodge.polarization", None, None),
        (domain, "domain_dims", "domain.dims", None, None),
        # cli
        (cli, "main", "cli.main", None, None),
    ]
    for module, attr, name, before, after in table:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), before, after))
    return tracer


def summarize(spans, counters):
    """Per span name: (calls, self seconds); the counters pass through.

    Self time is a span's duration minus the durations of its direct
    children, which on one thread cover disjoint parts of its interval.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) - child[i])
    return out, dict(counters)
