from types import SimpleNamespace

import pytest

from periodlab import elliptic


def _key(Q):
    return tuple(map(tuple, Q))


@pytest.fixture
def carlson_work(monkeypatch):
    """Run a call and count the Carlson matrices of its basis continuation.

    Returns ``consulted``, the distinct step-point matrices each scan reads
    (``_integer_change``'s second argument, and the end and midpoint matrices
    of the segments ``_unit_steps`` takes), summed over scans; ``scalar``, the
    ``_carlson_matrix`` calls; ``computed``, the points the array kernel
    computed; ``unused``, the kernel indices (2 j for the end corner of
    moving segment j, 2 j + 1 for its midpoint) of the points the scan never
    read, one list per kernel pass; and ``unit_segments``, the segments
    ``_unit_steps`` took.
    """
    change, kernel, scalar, unit_steps = (elliptic._integer_change, elliptic._carlson_matrices,
                                          elliptic._carlson_matrix, elliptic._unit_steps)

    def run(call):
        scalar_points, passes, taken = [], [], []

        def spy_change(T, Q):
            passes[-1][-1].add(_key(Q))
            return change(T, Q)

        def spy_unit_steps(N, Q, points):
            Ns = unit_steps(N, Q, points)
            passes[-1][-1].update(_key(P) for P in points[:2 * len(Ns)].tolist())
            taken.append(len(Ns))
            return Ns

        def spy_kernel(points):  # one pass per scan, before it
            Qs, settled = kernel(points)
            passes.append((points, Qs, settled, set()))
            return Qs, settled

        def spy_scalar(t):
            scalar_points.append(tuple(t))
            return scalar(t)

        monkeypatch.setattr(elliptic, "_integer_change", spy_change)
        monkeypatch.setattr(elliptic, "_carlson_matrices", spy_kernel)
        monkeypatch.setattr(elliptic, "_carlson_matrix", spy_scalar)
        monkeypatch.setattr(elliptic, "_unit_steps", spy_unit_steps)
        call()
        unused = [[i for i, (pt, Q, ok) in enumerate(zip(points, Qs.tolist(), settled))
                   if (_key(Q) not in read if ok else tuple(pt) not in scalar_points)]
                  for points, Qs, settled, read in passes]
        return SimpleNamespace(consulted=sum(len(p[-1]) for p in passes),
                               scalar=len(scalar_points),
                               computed=sum(len(p[0]) for p in passes), unused=unused,
                               unit_segments=sum(taken))

    return run
