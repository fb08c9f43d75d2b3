from types import SimpleNamespace

import pytest

from periodlab import elliptic


def _key(Q):
    return tuple(map(tuple, Q))


@pytest.fixture
def carlson_work(monkeypatch):
    """Run a call and count the Carlson matrices of its basis continuation.

    Returns ``consulted``, the distinct step-point matrices each scan reads
    (``_integer_change``'s second argument), summed over scans; ``scalar``, the
    ``_carlson_matrix`` calls; ``computed``, the points the array kernel
    computed; and ``unused``, the kernel indices (2 j for the end corner of
    moving segment j, 2 j + 1 for its midpoint) of the points the scan never
    read, one list per kernel pass.
    """
    change, kernel, scalar = (elliptic._integer_change, elliptic._carlson_matrices,
                              elliptic._carlson_matrix)

    def run(call):
        scalar_points, passes = [], []

        def spy_change(T, Q):
            passes[-1][-1].add(_key(Q))
            return change(T, Q)

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
        call()
        unused = [[i for i, (pt, Q, ok) in enumerate(zip(points, Qs.tolist(), settled))
                   if (_key(Q) not in read if ok else tuple(pt) not in scalar_points)]
                  for points, Qs, settled, read in passes]
        return SimpleNamespace(consulted=sum(len(p[-1]) for p in passes),
                               scalar=len(scalar_points),
                               computed=sum(len(p[0]) for p in passes), unused=unused)

    return run
