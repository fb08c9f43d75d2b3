from types import SimpleNamespace

import pytest

from periodlab import elliptic


@pytest.fixture
def braid_work(monkeypatch):
    """Run a call and count the work of its braid walks.

    Returns ``samples``, the root samples the walks take (``_roots`` calls
    inside ``_braid``), ``swaps``, the letters of their braid words, and
    ``walks``, the number of walks, each summed over the call.
    """
    roots, braid = elliptic._roots, elliptic._braid

    def run(call):
        work, inside = SimpleNamespace(samples=0, swaps=0, walks=0), []

        def spy_roots(p):
            work.samples += bool(inside)
            return roots(p)

        def spy_braid(waypoints):
            inside.append(True)
            try:
                start, word, end = braid(waypoints)
            finally:
                inside.pop()
            work.swaps += len(word)
            work.walks += 1
            return start, word, end

        monkeypatch.setattr(elliptic, "_roots", spy_roots)
        monkeypatch.setattr(elliptic, "_braid", spy_braid)
        call()
        return work

    return run
