"""Run ``periodlab.cli.main`` in a fresh process with the tracer installed.

    python3 perfbench/tracedcli.py SPANS_FILE <periodlab subcommand args...>

Behaves like ``python -m periodlab.cli`` (same output and exit code) and
also writes a pickle to SPANS_FILE: the spans and work counts of the
``main`` call, and the time this process took to import periodlab.
"""

import os
import pickle
import sys
import time

_t_import = time.perf_counter()
from periodlab import cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t_import

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer  # noqa: E402


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.install(tracer.Tracer())
    tr.recording = True
    code = cli.main(argv)
    tr.recording = False
    spans, counters = tr.take()
    with open(spans_file, "wb") as fh:
        pickle.dump({"spans": spans, "counters": counters, "import_s": IMPORT_S}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
