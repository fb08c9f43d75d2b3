import os
import subprocess
import sys

import periodlab

SRC = os.path.dirname(os.path.dirname(periodlab.__file__))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_import_loads_no_scipy():
    code = "import sys, periodlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_benchmark_tracer_finds_every_name():
    """perfbench/tracer.py wraps package functions by module attribute name;
    a renamed or deleted one would only show up under --trace."""
    env = dict(_src_env(), PYTHONDONTWRITEBYTECODE="1")
    code = "import tracer, worker; tracer.install(tracer.Tracer())"
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=PERFBENCH,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
