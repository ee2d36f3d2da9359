"""Start-up contract: a CLI run imports no scipy subpackage, and no module
that it does not execute.

`robinsym.cli` loads two pieces of scipy, the extension modules of SuperLU
and of the sparse mat-vec, which `fem` finds by their file locations in the
installed scipy.  Importing them through `scipy.sparse` would load scipy's
array-API layer, which imports `numpy.f2py`, `numpy.testing`, `numpy.ma`
and `numpy.random` besides: more than half of a cold start's time and
memory.
The radial ground state, its root finder and the Saint-Venant quadrature
are numpy, so `scipy.special`, `scipy.optimize`, `scipy.integrate` and
`scipy.interpolate` stay unloaded too.
Nor does a run load what only other entry points use: the Gauss-Legendre
rules are robinsym's own, so `numpy.polynomial` stays unloaded; `argparse`
is imported by the command line's parser alone; and `concurrent.futures`
by a run with `--jobs > 1` alone, the one run that may load it.

`cli.run` itself imports nothing under `--jobs 1`: a module loaded on
first use inside the run (as `numpy.ma` is by a flagless `np.unique`)
would land in the run's time.  For the same reason the import leaves no
BLAS thread pool spinning.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robinsym
from robinsym import fem

_UNLOADED = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg", "scipy.special",
             "scipy.optimize", "scipy.integrate", "scipy.interpolate",
             "numpy.polynomial", "argparse", "concurrent.futures")

_SCRIPT = """
import io, json, sys
names = sys.argv[1].split(",")
loaded = lambda: [m for m in names if m in sys.modules]
from robinsym import cli
steps = [["import", 0, loaded(), []]]
for path in sys.argv[2:]:
    config = cli.load_config(path)
    before = set(sys.modules)
    code = cli.run(config, stream=io.StringIO())
    steps.append([path, code, loaded(), sorted(set(sys.modules) - before)])
print(json.dumps(steps))
"""


def _config(tmp_path, name, space, domain):
    doc = {"space": space, "domain": domain, "source": "torsion",
           "beta": [1.0], "h": 0.2, "refine_levels": 0,
           "checks": [{"id": "bossel-daners"}, {"id": "saint-venant"}],
           "output_dir": str(tmp_path / name)}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _steps(tmp_path):
    """[step, exit code, the _UNLOADED modules loaded, the modules the step
    added] for the import and a `--jobs 1` run of the square and the cap
    config, in one fresh interpreter."""
    configs = [
        _config(tmp_path, "square", {"kappa": 0, "n": 2},
                {"kind": "square", "side": 1.0}),
        _config(tmp_path, "cap", {"kappa": 1, "n": 2},
                {"kind": "spherical_cap", "theta": 1.0}),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(robinsym.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _SCRIPT, ",".join(_UNLOADED), *configs],
                          env=env, capture_output=True, text=True, check=True)
    steps = json.loads(done.stdout.splitlines()[-1])
    assert [code for _, code, _, _ in steps] == [0, 0, 0]
    return steps


def test_cli_run_leaves_heavy_scipy_unloaded(tmp_path):
    for step, _, loaded, _ in _steps(tmp_path):
        assert loaded == [], f"{step} loaded {loaded}"


def test_cli_run_imports_nothing(tmp_path):
    for step, _, _, added in _steps(tmp_path)[1:]:
        assert added == [], f"{step} imported {added}"


_THREADS = """
import os
count = lambda: len(os.listdir("/proc/self/task"))
import numpy
before = count()
from robinsym import cli
print(before, count())
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_import_leaves_no_blas_pool_running():
    # the OpenBLAS that SuperLU's extension links starts a pool when it
    # loads, whose idle worker spins a core for about 0.1 s; fem stops it
    env = dict(os.environ, PYTHONPATH=str(Path(robinsym.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    done = subprocess.run([sys.executable, "-c", _THREADS], env=env, capture_output=True,
                          text=True, check=True)
    before, after = map(int, done.stdout.split())
    assert after == before


def test_extensions_are_the_public_scipy_files():
    # found by file location, each is the file the public import loads, and
    # the module registered under its name is shared
    from scipy.sparse import _sparsetools
    from scipy.sparse.linalg._dsolve import _superlu
    assert fem._superlu.__file__ == _superlu.__file__
    assert fem.gstrf is _superlu.gstrf
    assert fem._sparsetools.__file__ == _sparsetools.__file__
    assert fem._sparsetools is _sparsetools
