"""Start-up contract: a CLI run loads only the scipy it executes.

`robinsym.cli` imports `scipy.sparse`, and nothing else of scipy: the
radial ground state, its root finder and the Saint-Venant quadrature are
numpy, so `scipy.special`, `scipy.optimize`, `scipy.integrate` and
`scipy.interpolate`, more than half of the scipy modules and a good share
of a cold start's time and memory, stay unloaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import robinsym

_UNLOADED = ("scipy.special", "scipy.optimize", "scipy.integrate", "scipy.interpolate")

_SCRIPT = """
import io, json, sys
names = sys.argv[1].split(",")
loaded = lambda: [m for m in names if m in sys.modules]
from robinsym import cli
steps = [["import", 0, loaded()]]
for path in sys.argv[2:]:
    code = cli.run(cli.load_config(path), stream=io.StringIO())
    steps.append([path, code, loaded()])
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


def test_cli_run_leaves_heavy_scipy_unloaded(tmp_path):
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
    assert [code for _, code, _ in steps] == [0, 0, 0]
    for step, _, loaded in steps:
        assert loaded == [], f"{step} loaded {loaded}"
