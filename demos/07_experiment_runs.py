"""
Configured experiment runs
==========================

The robinsym command line wraps the whole pipeline: a JSON config names a
domain, a source, a beta sweep, and a list of checks; the runner solves
per (beta, refinement level) cell and writes a summary CSV, JSONL reports,
and plot tables.  Identical configs give byte-identical outputs.  The same
entry points are callable in-process, which is what this script does.
"""

import json
import pathlib
import tempfile

from robinsym import cli

# what can be asked for
cli.list_checks()

# a small sweep: unit square, two betas, one refinement
config = {
    "space": {"kappa": 0, "n": 2},
    "domain": {"kind": "square", "side": 1.0},
    "source": "torsion",
    "beta": [0.5, 2.0],
    "h": 0.15,
    "refine_levels": 1,
    "checks": [
        {"id": "thm1.1", "p": 1.0, "q": 1},
        {"id": "thm1.2-pointwise"},
        {"id": "saint-venant"},
        {"id": "bossel-daners"},
    ],
}

with tempfile.TemporaryDirectory(prefix="robinsym_demo_") as tmp:
    workdir = pathlib.Path(tmp)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    out_dir = workdir / "results"

    code = cli.main(["run", str(cfg_path), "--output-dir", str(out_dir)])
    print(f"\nexit code {code}")

    print("\nsummary.csv:")
    print((out_dir / "summary.csv").read_text())

    print("plot tables:")
    for path in sorted((out_dir / "plots").iterdir()):
        print(f"  {path.name}")

# equivalent shell usage:
#   robinsym list-checks --json
#   robinsym run config.json --output-dir results
#   robinsym mesh gen disk --h 0.05 --radius 1.0 --out disk.json
#   robinsym mesh validate disk.json
