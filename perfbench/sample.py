"""One benchmark sample: a fresh interpreter running `robinsym run` once.

Usage (from the repository root; `run.py` starts it):

    python3 perfbench/sample.py CONFIG OUT_DIR RESULT [--setup-only] [--trace SPANS]

It imports robinsym from `src/`, loads CONFIG with `cli.load_config` and
records `time.perf_counter()` at its return; the parent subtracts its own
clock reading from just before the spawn, which gives `setup_s` (both read
CLOCK_MONOTONIC).  Unless `--setup-only`, it then times the in-process
`cli.run(config, jobs=1)` from call to return, which includes writing
`summary.csv`, `reports.jsonl` and `plots/`.  With `--trace` the layer
tracer is installed before the call and its spans are written to SPANS.
RESULT receives one JSON object.
"""

import io
import json
import os
import resource
import sys
import time
import traceback


def main(argv):
    config_path, out_dir, result_path = argv[:3]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    sys.path.insert(0, os.path.abspath("src"))
    import numpy
    import scipy
    from robinsym import cli

    config = cli.load_config(config_path, output_dir=out_dir)
    result = {"setup_done": time.perf_counter(),
              "robinsym": os.path.dirname(os.path.abspath(cli.__file__)),
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if not setup_only:
        tracer = None
        if spans_path is not None:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            code = cli.run(config, jobs=1, stream=io.StringIO())
        except cli.ConfigError:
            code = 2
        except cli.SolverStageError:
            code = 3
        except Exception:  # a crash is a measured outcome, not a harness error
            code = None
            result["traceback"] = traceback.format_exc()
        result["run_s"] = time.perf_counter() - start
        result["exit"] = code
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write_spans(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
