"""End-to-end benchmark of `robinsym run` on three fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload square-radial --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Every sample is a fresh interpreter (`perfbench/sample.py`) that imports
robinsym from `src/`, loads the workload config and calls `cli.run` with
`--jobs 1`.  Samples run one after another, so the load comes from a single
process at a time; BLAS pools keep the environment's thread settings, which
the report records (pinning them to one thread changes last digits, and with
them which rows skip and whether the probe's known false FAIL shows).  One
set-up-only warm-up sample per run is discarded; it compiles the bytecode
and fills the page cache.  Samples are taken until the next one would end
past `--seconds`.

`--trace 0` reports the end-to-end metrics:

* `run_s`: median seconds from the call into `cli.run` to its return;
* `setup_s`: median seconds from process spawn to the return of
  `cli.load_config`, over the samples;
* `peak_rss_mb`: median peak resident memory of a sample process;
* `check_pass_rate`: 1 - check_fail_rate, where check_fail_rate is failed
  rows at the finest level over non-skipped rows there (every expected row
  counts as failed when a sample crashes or exits 2 or 3).  The pass rate
  is what the result line carries because the fail rate is 0 on healthy
  workloads.

`--trace 1` runs untraced/traced sample pairs and reports the per-layer
metrics of `tracer.py` (medians over the traced samples) plus
`trace.overhead_s`, the traced minus the untraced median `run_s`.

The correctness gate fails the run when a sample exits other than 0 or 1,
its report-row counts differ from the workload's, its exit code disagrees
with its finest-level failures, a compared value is not finite, or the
`summary.csv` bytes differ between samples (traced ones included).
Report values are deliberately not compared with frozen ones.

A workload that names a defect probe (`workloads.DEFECT_PROBE`) runs it
once, traced and untimed, after its samples.  The probe passes the same
gate on its own rows; its finest verdict on the known false FAIL and its
`lorentz_norm` seconds per mesh level are printed, not turned into metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted` (samples run, probe included, warm-up excluded),
`failed` (samples that failed the gate) and `metrics`.
"""

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from tracer import metric_names, metric_unit  # noqa: E402
from workloads import (DEFECT_PROBE, KNOWN_DEFECTS, WORKLOADS,  # noqa: E402
                       run_config)

WORK_ROOT = ".perfbench_out"
TIME_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark could not take a sample at all."""


class Sampler:
    """Spawns sample processes for one config inside a run's time budget."""

    def __init__(self, workload, config, deadline):
        self.workload = workload
        self.deadline = deadline
        self.dir = os.path.join(WORK_ROOT, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w") as fh:   # each sample sets its output dir
            json.dump(config, fh)
        self.count = 0

    def sample(self, setup_only=False, trace=False):
        self.count += 1
        tag = f"s{self.count}"
        out_dir = os.path.join(self.dir, tag)
        result_path = os.path.join(self.dir, f"{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "sample.py"), self.config,
               out_dir, result_path]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", os.path.join(self.dir, f"{tag}_spans.csv")]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise HarnessError("time budget spent before the sample started")
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd, timeout=remaining,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{self.workload}: a sample outlived the "
                               f"{TIME_BUDGET_S:.0f} s budget") from None
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise HarnessError(f"{self.workload}: sample process exited "
                               f"{proc.returncode}\n{proc.stderr[-2000:]}")
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result["setup_done"] - spawned
        result["out_dir"] = out_dir
        if trace:
            result["spans"] = cmd[-1]
        return result


def _rows(out_dir, levels):
    """(rows per level, non-skipped finest rows, failed finest rows, finite)

    Which threshold rows are skipped moves with last-digit changes in the
    solution, so only the row count per level is a fixed expectation.
    """
    with open(os.path.join(out_dir, "reports.jsonl")) as fh:
        rows = [json.loads(line) for line in fh]
    counts = [sum(r["context"]["level"] == k for r in rows)
              for k in range(levels + 1)]
    finest = [r for r in rows
              if r["context"]["level"] == levels and not r["skipped"]]
    failed = sum(not r["passed"] for r in finest)
    finite = all(r["lhs"] is not None and r["rhs"] is not None
                 for r in rows if not r["skipped"])
    return counts, len(finest), failed, finite


def gate(spec, samples):
    """Per-sample verdicts and the finest-level failure count.

    `spec` is a `WORKLOADS` or `DEFECT_PROBE` entry.  Returns (failed
    samples, failed finest rows, checked finest rows, problems) where
    problems lists every gate violation found.  A sample that fails the gate
    counts all its finest rows as failed.
    """
    levels = spec["config"]["refine_levels"]
    per_level = spec["rows_per_level"]
    bad_samples, failed_rows, checked_rows, problems = 0, 0, 0, []
    reference = None
    for i, s in enumerate(samples):
        issues = []
        if s["exit"] not in (0, 1):
            issues.append(s.get("traceback") or f"exit {s['exit']}")
        else:
            counts, finest, failed, finite = _rows(s["out_dir"], levels)
            if counts != [per_level] * (levels + 1):
                issues.append(f"rows per level {counts}, expected {per_level}")
            if (s["exit"] == 1) != (failed > 0):
                issues.append(f"exit {s['exit']} with {failed} finest failures")
            if not finite:
                issues.append("a compared value is not finite")
            with open(os.path.join(s["out_dir"], "summary.csv"), "rb") as fh:
                summary = fh.read()
            if reference is None:
                reference = summary
            elif summary != reference:
                issues.append("summary.csv differs from the first sample's")
        if issues:
            bad_samples += 1
            failed_rows += per_level
            checked_rows += per_level
            problems += [f"sample {i + 1}: {msg}" for msg in issues]
        else:
            failed_rows += failed
            checked_rows += finest
    return bad_samples, failed_rows, checked_rows, problems


def environment(sample):
    return {
        "python": platform.python_version(),
        "numpy": sample["numpy"],
        "scipy": sample["scipy"],
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "robinsym": sample["robinsym"],
    }


def run_probe(name, deadline):
    """Run a defect probe once, traced and untimed.

    Returns (report lines, gate problems, failed samples).
    """
    spec = DEFECT_PROBE[name]
    sampler = Sampler(name, dict(spec["config"], output_dir="unused"),
                      deadline)
    sample = sampler.sample(trace=True)
    bad, _, _, problems = gate(spec, [sample])
    lines = [f"probe {name}: run_s {sample['run_s']:.4g} s, "
             f"exit {sample['exit']}"]
    if bad:
        return lines, [f"probe {name}: {p}" for p in problems], bad
    levels = spec["config"]["refine_levels"]
    want = spec["false_fail"]
    with open(os.path.join(sample["out_dir"], "reports.jsonl")) as fh:
        for row in map(json.loads, fh):
            ctx = row["context"]
            if (row["check_id"], ctx["level"], ctx.get("p"), ctx.get("q")) == (
                    want["check_id"], levels, want["p"], want["q"]):
                verdict = ("FAIL, the known false FAIL" if not row["passed"]
                           else "pass, the known false FAIL is gone")
                lines.append(
                    f"probe {name}: {want['check_id']} p={want['p']} "
                    f"q={want['q']} at level {levels}: lhs {row['lhs']:.6g}, "
                    f"rhs {row['rhs']:.6g}, tolerance "
                    f"{row['tolerance']:.6g}: {verdict}")
    lorentz = [0.0] * (levels + 1)
    with open(sample["spans"]) as fh:
        for span in csv.DictReader(fh):
            if span["name"] == "rearrange.lorentz_norm" and span["level"]:
                lorentz[int(span["level"])] += (float(span["end"])
                                                - float(span["start"]))
    lines.append(f"probe {name}: rearrange.lorentz_norm seconds by level: "
                 + ", ".join(f"L{k} {t:.4g}" for k, t in enumerate(lorentz)))
    return lines, [], 0


def run_workload(workload, seed, seconds, trace, deadline):
    spec = WORKLOADS[workload]
    sampler = Sampler(workload, run_config(workload, seed, "unused"),
                      deadline)
    warm = sampler.sample(setup_only=True)
    # take another sample (pair, when tracing) only while the last one
    # would still fit in `seconds`; the first is always taken
    untraced, traced = [], []
    start = time.monotonic()
    elapsed = last = 0.0
    while not untraced or elapsed + last <= seconds:
        untraced.append(sampler.sample())
        if trace:
            traced.append(sampler.sample(trace=True))
        last = time.monotonic() - start - elapsed
        elapsed += last
    samples = untraced + traced
    bad, failed_rows, checked_rows, problems = gate(spec, samples)

    report = {"workload": workload, "seed": seed,
              "environment": environment(warm), "problems": problems,
              "run_s samples": [round(s["run_s"], 4) for s in untraced],
              "probe": [], "defects": []}
    attempted = len(samples)
    if "probe" in spec:
        lines, probe_problems, probe_bad = run_probe(spec["probe"], deadline)
        report["probe"] = lines
        report["defects"] = KNOWN_DEFECTS[spec["probe"]]
        problems += probe_problems
        attempted, bad = attempted + 1, bad + probe_bad

    metrics = {}
    if trace:
        for name in metric_names()[:-1]:
            metrics[name] = statistics.median(s["layers"][name] for s in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(s["run_s"] for s in traced)
            - statistics.median(s["run_s"] for s in untraced))
        units = {name: metric_unit(name) for name in metrics}
        counts = {name: len(traced) for name in metrics}
    else:
        metrics = {
            "run_s": statistics.median(s["run_s"] for s in untraced),
            "setup_s": statistics.median(s["setup_s"] for s in untraced),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
            "check_pass_rate": 1.0 - failed_rows / checked_rows,
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "check_pass_rate": "ratio"}
        counts = dict.fromkeys(metrics, len(untraced))
        report["check_fail_rate"] = (
            f"{failed_rows}/{checked_rows} non-skipped finest rows "
            f"over {len(untraced)} sample(s)")
    report["metrics"] = {
        name: {"value": value, "unit": units[name], "samples": counts[name]}
        for name, value in metrics.items()}
    return report, attempted, bad


def print_report(report):
    print(f"== {report['workload']} (seed {report['seed']})")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    for name, m in report["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print(f"run_s samples: {report['run_s samples']}")
    if "check_fail_rate" in report:
        print(f"check_fail_rate: {report['check_fail_rate']}")
    for line in report["probe"]:
        print(line)
    for defect in report["defects"]:
        print(f"known defect: {defect}")
    for problem in report["problems"]:
        print(f"GATE: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "robinsym", "cli.py")):
        print("perfbench: run from a robinsym checkout root "
              "(src/robinsym/cli.py not found)", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    budget = TIME_BUDGET_S * len(names)
    deadline = time.monotonic() + budget
    reports, attempted, failed = [], 0, 0
    try:
        for name in names:
            report, n, bad = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace), deadline)
            print_report(report)
            reports.append(report)
            attempted, failed = attempted + n, failed + bad
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    prefix = len(names) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name):
            {"value": m["value"], "unit": m["unit"]}
        for r in reports for name, m in r["metrics"].items()}
    correct = not any(r["problems"] for r in reports)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
