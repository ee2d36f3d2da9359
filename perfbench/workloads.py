"""The benchmark's fixed workloads, their seeded run configs and the defect
probe.

Every workload is a torsion-source `robinsym run` config sized so that one
sample takes a few seconds: a run then holds several samples and its median
is not at the mercy of one slow or fast stretch of a shared machine.  The
seed only permutes the order of the beta values and of the checks in the
config: the work done and the set of report rows are the same for every
seed, so the timings of different seeds are comparable while each seed still
drives the program through a different cell order.

The two known defects only show on a 62,641-vertex cap, where one run takes
about 15 s; `DEFECT_PROBE` runs that case once per `cap-eigen` run, untimed,
so that the benchmark reports them instead of avoiding them.
"""

import random

WORKLOADS = {
    # The ROADMAP baseline square at h = 0.05 (900 / 3,481 vertices) with
    # beta = 1 and all nine checks: the two radial eigen shootings (one
    # distinct) carry most of it, so it bypasses mesh/fem work.
    "square-radial": {
        "config": {
            "space": {"kappa": 0, "n": 2},
            "domain": {"kind": "square", "side": 1.0},
            "source": "torsion",
            "beta": [1.0],
            "h": 0.05,
            "refine_levels": 1,
            "checks": [
                {"id": "thm1.1", "p": 1.0, "q": 1},
                {"id": "thm1.2-pointwise"},
                {"id": "saint-venant"},
                {"id": "bossel-daners"},
                {"id": "level-set-chain"},
                {"id": "flux-identity"},
                {"id": "measure-bound"},
                {"id": "isoperimetric"},
                {"id": "min-comparison"},
            ],
        },
        "rows_per_level": 28,
    },
    # The square at 1,369 / 5,329 / 21,025 vertices with no eigen check:
    # mesh refinement, Poisson solves and distribution functions carry it,
    # radial does nothing.
    "fine-mesh": {
        "config": {
            "space": {"kappa": 0, "n": 2},
            "domain": {"kind": "square", "side": 1.0},
            "source": "torsion",
            "beta": [1.0],
            "h": 0.04,
            "refine_levels": 2,
            "checks": [
                {"id": "thm1.1", "p": 1.0, "q": 1},
                {"id": "thm1.2-pointwise"},
                {"id": "saint-venant"},
                {"id": "level-set-chain"},
                {"id": "flux-identity"},
                {"id": "measure-bound"},
                {"id": "isoperimetric"},
                {"id": "min-comparison"},
            ],
        },
        "rows_per_level": 27,
    },
    # A spherical cap on S^2 at 2,107 / 8,269 vertices: curved chart, FEM
    # eigen solve, the adaptive Lorentz path and sphere volume inversion
    # share the time.
    "cap-eigen": {
        "config": {
            "space": {"kappa": 1, "n": 2},
            "domain": {"kind": "spherical_cap", "theta": 1.0},
            "source": "torsion",
            "beta": [1.0],
            "h": 0.035,
            "refine_levels": 1,
            "checks": [
                {"id": "thm1.1", "p": 0.5, "q": 2},
                {"id": "thm1.2", "p": 1.5, "q": 1},
                {"id": "bossel-daners"},
                {"id": "saint-venant"},
                {"id": "level-set-chain"},
                {"id": "flux-identity"},
                {"id": "measure-bound"},
                {"id": "isoperimetric"},
                {"id": "min-comparison"},
            ],
        },
        "rows_per_level": 28,
        "probe": "cap-62k",
    },
}

# The cap at 3,997 / 15,769 / 62,641 vertices with the two checks that carry
# the known defects.  It runs traced, once per run of the workload that names
# it, and is reported apart from the timed samples.
DEFECT_PROBE = {
    "cap-62k": {
        "config": {
            "space": {"kappa": 1, "n": 2},
            "domain": {"kind": "spherical_cap", "theta": 1.0},
            "source": "torsion",
            "beta": [1.0],
            "h": 0.025,
            "refine_levels": 2,
            "checks": [
                {"id": "thm1.1", "p": 0.5, "q": 2},
                {"id": "thm1.2", "p": 1.5, "q": 1},
            ],
        },
        "rows_per_level": 2,
        # the row whose finest-level verdict is the false FAIL
        "false_fail": {"check_id": "thm1.1", "p": 0.5, "q": 2},
    },
}


# Defects the probe carries (reported, not avoided) and cases left out
# because a run cannot finish; numbers as measured when the workloads were
# chosen (2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
KNOWN_DEFECTS = {
    "cap-62k": [
        "false FAIL of thm1.1 (p=0.5, q=2): LorentzParams(2p, 2) takes "
        "DistributionData.moment(., 2), whose monomial expansion of mu^2 "
        "cancels catastrophically; FEM side 1.8574 against a piecewise quad "
        "oracle 1.3114 at 62,641 vertices (rel. error 4.2e-1; 3.6e-3 at "
        "15,769 vertices, 2.9e-5 on the 81,225-vertex square).  The verdict "
        "rides on last digits: with BLAS pinned to one thread it passes.  "
        "On a cap generated directly at h=0.00625 the same cancellation "
        "makes the Lorentz integral negative and lorentz_norm raises "
        "TypeError (complex to float)",
        "E1 onset: lorentz_norm(1.5, 1) takes 0.016 s, 0.022 s and 3.85 s "
        "across the three levels",
    ],
    "left out": [
        "thm1.2 with p=1.5 (q=1 or 2) on the h=0.02 square: one call ran "
        "over 120 s (ROADMAP E1 measured 289 s)",
        "expression sources: solve_symmetrized_poisson raises "
        "ConvergenceError 'Simpson doubling stalled at n=2097152' on some "
        "meshes, e.g. square h=0.05 at level 1 with 1 + exp(-r^2) (levels "
        "0 and 2 pass), and it escapes as a traceback",
    ],
}


def run_config(name: str, seed: int, output_dir: str) -> dict:
    """The workload's config with beta and check order drawn from `seed`."""
    base = WORKLOADS[name]["config"]
    rng = random.Random(f"{name}:{seed}")
    beta = list(base["beta"])
    checks = [dict(c) for c in base["checks"]]
    rng.shuffle(beta)
    rng.shuffle(checks)
    return dict(base, beta=beta, checks=checks, output_dir=output_dir)
