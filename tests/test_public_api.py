"""The package's public names."""

import dataclasses
import inspect

import robinsym
from robinsym import radial, rearrange, verify


def test_every_public_name_resolves():
    assert len(set(robinsym.__all__)) == len(robinsym.__all__)
    for name in robinsym.__all__:
        assert getattr(robinsym, name) is not None, name


def test_sampled_radial_source_api_is_gone():
    # the radial twin takes the decreasing rearrangement of the source
    for name in ("RadialSource", "constant_source", "source_from_profile"):
        assert name not in robinsym.__all__
        assert not hasattr(robinsym, name)
        assert not hasattr(radial, name)
    assert not hasattr(radial, "ConvergenceError")


def test_radial_distribution_route_is_gone():
    # the twin's side of a comparison is read on its own grid, and
    # DistributionData serves the mesh side alone
    for name in ("radial_distribution", "from_monotone_pairs",
                 "log_derivative_profile", "flat_torsion_profile"):
        assert name not in robinsym.__all__
        assert not hasattr(robinsym, name)
        assert not hasattr(radial, name)
        assert not hasattr(rearrange, name)
        assert not hasattr(rearrange.DistributionData, name)
    for name in ("MonotonicityError", "PositivityError"):
        assert not hasattr(radial, name)
    assert not hasattr(radial.RadialProfile, "to_csv")
    assert not hasattr(rearrange.DistributionData, "to_csv")
    assert not hasattr(rearrange.DistributionData, "measures")
    assert "rad" not in {f.name for f in dataclasses.fields(verify.SolveRecord)}


def test_two_step_solve_api_is_gone():
    # one call solves a level's problems, and a lone problem is a level of
    # its own
    for name in ("solve_discrete", "record_solution"):
        assert name not in robinsym.__all__
        assert not hasattr(robinsym, name)
        assert not hasattr(verify, name)
    assert list(inspect.signature(verify.solve_record).parameters) == [
        "problem", "space", "eigen"]
    assert list(inspect.signature(verify.solve_records).parameters) == [
        "problems", "space", "eigen", "twins"]


def test_every_twin_check_reads_its_solve_record():
    # a comparison of u with its twin takes the record and its own
    # parameters; the record validates the mesh and the match once
    own = {
        "check_min_comparison": [], "check_measure_bound": [],
        "check_theorem_main1": ["p", "q"],
        "check_theorem_main2": ["p", "q", "pointwise"],
        "check_lemma_31": ["t_grid"], "check_lemma_32": ["t"],
        "check_saint_venant": [], "check_bossel_daners": [],
    }
    # neither needs a solve: a mesh and a space, or a space alone
    solveless = {"check_isoperimetric": ["mesh", "space"],
                 "check_profile_monotonicity": ["space", "p", "which"]}
    checks = {name for name in vars(verify) if name.startswith("check_")}
    assert checks == set(own) | set(solveless)
    for name, params in own.items():
        sig = inspect.signature(getattr(verify, name))
        assert list(sig.parameters) == ["rec"] + params, name
        assert sig.parameters["rec"].annotation is verify.SolveRecord, name
    for name, params in solveless.items():
        assert list(inspect.signature(getattr(verify, name)).parameters) == params
    for name in ("_source_cumulative", "_require_match"):
        assert not hasattr(verify, name)
