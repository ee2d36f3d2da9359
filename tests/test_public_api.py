"""The package's public names."""

import ast
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
        "problems", "space", "eigen", "twins", "solved"]
    assert list(inspect.signature(verify.solve_level).parameters) == [
        "problems", "eigen", "coarse", "solvers"]


def test_every_twin_check_reads_its_solve_record():
    # a comparison of u with its twin takes the record and its own
    # parameters; the record validates the mesh and the match once.  A check
    # that retries on the refined mesh takes that level as ``finer``
    own = {
        "check_min_comparison": [], "check_measure_bound": [],
        "check_theorem_main1": ["p", "q"],
        "check_theorem_main2": ["p", "q", "pointwise"],
        "check_lemma_31": ["t_grid"], "check_lemma_32": ["t"],
        "check_saint_venant": ["finer"], "check_bossel_daners": ["finer"],
    }
    # neither needs a solve: a mesh and a space, or a space alone
    solveless = {"check_isoperimetric": ["mesh", "space", "finer"],
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


def test_only_the_solve_functions_of_verify_refine_or_solve():
    # a check reads the records and meshes its caller hands it, its retry's
    # included: no function of verify but the three solves names a solve,
    # an assembly or a refinement
    solves = {"solve_level", "solve_records", "solve_record"}
    assert not hasattr(verify, "refine") and not hasattr(verify, "_refined_record")
    for node in ast.walk(ast.parse(inspect.getsource(verify))):
        if isinstance(node, ast.FunctionDef) and node.name not in solves:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            assert not names & (solves | {"refine", "assemble"}), node.name
