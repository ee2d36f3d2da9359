"""Config loading, the expression grammar, and the experiment runner."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from robinsym import cli, fem, radial, rearrange, verify
from robinsym import mesh as msh
from robinsym.cli import ConfigError, SourceExpression
from robinsym.model_geometry import ModelSpace


def _write_config(tmp_path, name="cfg.json", **overrides):
    doc = {
        "space": {"kappa": 0, "n": 2},
        "domain": {"kind": "square", "side": 1.0},
        "source": "torsion",
        "beta": [1.0],
        "h": 0.2,
        "refine_levels": 0,
        "checks": [{"id": "thm1.1", "p": 1.0, "q": 1}],
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# expression grammar


def test_expression_evaluation():
    x = np.array([0.0, 0.5, 1.5])
    y = np.array([1.0, -2.0, 0.25])
    expr = SourceExpression("1 + 2*x^2 - y/2")
    assert np.allclose(expr(x, y), 1.0 + 2.0 * x**2 - y / 2.0)
    gauss = SourceExpression("exp(-r^2)")
    assert np.allclose(gauss(x, y), np.exp(-(x**2 + y**2)))
    assert SourceExpression("2^3^2")(np.zeros(1), np.zeros(1))[0] == 512.0
    assert SourceExpression("-x^2")(np.array([3.0]), np.zeros(1))[0] == -9.0
    assert SourceExpression("pi * e")(np.zeros(2), np.zeros(2))[0] == pytest.approx(
        math.pi * math.e)
    assert SourceExpression("cos(x)*sin(y)")(x, y) == pytest.approx(
        np.cos(x) * np.sin(y))


_TOO_DEEP = ("(" * 300 + "1" + ")" * 300, "-" * 1200 + "1")


def test_expression_rejects_bad_input():
    for text in ("z + 1", "tan(x)", "(x + 1", "x + ", "x $ y", "exp x", "1 2") + _TOO_DEEP:
        with pytest.raises(ConfigError):
            SourceExpression(text)
    # evaluation runs on a stack: no sum is too long for it
    x = np.array([0.5, 2.0])
    assert np.array_equal(SourceExpression(" + ".join(["x"] * 3000))(x, x), 3000 * x)


# ---------------------------------------------------------------------------
# list-checks


def test_list_checks_text(capsys):
    assert cli.main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for cid in ("thm1.1", "thm1.2-pointwise", "saint-venant", "bossel-daners"):
        assert cid in out
    assert "admissible:" in out and "n/(2n-2)" in out


def test_list_checks_json(capsys):
    assert cli.main(["list-checks", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ids = [entry["id"] for entry in payload]
    assert ids == sorted(ids) and "bossel-daners" in ids
    for entry in payload:
        assert {"description", "parameters", "admissible"} <= set(entry)


# ---------------------------------------------------------------------------
# mesh subcommands


def test_mesh_gen_and_validate(tmp_path, capsys):
    out = str(tmp_path / "disk.json")
    assert cli.main(["mesh", "gen", "disk", "--h", "0.3", "--radius", "1.0",
                     "--out", out]) == 0
    mesh = msh.load_mesh(out)
    assert mesh.mesh_size() <= 0.3
    assert cli.main(["mesh", "validate", out]) == 0
    assert "valid:" in capsys.readouterr().out


def test_mesh_gen_polygon_and_warped(tmp_path):
    out = str(tmp_path / "ell.json")
    points = "0,0 1,0 1,0.5 0.5,0.5 0.5,1 0,1"
    assert cli.main(["mesh", "gen", "polygon", "--h", "0.2",
                     "--points", points, "--out", out]) == 0
    assert msh.load_mesh(out).total_measure() == pytest.approx(0.75, rel=1e-9)
    cone = str(tmp_path / "cone.json")
    assert cli.main(["mesh", "gen", "disk", "--h", "0.3", "--radius", "1.0",
                     "--geometry", "warped", "--warp-profile", "cone",
                     "--warp-c", "0.7", "--out", cone]) == 0
    assert msh.load_mesh(cone).total_measure() == pytest.approx(
        0.7 * math.pi, rel=1e-2)


def test_mesh_subcommand_failures(tmp_path, capsys):
    assert cli.main(["mesh", "gen", "pentagon", "--h", "0.2",
                     "--out", str(tmp_path / "x.json")]) == 2
    assert cli.main(["mesh", "gen", "disk", "--h", "0.3", "--radius", "1.0",
                     "--warp-profile", "cone",
                     "--out", str(tmp_path / "y.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["mesh", "validate", str(bad)]) == 2
    assert cli.main(["mesh", "validate", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config validation


def test_load_config_defaults_echoed(tmp_path):
    path = _write_config(tmp_path)
    config = cli.load_config(path)
    assert config.resolved["space"]["alpha"] == 1.0
    assert config.resolved["beta"] == [1.0]
    assert config.resolved["refine_levels"] == 0
    assert config.beta == (1.0,)


def test_range_rejected_before_dimension(tmp_path, capsys):
    # p outside the q=1 range for n=3 must produce the range diagnostic even
    # though a 3-d space could never be meshed either
    path = _write_config(tmp_path, space={"kappa": 0, "n": 3},
                         checks=[{"id": "thm1.1", "p": 2.0, "q": 1}])
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "range" in err and "0.75" in err

    path = _write_config(tmp_path, space={"kappa": 0, "n": 3},
                         checks=[{"id": "thm1.2", "p": 2.0, "q": 1}])
    assert cli.main(["run", path]) == 2
    assert "two-dimensional" in capsys.readouterr().err


def test_config_rejections(tmp_path):
    cases = [
        dict(checks=[{"id": "nonesuch"}]),
        dict(checks=[{"id": "thm1.1", "p": 1.0}]),
        dict(checks=[{"id": "thm1.1", "p": 1.0, "q": 1, "extra": 2}]),
        dict(checks=[{"id": "thm1.1", "p": 1.0, "q": 3}]),
        dict(checks=[{"id": "thm1.1", "p": "abc", "q": 1}]),
        dict(checks=[{"id": "thm1.1", "p": None, "q": 1}]),
        dict(checks=[{"id": "thm1.1", "p": [1], "q": 1}]),
        # integers beyond double range
        dict(checks=[{"id": "thm1.1", "p": 10**400, "q": 1}]),
        dict(space={"kappa": 0, "n": 10**400}),
        dict(beta=[10**400]),
        dict(h=10**400),
        dict(checks=[]),
        dict(beta=[]),
        dict(beta=[-1.0]),
        dict(beta=[True]),
        dict(h=-0.1),
        dict(refine_levels=-1),
        dict(refine_levels=True),
        dict(domain={"kind": "square", "mesh": "x.json"}),
        dict(domain={"side": 1.0}),
        dict(domain={"mesh": str(tmp_path / "absent.json")}),
        dict(source={"expr": "1 +"}),
        dict(source={"field": str(tmp_path / "absent.json")}),
        dict(source="sorcery"),
        dict(source={"expr": "x"},
             checks=[{"id": "saint-venant"}]),  # torsion-only check
    ]
    for overrides in cases:
        path = _write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError):
            cli.load_config(path)
    with pytest.raises(ConfigError):
        cli.load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "nj.json"
    bad.write_text("]")
    with pytest.raises(ConfigError):
        cli.load_config(str(bad))
    path = _write_config(tmp_path)
    doc = json.loads((tmp_path / "cfg.json").read_text())
    del doc["output_dir"]
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        cli.load_config(path)
    assert cli.load_config(path, output_dir=str(tmp_path / "o")).output_dir


@pytest.mark.parametrize("overrides", [
    dict(domain={"kind": "disk"}),
    dict(domain={"kind": "disk", "radius": 1.0, "geometry": "warped",
                 "warp": {"profile": "cone"}}),
    dict(domain={"kind": "disk", "radius": 1.0, "geometry": "warped",
                 "warp": "cone"}),
    dict(source={"expr": "1/0"}),
    dict(domain={"kind": "square", "side": 10**400}),
    dict(domain={"kind": "disk", "radius": 1.0, "geometry": "warped",
                 "warp": {"profile": "cone", "c": 10**400}}),
])
def test_malformed_config_exits_two(tmp_path, capsys, overrides):
    # each passes load_config and fails when the run builds the domain or
    # evaluates the source
    path = _write_config(tmp_path, **overrides)
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err.startswith("config: ")


def test_negative_expression_rejected_at_run(tmp_path, capsys):
    path = _write_config(tmp_path, source={"expr": "x - 1"},
                         checks=[{"id": "min-comparison"}])
    assert cli.main(["run", path]) == 2
    assert "negative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline runs


def test_run_pipeline_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write_config(
        tmp_path, refine_levels=1,
        checks=[{"id": "thm1.1", "p": 1.0, "q": 1}, {"id": "saint-venant"},
                {"id": "flux-identity"}, {"id": "level-set-chain"}])
    assert cli.main(["run", path]) == 0
    assert "all checks passed" in capsys.readouterr().out

    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("check_id,lhs,rhs,gap,tol,passed")
    assert any(line.startswith("thm1.1") for line in summary[1:])
    reports = [json.loads(line)
               for line in (out / "reports.jsonl").read_text().splitlines()]
    assert all(rep["passed"] for rep in reports)
    levels = {rep["context"]["level"] for rep in reports}
    assert levels == {0, 1}

    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["refine_levels"] == 1 and resolved["source"] == "torsion"

    plots = out / "plots"
    for name in ("mu_b0_L0.csv", "mu_b0_L1.csv", "usharp_b0_L0.csv",
                 "gap_thm1.1_b0.csv", "gap_saint-venant_b0.csv"):
        lines = (plots / name).read_text().splitlines()
        assert "," in lines[0] and len(lines) > 2
    gap_lines = (plots / "gap_saint-venant_b0.csv").read_text().splitlines()
    hs = [float(line.split(",")[0]) for line in gap_lines[1:]]
    assert hs == sorted(hs, reverse=True) and len(hs) == 2


def test_run_determinism_and_jobs(tmp_path, capsys):
    cfgs = []
    for tag in ("a", "b", "c"):
        cfgs.append(_write_config(
            tmp_path, name=f"cfg_{tag}.json",
            beta=[0.5, 2.0], refine_levels=1,
            checks=[{"id": "thm1.1", "p": 1.0, "q": 1},
                    {"id": "min-comparison"}, {"id": "measure-bound"}],
            output_dir=str(tmp_path / f"out_{tag}")))
    assert cli.main(["run", cfgs[0]]) == 0
    assert cli.main(["run", cfgs[1]]) == 0
    assert cli.main(["run", cfgs[2], "--jobs", "4"]) == 0
    capsys.readouterr()
    ref = (tmp_path / "out_a" / "summary.csv").read_bytes()
    assert (tmp_path / "out_b" / "summary.csv").read_bytes() == ref
    assert (tmp_path / "out_c" / "summary.csv").read_bytes() == ref
    ref_jsonl = (tmp_path / "out_a" / "reports.jsonl").read_bytes()
    assert (tmp_path / "out_c" / "reports.jsonl").read_bytes() == ref_jsonl


_ALL_CHECKS = [{"id": "thm1.1", "p": 1.0, "q": 1}, {"id": "thm1.2", "p": 1.5, "q": 1},
               {"id": "thm1.2-pointwise"}, {"id": "saint-venant"},
               {"id": "bossel-daners"}, {"id": "level-set-chain"},
               {"id": "flux-identity"}, {"id": "measure-bound"},
               {"id": "isoperimetric"}, {"id": "min-comparison"}]


def test_run_solves_each_level_and_beta_once(tmp_path, capsys, monkeypatch):
    counts = {"assemble": 0, "factor": 0, "distribution": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fem, "assemble", counting("assemble", fem.assemble))
    monkeypatch.setattr(fem, "splu", counting("factor", fem.splu))
    monkeypatch.setattr(cli.verify, "distribution_function", counting(
        "distribution", rearrange.distribution_function))

    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out_{jobs}"
        path = _write_config(tmp_path, name=f"cfg_{jobs}.json", beta=[0.5, 2.0],
                             refine_levels=1, checks=_ALL_CHECKS,
                             output_dir=str(out))
        assert cli.main(["run", path, "--jobs", jobs]) == 0
        reports = [json.loads(line) for line in
                   (out / "reports.jsonl").read_text().splitlines()]
        assert not any(r["context"].get("retried") for r in reports)
        # two levels times two betas: one factorization and one distribution
        # function of the solution each, and one assembly per level
        assert counts == {"assemble": 2, "factor": 4, "distribution": 4}
        counts.update(assemble=0, factor=0, distribution=0)
        outputs.append(sorted(
            (str(f.relative_to(out)), f.read_bytes()) for f in out.rglob("*")
            if f.is_file() and f.name != "config_resolved.json"))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_run_singular_factorization_exits_three(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fem, "splu", singular)
    path = _write_config(tmp_path, checks=[{"id": "min-comparison"}])
    assert cli.main(["run", path]) == 3
    err = capsys.readouterr().err
    assert "solver:" in err and "exactly singular" in err


def test_run_expression_source(tmp_path, capsys):
    path = _write_config(
        tmp_path, domain={"kind": "disk", "radius": 1.0},
        source={"expr": "1 + 2*exp(-8*((x-0.3)^2 + (y-0.2)^2))"}, h=0.25,
        checks=[{"id": "thm1.1", "p": 1.0, "q": 1},
                {"id": "min-comparison"}, {"id": "measure-bound"}])
    assert cli.main(["run", path]) == 0
    capsys.readouterr()


def test_run_field_source(tmp_path, capsys):
    mesh = msh.generate_domain("square", target_h=0.25, side=1.0)
    mesh_path = str(tmp_path / "mesh.json")
    msh.save_mesh(mesh, mesh_path)
    u = fem.solve_robin_poisson(fem.RobinProblem(mesh=mesh, beta=1.0))
    field_path = str(tmp_path / "field.json")
    fem.save_field(u, field_path, mesh_path)
    path = _write_config(tmp_path, domain={"mesh": mesh_path},
                         source={"field": field_path},
                         checks=[{"id": "min-comparison"}])
    assert cli.main(["run", path]) == 0
    capsys.readouterr()
    path = _write_config(tmp_path, domain={"mesh": mesh_path},
                         source={"field": field_path}, refine_levels=1,
                         checks=[{"id": "min-comparison"}])
    with pytest.raises(ConfigError):
        cli.load_config(path)


def test_run_failing_check_exits_one(tmp_path, capsys):
    # a cone-weighted mesh matched against the unweighted space genuinely
    # violates the isoperimetric comparison once the tolerance tightens
    path = _write_config(
        tmp_path, domain={"kind": "disk", "radius": 1.0, "geometry": "warped",
                          "warp": {"profile": "cone", "c": 0.8}},
        h=0.02, checks=[{"id": "isoperimetric"}])
    assert cli.main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "FAILED isoperimetric" in out
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[5] == "False"


def test_run_solver_error_exits_three(tmp_path, capsys):
    mesh = msh.generate_domain("square", target_h=0.5, side=1.0)
    sick = msh.MeasuredMesh(mesh.vertices, mesh.triangles, mesh.boundary_edges,
                            density=np.full(len(mesh.vertices), 1e-200))
    mesh_path = str(tmp_path / "sick.json")
    msh.save_mesh(sick, mesh_path)
    path = _write_config(tmp_path, domain={"mesh": mesh_path},
                         checks=[{"id": "min-comparison"}])
    assert cli.main(["run", path]) == 3
    assert "solver:" in capsys.readouterr().err


def test_run_missing_field_mesh_exits_two(tmp_path, capsys):
    mesh = msh.generate_domain("square", target_h=0.25, side=1.0)
    mesh_path = str(tmp_path / "mesh.json")
    msh.save_mesh(mesh, mesh_path)
    u = fem.solve_robin_poisson(fem.RobinProblem(mesh=mesh, beta=1.0))
    field_path = str(tmp_path / "field.json")
    fem.save_field(u, field_path, str(tmp_path / "gone.json"))
    path = _write_config(tmp_path, domain={"mesh": mesh_path},
                         source={"field": field_path},
                         checks=[{"id": "min-comparison"}])
    assert cli.main(["run", path]) == 2
    assert "config:" in capsys.readouterr().err


def test_run_saved_field_source_passes(tmp_path, capsys, monkeypatch):
    # a noisy saved field on the 900-vertex square: the Simpson doubling of
    # the old twin stalled on it at n = 2^21 and the run exited 3
    mesh = msh.generate_domain("square", target_h=0.05, side=1.0)
    assert len(mesh.vertices) == 900
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    noise = np.random.default_rng(1).random(len(x))
    source = msh.ScalarField(mesh=mesh, values=1.0 + np.exp(-(x**2 + y**2)) + 0.3 * noise)
    mesh_path, field_path = str(tmp_path / "mesh.json"), str(tmp_path / "field.json")
    msh.save_mesh(mesh, mesh_path)
    fem.save_field(source, field_path, mesh_path)
    path = _write_config(
        tmp_path, domain={"mesh": mesh_path}, source={"field": field_path},
        beta=[0.1, 1.0, 10.0], h=0.05,
        checks=[{"id": "thm1.1", "p": 1.0, "q": 1}, {"id": "thm1.1", "p": 0.5, "q": 2},
                {"id": "min-comparison"}, {"id": "measure-bound"},
                {"id": "level-set-chain"}, {"id": "flux-identity"}])
    calls = []

    def counted(field):
        calls.append(field)
        return rearrange.distribution_function(field)

    monkeypatch.setattr(cli.verify, "distribution_function", counted)
    assert cli.main(["run", path]) == 0
    capsys.readouterr()
    # u and the source once per beta: the level-set chain reads the
    # source's rearrangement from the record
    assert len(calls) == 6
    with open(tmp_path / "out" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 75
    assert all(row["passed"] == "True" for row in rows)


def test_run_torsion_square_lorentz_pairs_pass(tmp_path, capsys):
    # (p, q) = (0.5, 2) integrates mu^4 on the 900-vertex square, whose slot
    # coefficients an antiderivative of the monomials cancelled: the run
    # exited 3 on a negative integral at beta = 0.1, and 1 on false FAILs
    path = _write_config(
        tmp_path, beta=[0.1, 1.0, 10.0], h=0.05,
        checks=[{"id": "thm1.1", "p": 0.5, "q": 2}, {"id": "thm1.2", "p": 0.5, "q": 2},
                {"id": "thm1.1", "p": 1.0, "q": 1}, {"id": "saint-venant"}])
    assert cli.main(["run", path]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert all(row["passed"] == "True" for row in rows)


@pytest.mark.parametrize("error", [
    radial.EigenBracketError, radial.DegenerateBallError,
    rearrange.LorentzDivergenceError, rearrange.SphereOverflowError,
])
def test_run_library_errors_exit_three(tmp_path, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli.verify, "check_min_comparison", broken)
    path = _write_config(tmp_path, checks=[{"id": "min-comparison"}])
    assert cli.main(["run", path]) == 3
    assert "injected" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the registry's admissibility, summary cells, level-set thresholds


def test_registry_rejects_out_of_range_checks_at_load(tmp_path):
    cases = [("thm1.1", {"p": 2.0, "q": 1}, {"kappa": 0, "n": 2}),
             ("thm1.2", {"p": 1.0, "q": 2}, {"kappa": 1, "n": 2}),
             ("thm1.2-pointwise", {}, {"kappa": 1, "n": 2})]
    for cid, params, space in cases:
        path = _write_config(tmp_path, space=space, checks=[dict(id=cid, **params)])
        with pytest.raises(ConfigError, match=f"check {cid}: .*stated"):
            cli.load_config(path)
    sphere = cli.load_config(_write_config(
        tmp_path, space={"kappa": 1, "n": 2},
        checks=[{"id": "thm1.1", "p": 1.0, "q": 1}, {"id": "level-set-chain"}]))
    assert [c.check_id for c in sphere.checks] == ["thm1.1", "level-set-chain"]


def test_summary_cells_are_plain(tmp_path, capsys):
    path = _write_config(tmp_path, h=0.1, checks=_ALL_CHECKS)
    assert cli.main(["run", path]) == 0
    capsys.readouterr()
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    ids = {c["id"] for c in _ALL_CHECKS}
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[0] in ids
        for cell in cells[1:]:
            if cell not in ("", "True", "False"):
                float(cell)  # a numpy repr such as np.float64(0.5) raises


@pytest.mark.parametrize("kind, extra", [("square", {"side": 1.0}),
                                         ("spherical_cap", {"theta": 1.0})])
def test_auto_thresholds_stable_under_roundoff(kind, extra):
    mesh = msh.refine(msh.generate_domain(kind, target_h=0.04, **extra))
    space = ModelSpace(kappa=1 if kind == "spherical_cap" else 0, n=2)
    rec = verify.solve_record(fem.RobinProblem(mesh=mesh, beta=1.0), space)
    u = rec.u
    rng = np.random.default_rng(0)
    twin = msh.ScalarField(mesh=mesh, values=u.values * (
        1.0 + 1e-13 * rng.uniform(-1.0, 1.0, len(u.values))))
    flags = []
    for field in (u, twin):
        field_rec = dataclasses.replace(
            rec, u=field, dist=rearrange.distribution_function(field))
        ts = cli._auto_thresholds(field_rec)
        reports = verify.check_lemma_31(field_rec, ts)
        flags.append([r.skipped for r in reports])
        if field is u:
            ref = ts
    assert len(ts) == len(ref) == 20
    np.testing.assert_allclose(ts, ref, rtol=1e-12, atol=0.0)
    assert flags[0] == flags[1]
