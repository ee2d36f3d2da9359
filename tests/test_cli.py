"""Config loading, the expression grammar, and the experiment runner."""

import csv
import dataclasses
import io
import json
import math
import weakref

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


def _saved_cone(tmp_path):
    cone = msh.generate_domain("disk", target_h=0.5, radius=1.0, geometry="warped",
                               warp=msh.warped_profile("cone", 0.5))
    path = tmp_path / "cone.json"
    msh.save_mesh(cone, str(path))
    return path.read_text()


def _unused_vertex_mesh(tmp_path):
    """A saved 49-vertex square with a 50th point on no triangle."""
    square = msh.generate_domain("square", target_h=0.25, side=1.0)
    assert len(square.vertices) == 49
    msh.save_mesh(square, str(tmp_path / "square.json"))
    obj = json.loads((tmp_path / "square.json").read_text())
    obj["vertices"].append([0.5, 2.0])
    obj["density"].append(1.0)
    path = tmp_path / "unused.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_mesh_subcommand_failures(tmp_path, capsys):
    out = ["--out", str(tmp_path / "x.json")]
    disk = ["disk", "--h", "0.3", "--radius", "1.0", "--geometry", "warped"]
    gen = [
        ["pentagon", "--h", "0.2"],
        disk + ["--warp-profile", "cone"],
        ["polygon", "--h", "0.2", "--points", "0,0 1,0 1"],
        ["polygon", "--h", "0.1", "--points", "0,0 1,0 nan,1"],
        ["square", "--h", "nan", "--side", "1.0"],
        ["disk", "--h", "0.3", "--radius", "nan"],
        disk + ["--warp-profile", "foo", "--warp-c", "0.5"],
        disk + ["--warp-profile", "cone", "--warp-c", "2"],
        ["disk", "--h", "0.3", "--radius", "1.0", "--n-boundary", "2"],
    ]
    files = {
        "bad.json": b"{not json",
        "digits.json": _saved_cone(tmp_path).replace(
            '"geometry"', '"n": 1' + "0" * 5000 + ', "geometry"').encode(),
        "bytes.json": b"\xff\xfe\x00{not utf-8",
        "wide.json": _saved_cone(tmp_path).replace('"c": 0.5', '"c": 2').encode(),
    }
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    _unused_vertex_mesh(tmp_path)
    cases = [(["mesh", "gen"] + argv + out, "mesh gen: ") for argv in gen]
    cases += [(["mesh", "validate", str(tmp_path / name)], "mesh validate: ")
              for name in list(files) + ["unused.json", "absent.json"]]
    for argv, prefix in cases:
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, (argv, err)
    assert not (tmp_path / "x.json").exists()


def test_mesh_validate_refuses_triangle_indices_past_int32(tmp_path, capsys):
    # a mesh keeps int32 triangles, where 2^32 + 1 would wrap to vertex 1:
    # an index off the vertices is refused before the cast, and 2^64 is no
    # int64 at all; each with exit 2 and one line
    msh.save_mesh(msh.generate_domain("square", target_h=0.5, side=1.0),
                  str(tmp_path / "square.json"))
    obj = json.loads((tmp_path / "square.json").read_text())
    for index in (2**32 + 1, -1, 2**64):
        obj["triangles"][0][0] = index
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["mesh", "validate", str(path)]) == 2, index
        err = capsys.readouterr().err
        assert err.startswith("mesh validate: ") and err.count("\n") == 1, (index, err)


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


_BOOLEAN_FIELDS = [
    (dict(space={"kappa": True, "n": 2}), "space.kappa"),
    (dict(space={"kappa": 0, "n": 2, "alpha": True}), "space.alpha"),
    (dict(checks=[{"id": "thm1.1", "p": 1.0, "q": True}]), "checks[0].q"),
    (dict(domain={"kind": "square", "side": True}), "domain.side"),
    (dict(domain={"kind": "disk", "radius": True}), "domain.radius"),
    (dict(space={"kappa": 1, "n": 2}, domain={"kind": "spherical_cap", "theta": True}),
     "domain.theta"),
    (dict(domain={"kind": "disk", "radius": 1.0, "geometry": "warped",
                  "warp": {"profile": "cone", "c": True}}), "domain.warp.c"),
]


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
    # meshes beyond the vertex ceiling, refused before they are built
    dict(refine_levels=10**400),
    dict(h=1e-7),
    # the comparison needs a source that does not vanish identically
    dict(source={"expr": "0"}),
    dict(source={"expr": "x*0"}),
    # no field takes a boolean; Python would read true as the number 1
    *(overrides for overrides, _ in _BOOLEAN_FIELDS),
    # a run solves a beta once, and a repeated one would repeat its rows
    dict(beta=[1.0, 2.0, 1]),
])
def test_malformed_config_exits_two(tmp_path, capsys, overrides):
    # each passes load_config's field rules and fails when the run builds
    # the domain or evaluates the source; a boolean or a repeated beta is
    # refused up front
    path = _write_config(tmp_path, **overrides)
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and err.count("\n") == 1


@pytest.mark.parametrize("overrides, field", _BOOLEAN_FIELDS,
                         ids=[field for _, field in _BOOLEAN_FIELDS])
def test_boolean_config_field_is_named(tmp_path, overrides, field):
    path = _write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError) as info:
        cli.load_config(path)
    assert str(info.value) == f"field {field!r} is a boolean; no config field takes one"


@pytest.mark.parametrize("values", [
    '["a", "b", "c", "d"]',
    "[1" + "0" * 5000 + ", 1, 1, 1]",
    b"\xff\xfe{",
    "[-1, -1, -1, -1]",
    "[0, 0, 0, 0]",
], ids=["strings", "digits", "bytes", "negative", "zero"])
def test_malformed_field_source_exits_two(tmp_path, capsys, values):
    # a saved field read through load_field, and the problem's own rule on
    # its values, refuse these before any solve
    square = msh.generate_domain("square", target_h=1.5, side=1.0)
    assert len(square.vertices) == 4
    msh.save_mesh(square, str(tmp_path / "sq.json"))
    field = tmp_path / "f.json"
    if isinstance(values, bytes):
        field.write_bytes(values)
    else:
        field.write_text('{"mesh_ref": "sq.json", "values": ' + values + "}")
    path = _write_config(tmp_path, domain={"mesh": str(tmp_path / "sq.json")},
                         source={"field": str(field)},
                         checks=[{"id": "min-comparison"}])
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_oversized_json_integer_exits_two(tmp_path, capsys):
    # json refuses integers past 4,300 digits with a plain ValueError
    path = _write_config(tmp_path)
    text = (tmp_path / "cfg.json").read_text()
    (tmp_path / "cfg.json").write_text(
        text.replace('"refine_levels": 0', '"refine_levels": 1' + "0" * 5000))
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err.startswith("config: config is not valid JSON")


def test_refine_levels_are_counted_before_refining():
    base = msh.generate_domain("square", target_h=0.04, side=1.0)
    assert len(base.vertices) == 1_369
    cli._check_refined_size(base, 5)  # 1,329,409 vertices
    for levels in (6, 10**400):
        with pytest.raises(ConfigError, match="level 6 would have 5313025 vertices, "
                                              "more than the ceiling of 2097152"):
            cli._check_refined_size(base, levels)


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


def test_run_is_deterministic(tmp_path, capsys):
    cfgs = []
    for tag in ("a", "b"):
        cfgs.append(_write_config(
            tmp_path, name=f"cfg_{tag}.json",
            beta=[0.5, 2.0], refine_levels=1,
            checks=[{"id": "thm1.1", "p": 1.0, "q": 1},
                    {"id": "min-comparison"}, {"id": "measure-bound"}],
            output_dir=str(tmp_path / f"out_{tag}")))
    assert cli.main(["run", cfgs[0]]) == 0
    assert cli.main(["run", cfgs[1]]) == 0
    capsys.readouterr()
    for out in ("summary.csv", "reports.jsonl"):
        ref = (tmp_path / "out_a" / out).read_bytes()
        assert (tmp_path / "out_b" / out).read_bytes() == ref


def test_run_has_no_jobs_option(tmp_path, capsys):
    # cells run one after another; the keyword stays for callers passing 1
    path = _write_config(tmp_path, checks=[{"id": "saint-venant"}])
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", path, "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    with pytest.raises(ValueError, match="jobs=1"):
        cli.run(cli.load_config(path), jobs=2)


_ALL_CHECKS = [{"id": "thm1.1", "p": 1.0, "q": 1}, {"id": "thm1.2", "p": 1.5, "q": 1},
               {"id": "thm1.2-pointwise"}, {"id": "saint-venant"},
               {"id": "bossel-daners"}, {"id": "level-set-chain"},
               {"id": "flux-identity"}, {"id": "measure-bound"},
               {"id": "isoperimetric"}, {"id": "min-comparison"}]


def test_run_solves_each_level_and_beta_once(tmp_path, capsys, monkeypatch):
    counts = {"assemble": 0, "factor": 0, "distribution": 0, "schwarz": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fem, "assemble", counting("assemble", fem.assemble))
    monkeypatch.setattr(fem, "gstrf", counting("factor", fem.gstrf))
    monkeypatch.setattr(cli.verify, "distribution_function", counting(
        "distribution", rearrange.distribution_function))
    # the kink radii: one call per Schwarz rearrangement, whoever builds it
    monkeypatch.setattr(rearrange, "radii_for_volumes", counting(
        "schwarz", rearrange.radii_for_volumes))

    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"out_{tag}"
        path = _write_config(tmp_path, name=f"cfg_{tag}.json", beta=[0.5, 2.0],
                             refine_levels=1, checks=_ALL_CHECKS,
                             output_dir=str(out))
        assert cli.main(["run", path]) == 0
        reports = [json.loads(line) for line in
                   (out / "reports.jsonl").read_text().splitlines()]
        assert not any(r["context"].get("retried") for r in reports)
        # two levels times two betas: one distribution function of the
        # solution and one Schwarz rearrangement of it, which the pointwise
        # check and the plots share, each; one assembly per level, and one
        # factorization per beta, on the coarse level, which the refined
        # level's multilevel solve takes over
        assert counts == {"assemble": 2, "factor": 2, "distribution": 4, "schwarz": 4}
        counts.update(assemble=0, factor=0, distribution=0, schwarz=0)
        outputs.append(sorted(
            (str(f.relative_to(out)), f.read_bytes()) for f in out.rglob("*")
            if f.is_file() and f.name != "config_resolved.json"))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_run_frees_each_level_assembly_before_its_distributions(tmp_path, monkeypatch):
    # a level's assembly serves all its betas' factors and then dies, so no
    # distribution function, of u or of a field source, is built beside it
    systems, seen = [], []
    real_assemble = fem.assemble

    def assemble(problem):
        system = real_assemble(problem)
        systems.append(weakref.ref(system))
        return system

    def distribution(field):
        seen.append([ref() is None for ref in systems])
        return rearrange.distribution_function(field)

    monkeypatch.setattr(fem, "assemble", assemble)
    monkeypatch.setattr(verify, "distribution_function", distribution)
    config = cli.load_config(_write_config(
        tmp_path, beta=[0.5, 2.0], refine_levels=1, source={"expr": "1 + x"},
        checks=[{"id": "thm1.1", "p": 1.0, "q": 1}, {"id": "bossel-daners"}]))
    assert cli.run(config, stream=io.StringIO()) == 0
    # per level, the source's distribution and one of u per beta
    assert len(systems) == 2 and len(seen) == 6
    assert all(all(dead) and len(dead) in (1, 2) for dead in seen)



def test_run_solves_coarsest_first_and_builds_records_finest_first(tmp_path, monkeypatch):
    # a refined level's solvers take over its coarse level's, and the
    # finest level keeps none of its own: one finest solver lives at a
    # time, and none is left when the records are built, finest first, so
    # that no level's records are held while a finer level solves
    events, hierarchies = [], []
    real_solver = fem.robin_solver

    def robin_solver(mesh, system, beta, coarse=None):
        live = [ref() for ref in hierarchies if ref() is not None]
        events.append(("solve", len(mesh.vertices), [len(h.levels) for h in live]))
        solver = real_solver(mesh, system, beta, coarse)
        if isinstance(solver, fem.RobinHierarchy):
            hierarchies.append(weakref.ref(solver))
        return solver

    def distribution(field):
        live = [ref() for ref in hierarchies if ref() is not None]
        events.append(("record", len(field.mesh.vertices), live))
        return rearrange.distribution_function(field)

    monkeypatch.setattr(fem, "robin_solver", robin_solver)
    monkeypatch.setattr(verify, "distribution_function", distribution)
    config = cli.load_config(_write_config(
        tmp_path, beta=[0.5, 2.0], refine_levels=2,
        checks=[{"id": "thm1.1", "p": 1.0, "q": 1}, {"id": "bossel-daners"}]))
    assert cli.run(config, stream=io.StringIO()) == 0
    solves = [e for e in events if e[0] == "solve"]
    records = [e for e in events if e[0] == "record"]
    assert events == solves + records and len(solves) == len(records) == 6
    sizes = [e[1] for e in solves]
    assert sizes == sorted(sizes) and [e[1] for e in records] == sorted(sizes, reverse=True)
    # L1 keeps both betas' hierarchies for L2, and L2's first beta's is
    # gone by its second's, which would read [2, 1]
    assert [e[2] for e in solves] == [[], [], [], [1], [1, 1], [1]]
    assert all(e[2] == [] for e in records)


_FIXED_CONFIG = dict(beta=[0.1, 1.0, 10.0], h=0.05, refine_levels=2,
                     checks=_ALL_CHECKS)


@pytest.mark.parametrize("overrides, per_level", [
    # the square keeps its measure under refine: one ball for every level
    (_FIXED_CONFIG, False),
    # a cap's measure grows under refine: one ball per level
    (dict(space={"kappa": 1, "n": 2}, domain={"kind": "spherical_cap", "theta": 1.0},
          h=0.15, refine_levels=1, checks=[{"id": "bossel-daners"},
                                           {"id": "saint-venant"}]), True),
    # the annulus sector's measure sums to the same bits at every level: one
    # ball for every level, on a curved boundary
    (dict(domain={"kind": "annulus_sector", "r_inner": 1.0, "r_outer": 2.0,
                  "angle0": 0.0, "angle1": 1.0},
          beta=[0.1, 1.0], h=0.1, refine_levels=2,
          checks=[{"id": "bossel-daners"}, {"id": "saint-venant"}]), False),
])
def test_run_builds_each_radial_side_once(tmp_path, capsys, monkeypatch,
                                          overrides, per_level):
    built = {"twin": [], "eigen": []}

    def counting(key, fn):
        def wrapped(ball, beta, *args):
            built[key].append((ball.radius, beta))
            return fn(ball, beta, *args)
        return wrapped

    monkeypatch.setattr(verify, "solve_symmetrized_poisson", counting(
        "twin", radial.solve_symmetrized_poisson))
    monkeypatch.setattr(verify, "solve_radial_eigen", counting(
        "eigen", radial.solve_radial_eigen))
    config = cli.load_config(_write_config(tmp_path, **overrides))
    assert cli.run(config, stream=io.StringIO()) == 0
    levels = config.refine_levels + 1 if per_level else 1
    for calls in built.values():
        assert len(calls) == len(set(calls)) == levels * len(config.beta)


def test_run_singular_factorization_exits_three(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fem, "gstrf", singular)
    path = _write_config(tmp_path, checks=[{"id": "min-comparison"}])
    assert cli.main(["run", path]) == 3
    err = capsys.readouterr().err
    assert "solver:" in err and "exactly singular" in err


def test_run_solver_error_names_the_level(tmp_path, capsys, monkeypatch):
    # the coarsest level is solved first, all its betas in one call, and
    # only it is factored
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fem, "gstrf", singular)
    path = _write_config(tmp_path, beta=[0.5, 2.0], refine_levels=1,
                         checks=[{"id": "min-comparison"}])
    assert cli.main(["run", path]) == 3
    coarse = msh.generate_domain("square", target_h=0.2, side=1.0)
    err = capsys.readouterr().err
    assert f"solve (beta=0.5, 2.0, h={coarse.mesh_size():g}): " in err


def test_run_expression_source(tmp_path, capsys, monkeypatch):
    fields = []

    def counted(field):
        fields.append(field)
        return rearrange.distribution_function(field)

    monkeypatch.setattr(cli.verify, "distribution_function", counted)
    path = _write_config(
        tmp_path, domain={"kind": "disk", "radius": 1.0},
        source={"expr": "1 + 2*exp(-8*((x-0.3)^2 + (y-0.2)^2))"}, h=0.25,
        beta=[0.5, 2.0], refine_levels=1,
        checks=[{"id": "thm1.1", "p": 1.0, "q": 1},
                {"id": "min-comparison"}, {"id": "measure-bound"}])
    assert cli.main(["run", path]) == 0
    capsys.readouterr()
    # two levels times two betas: one distribution of each solution, and one
    # of the source per level, which both betas' twins share
    assert len(fields) == 2 * (2 + 1)
    assert len({id(field) for field in fields}) == len(fields)


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


_CONE_DISK = {"kind": "disk", "radius": 1.0, "geometry": "warped",
              "warp": {"profile": "cone", "c": 0.8}}


def test_run_failing_check_exits_one(tmp_path, capsys):
    # a cone-weighted mesh matched against the unweighted space genuinely
    # violates the isoperimetric comparison once the tolerance tightens;
    # the finest level's failure retries on the refined mesh, and fails
    path = _write_config(tmp_path, domain=_CONE_DISK, h=0.02,
                         checks=[{"id": "isoperimetric"}])
    assert cli.main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "FAILED isoperimetric" in out
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[5] == "False"
    [report] = _reports(tmp_path / "out")
    assert report["context"]["retried"] is True
    finest = cli._build_domain(_CONE_DISK, 0.02)
    assert report["context"]["h"] == pytest.approx(0.5 * finest.mesh_size())


def _reports(out):
    return [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]


def _failing_first_passes(monkeypatch, fails):
    """Make the saint-venant and bossel-daners first passes fail on the
    meshes that ``fails`` picks; retries keep their own verdicts."""
    def failing(once):
        def wrapped(rec, retried):
            report = once(rec, retried)
            if not retried and fails(rec.u.mesh):
                report = dataclasses.replace(report, passed=False)
            return report
        return wrapped

    for name in ("_saint_venant_once", "_bossel_daners_once"):
        monkeypatch.setattr(verify, name, failing(getattr(verify, name)))


def _counting(monkeypatch, counts, module, *names):
    """Count the calls of ``module``'s functions ``names`` into ``counts``."""
    counts.update(dict.fromkeys(names, 0))
    for name in names:
        def wrapped(*args, _name=name, _fn=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)


_RIGIDITY = [{"id": "saint-venant"}, {"id": "bossel-daners"}]
_VALUES = ("lhs", "rhs", "gap", "tolerance", "passed")


def test_run_retries_below_the_finest_level_on_the_next_levels_records(
        tmp_path, monkeypatch):
    # the retry of a level-0 failure reads level 1's records, which the run
    # holds: it equals level 1's own first pass, and it assembles, factors,
    # refines and solves nothing more
    counts, reports = [], []
    for forced in (False, True):
        with monkeypatch.context() as patch:
            if forced:
                _failing_first_passes(patch, lambda mesh: mesh.coarse is None)
            counts.append({})
            _counting(patch, counts[-1], fem, "assemble", "factor_robin")
            _counting(patch, counts[-1], cli, "refine")
            out = tmp_path / f"out_{forced}"
            config = cli.load_config(_write_config(
                tmp_path, beta=[0.5, 2.0], refine_levels=1, checks=_RIGIDITY,
                output_dir=str(out)))
            assert cli.run(config, stream=io.StringIO()) == 0
        reports.append(_reports(out))
    assert counts[0] == counts[1] == {"assemble": 2, "factor_robin": 2, "refine": 1}
    plain, retried = ({(r["context"]["beta"], r["check_id"], r["context"]["level"]): r
                       for r in run} for run in reports)
    assert len(retried) == 8
    for (beta, check, level), report in retried.items():
        if level == 1:
            assert report == plain[beta, check, 1]
            continue
        above = retried[beta, check, 1]
        assert report["context"]["retried"] is True and above["context"]["retried"] is False
        assert {k: report[k] for k in _VALUES} == {k: above[k] for k in _VALUES}
        assert report["context"]["h"] == above["context"]["h"]


def test_run_retries_the_finest_level_on_one_refined_level(tmp_path, monkeypatch):
    # past the finest level the run refines its mesh once and solves each
    # beta's record once on it, for both checks: the retried reports are
    # those of a record solved on the refined mesh alone
    _failing_first_passes(monkeypatch, lambda mesh: mesh.coarse is None)
    counts = {}
    _counting(monkeypatch, counts, cli, "refine")
    _counting(monkeypatch, counts, verify, "solve_records")
    config = cli.load_config(_write_config(tmp_path, beta=[0.5, 2.0], checks=_RIGIDITY))
    assert cli.run(config, stream=io.StringIO()) == 0
    assert counts == {"refine": 1, "solve_records": 3}
    fine = msh.refine(cli._build_domain(config.domain, config.h))
    for report in _reports(tmp_path / "out"):
        beta = report["context"]["beta"]
        problem = fem.RobinProblem(mesh=fine, beta=beta)
        if report["check_id"] == "saint-venant":
            direct = verify._saint_venant_once(
                verify.solve_record(problem, config.space), retried=True)
        else:
            direct = verify._bossel_daners_once(
                verify.solve_record(problem, config.space, eigen=True), retried=True)
        assert report["context"]["retried"] is True
        assert [report[k] for k in _VALUES] == [
            direct.lhs, direct.rhs, direct.gap, direct.tolerance, direct.passed]
        assert report["context"]["h"] == direct.context["h"]


def test_run_refuses_a_retry_past_the_ceiling_without_refining(tmp_path, capsys,
                                                               monkeypatch):
    # the finest level's retry would pass a lowered vertex ceiling: it is not
    # run, no refined mesh is allocated, and the failed check exits 1
    vertices = len(cli._build_domain(_CONE_DISK, 0.02).vertices)
    monkeypatch.setattr(msh, "MAX_VERTICES", vertices)
    split = []
    monkeypatch.setattr(msh, "_refine4", lambda *args: split.append(args))
    path = _write_config(tmp_path, domain=_CONE_DISK, h=0.02,
                         checks=[{"id": "isoperimetric"}])
    assert cli.main(["run", path]) == 1
    captured = capsys.readouterr()
    assert "FAILED isoperimetric" in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert split == []
    [report] = _reports(tmp_path / "out")
    assert not report["passed"] and report["context"]["retried"] is False
    assert report["context"]["retry_refused"].endswith(
        f"vertices, more than the ceiling of {vertices} (2**21)")


def test_run_tiny_beta_eigen_on_the_direct_route_exits_zero(tmp_path, capsys):
    # an unrefined 3,367-vertex disk at beta = 1e-8, where the Rayleigh
    # quotient's rounding is near 3e-7 relative: an eigen solve stopping on
    # a 1e-9 change of lambda alone had exited 3 after 400 rounds
    path = _write_config(tmp_path, domain={"kind": "disk", "radius": 1.0}, h=0.05,
                         beta=[1e-8], checks=[{"id": "bossel-daners"}])
    assert cli.main(["run", path]) == 0
    assert "all checks passed" in capsys.readouterr().out


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


def test_run_mesh_with_unused_vertex_exits_two(tmp_path, capsys):
    # the mesh is refused by name as it loads; it used to reach the factor
    # and exit 3 with "Factor is exactly singular"
    path = _write_config(tmp_path, domain={"mesh": _unused_vertex_mesh(tmp_path)},
                         checks=[{"id": "saint-venant"}])
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config: ") and "vertex-used: vertex 49 " in err
    assert not (tmp_path / "out" / "summary.csv").exists()


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
    # u once per beta and the source once, its rearrangement shared by the
    # three betas' records, where the level-set chain reads it
    assert len(calls) == 4
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


def test_plot_rows_are_the_float_reprs(tmp_path):
    values = np.array([0.1, 1.0 / 3.0, -0.0, 5e-324, 1e300])
    columns = (values, values[::-1], np.arange(5.0))
    path = tmp_path / "plot.csv"
    cli._write_plot(path, ("a", "b", "c"), columns)
    expected = "a,b,c\n" + "".join(
        ",".join(repr(float(col[i])) for col in columns) + "\n" for i in range(5))
    assert path.read_bytes() == expected.encode()
