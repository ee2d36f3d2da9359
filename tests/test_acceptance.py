"""End-to-end acceptance gate: each test is one acceptance criterion at its
stated tolerance and runtime budget, printing one summary line on success."""

import json
import math
import time

import numpy as np
import pytest

from robinsym import cli, fem
from robinsym import mesh as msh
from robinsym import model_geometry as mg
from robinsym import radial
from robinsym import rearrange as rr
from robinsym import verify

FLAT = mg.ModelSpace(kappa=0, n=2)
SPHERE = mg.ModelSpace(kappa=1, n=2)
L_POINTS = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 0.5), (0.5, 1.0),
            (0.0, 1.0)]


def _record(mesh, space=FLAT, source=None):
    problem = fem.RobinProblem(mesh=mesh, beta=1.0, source=source)
    return verify.solve_record(problem, space)


def test_criterion_01_radial_oracle():
    # disk torsion against the closed-form solution of the radial equation,
    # with first-order-or-better decay of the nodal error under h -> h/2
    start = time.perf_counter()
    errors = {}
    for h in (0.02, 0.01):
        mesh = msh.generate_domain("disk", target_h=h, radius=1.0)
        u = fem.solve_robin_poisson(fem.RobinProblem(mesh=mesh, beta=1.0))
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        exact = (1.0 - r**2) / 4.0 + 0.5
        errors[h] = float(np.max(np.abs(u.values - exact)))
    elapsed = time.perf_counter() - start
    assert errors[0.02] <= 5e-3
    assert errors[0.02] / errors[0.01] >= 3.0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 01 radial oracle: PASS (err {errors[0.02]:.2e}, "
          f"factor {errors[0.02]/errors[0.01]:.2f}, {elapsed:.1f}s)")


def test_criterion_02_torsion_comparison():
    # square below the equal-measure disk for each beta, with the gap
    # positive and stable within 20% of its median over two refinements
    start = time.perf_counter()
    worst_dev = 0.0
    for beta in (0.1, 1.0, 10.0):
        mesh = msh.generate_domain("square", target_h=0.08, side=1.0)
        gaps = []
        for _ in range(3):
            report = verify.check_saint_venant(verify.solve_record(
                fem.RobinProblem(mesh=mesh, beta=beta), FLAT))
            assert report.passed and report.gap > 0.0
            gaps.append(report.gap)
            mesh = msh.refine(mesh)
        median = sorted(gaps)[1]
        dev = max(abs(g - median) / median for g in gaps)
        worst_dev = max(worst_dev, dev)
        assert dev <= 0.2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 02 torsion comparison: PASS (max gap deviation "
          f"{worst_dev:.3f}, {elapsed:.1f}s)")


def test_criterion_03_eigenvalue_comparison():
    start = time.perf_counter()
    square = msh.generate_domain("square", target_h=0.1, side=1.0)
    for beta in (0.1, 1.0, 10.0, 1e3):
        report = verify.check_bossel_daners(verify.solve_record(
            fem.RobinProblem(mesh=square, beta=beta), FLAT, eigen=True))
        assert report.passed and report.gap > 0.0
    # the radial reference itself: the closed-form route reproduces the frozen
    # unit-disk value to 1e-10
    ball = mg.GeodesicBall(FLAT, 1.0)
    lam_radial = radial.solve_radial_eigen(ball, 1.0)
    assert abs(lam_radial - 1.5769927308134737) <= 1e-10
    # in the large-beta limit the disk eigenvalue approaches the squared
    # first root of the Bessel function J0
    disk = msh.generate_domain("disk", target_h=0.02, radius=1.0)
    lam_big, _ = fem.solve_robin_eigen(disk, 1e6)
    assert abs(lam_big - 5.7832) <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 03 eigenvalue comparison: PASS (large-beta disk "
          f"{lam_big:.4f}, {elapsed:.1f}s)")


def test_criterion_04_norm_comparison():
    start = time.perf_counter()
    h = 0.05
    square = msh.generate_domain("square", target_h=h, side=1.0)
    xy = square.vertices
    bump = 1.0 + 2.0 * np.exp(-8.0 * ((xy[:, 0] - 0.6) ** 2
                                      + (xy[:, 1] - 0.35) ** 2))
    source = msh.ScalarField(mesh=square, values=bump)
    report = verify.check_theorem_main1(_record(square, source=source), 1.0, 1)
    assert report.passed and not report.skipped

    cap = msh.generate_domain("spherical_cap", target_h=h, theta=1.0)
    report_cap = verify.check_theorem_main1(_record(cap, SPHERE), 0.5, 2)
    assert report_cap.passed and not report_cap.skipped
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 04 norm comparison: PASS (square gap "
          f"{report.gap:.4f}, cap gap {report_cap.gap:.2e}, {elapsed:.1f}s)")


def test_criterion_05_pointwise_comparison():
    for mesh in (msh.generate_domain("square", target_h=0.05, side=1.0),
                 msh.generate_domain("polygon", target_h=0.05,
                                     points=L_POINTS)):
        report = verify.check_theorem_main2(_record(mesh), pointwise=True)
        assert report.passed

    # on the disk the two sides agree in the limit; the sup-norm gap must
    # shrink at observed order >= 1
    gaps = []
    for h in (0.16, 0.08):
        disk = msh.generate_domain("disk", target_h=h, radius=1.0)
        rec = _record(disk)
        v = rec.v
        sharp = rr.schwarz_rearrangement(rec.dist, FLAT)
        grid = np.linspace(0.0, v.ball.radius, 257)
        gaps.append(float(np.max(np.abs(
            np.interp(grid, sharp.grid, sharp.values)
            - np.interp(grid, v.grid, v.values)))))
    order = math.log2(gaps[0] / gaps[1])
    assert order >= 1.0
    print(f"ACCEPTANCE 05 pointwise comparison: PASS (disk equality order "
          f"{order:.2f})")


def test_criterion_06_flux_and_level_sets():
    mesh = msh.generate_domain("square", target_h=0.08, side=1.0)
    rec = _record(mesh)
    u = rec.u
    top = float(u.values.max())
    report = verify.check_lemma_32(rec, top)
    assert report.passed
    assert abs(report.gap) <= 1e-8 * abs(report.rhs)

    # 20 generic thresholds: midpoints of the distribution's own breakpoints
    bks = np.asarray(rec.dist.breakpoints, dtype=float)
    mids = 0.5 * (bks[:-1] + bks[1:])
    inside = mids[(mids > u.values.min()) & (mids < top)]
    picks = inside[np.linspace(0, len(inside) - 1, 20).astype(int)]
    reports = verify.check_lemma_31(rec, picks)
    active = [r for r in reports if not r.skipped]
    assert len(active) == 20
    assert all(r.passed for r in active)
    print(f"ACCEPTANCE 06 flux and level sets: PASS (flux residual "
          f"{abs(report.gap):.2e}, 20/20 thresholds)")


def _clip_superlevel_areas(tri_xy, vals, t):
    # chart areas of {linear > t} in every triangle at once (Sutherland-
    # Hodgman): walking corners i = 0, 1, 2, the polygon takes corner i when
    # it lies above t and the crossing on edge (i, i+1) when that edge
    # crosses t, so slot 2i is corner i and slot 2i + 1 the crossing
    nxt_xy, nxt = np.roll(tri_xy, -1, axis=1), np.roll(vals, -1, axis=1)
    above = vals > t
    crossed = above != (nxt > t)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(crossed, (t - vals) / (nxt - vals), 0.0)
    slots = np.stack([tri_xy, tri_xy + lam[..., None] * (nxt_xy - tri_xy)],
                     axis=2).reshape(-1, 6, 2)
    keep = np.stack([above, crossed], axis=2).reshape(-1, 6)
    count = np.sum(keep, axis=1)
    # the kept slots first in walk order, the unused ones repeating the last
    # kept point: a zero-length side adds nothing to the shoelace sum
    order = np.argsort(~keep, axis=1, kind="stable")[:, :4]
    order = np.where(np.arange(4) < count[:, None], order,
                     np.take_along_axis(order, np.maximum(count - 1, 0)[:, None], axis=1))
    x, y = (np.take_along_axis(slots[..., k], order, axis=1) for k in (0, 1))
    shoelace = np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
    return np.where(count >= 3, 0.5 * np.abs(shoelace), 0.0)


def test_criterion_07_rearrangement_exactness():
    mesh = msh.generate_domain("square", target_h=0.045, side=1.0)
    assert len(mesh.triangles) >= 1000
    rng = np.random.default_rng(101)
    values = rng.normal(size=len(mesh.vertices))
    field = msh.ScalarField(mesh=mesh, values=values)
    dist = rr.distribution_function(field)

    rho = mesh.centroid_density()
    xy = mesh.vertices[mesh.triangles]
    tv = values[mesh.triangles]
    scale = float(np.max(np.abs(values)))
    worst = 0.0
    for t in np.random.default_rng(7).uniform(0.0, scale, size=1000):
        brute = float(np.sum(rho * (_clip_superlevel_areas(xy, tv, t)
                                    + _clip_superlevel_areas(xy, -tv, t))))
        worst = max(worst, abs(dist.evaluate(float(t)) - brute))
    assert worst <= 1e-12 * dist.total

    # norm preservation under rearrangement on a cone-weighted mesh: mesh
    # quadrature of |h|^p against the weighted-distribution moment, which is
    # the exact p-norm of the rearranged profile
    alpha = 0.6
    cone = msh.generate_domain("disk", target_h=0.25, radius=1.0,
                               geometry="warped",
                               warp=msh.warped_profile("cone", alpha))
    hvals = np.exp(0.8 * np.random.default_rng(37).normal(
        size=len(cone.vertices)))
    hfield = msh.ScalarField(mesh=cone, values=hvals)
    hdist = rr.distribution_function(hfield)
    from test_rearrange import _mesh_lp_integral
    for p in (1.0, 2.0, 4.0):
        mesh_norm = _mesh_lp_integral(hfield, p) ** (1.0 / p)
        sharp_norm = (p * hdist.moment(p - 1.0, 1)) ** (1.0 / p)
        assert abs(mesh_norm - sharp_norm) <= 1e-8 * mesh_norm

    pair_mesh = msh.generate_domain("disk", target_h=0.35, radius=1.0)
    rng = np.random.default_rng(59)
    min_slack = math.inf
    for _ in range(100):
        f1 = msh.ScalarField(mesh=pair_mesh,
                             values=rng.normal(size=len(pair_mesh.vertices)))
        f2 = msh.ScalarField(mesh=pair_mesh,
                             values=rng.normal(size=len(pair_mesh.vertices)))
        lhs, rhs = rr.hardy_littlewood_check(f1, f2)
        min_slack = min(min_slack, rhs - lhs)
    assert min_slack >= -1e-9
    print(f"ACCEPTANCE 07 rearrangement exactness: PASS (oracle error "
          f"{worst:.2e}, product slack {min_slack:.2e})")


def test_criterion_08_profile_monotonicity():
    endpoints = [
        ("A", mg.ModelSpace(kappa=1, n=3), 0.75),
        ("B", mg.ModelSpace(kappa=1, n=2), 1.0),
        ("C", mg.ModelSpace(kappa=0, n=3), 3.0),
        ("D", mg.ModelSpace(kappa=0, n=2), 1.0),
    ]
    for which, space, p in endpoints:
        report = verify.check_profile_monotonicity(space, p, which)
        assert report.passed, (which, report.lhs)

    r = np.linspace(0.0, math.pi - 1e-3, 2048)
    for n in (2, 3, 4, 5):
        space = mg.ModelSpace(kappa=1, n=n)
        margin = mg.profile_convexity_margin(space, n / (2.0 * n - 2.0), r)
        assert float(np.min(margin)) >= -1e-9
    print("ACCEPTANCE 08 profile monotonicity: PASS (claims A-D and the "
          "convexity margin, n=2..5)")


def test_criterion_09_functional_self_consistency():
    h = 0.08
    disk = msh.generate_domain("disk", target_h=h, radius=1.0)
    lam, ground = fem.solve_robin_eigen(disk, 1.0)
    phi = verify.eigen_test_field(ground, 1.0)
    umin, umax = float(ground.values.min()), float(ground.values.max())
    worst = 0.0
    for frac in np.linspace(0.03, 0.97, 10):
        t = umin + frac * (umax - umin)
        value = verify.bossel_functional(ground, phi, 1.0, t)
        worst = max(worst, abs(value - lam))
        assert abs(value - lam) <= 10.0 * h
    with pytest.raises(verify.AdmissibilityError):
        bad = msh.ScalarField(mesh=disk,
                              values=np.full(len(disk.vertices), 2.0))
        verify.bossel_functional(ground, bad, 1.0,
                                 umin + 0.5 * (umax - umin))
    print(f"ACCEPTANCE 09 functional self-consistency: PASS (max deviation "
          f"{worst:.4f} <= {10*h}, bad test function rejected)")


def test_criterion_10_determinism_round_trip(tmp_path):
    doc = {
        "space": {"kappa": 0, "n": 2},
        "domain": {"kind": "square", "side": 1.0},
        "source": "torsion",
        "beta": [1.0],
        "h": 0.2,
        "refine_levels": 0,
        "checks": [{"id": "thm1.1", "p": 1.0, "q": 1},
                   {"id": "flux-identity"}],
    }
    outputs = []
    for tag in ("a", "b"):
        doc["output_dir"] = str(tmp_path / tag)
        config = tmp_path / f"cfg_{tag}.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["run", str(config)]) == 0
        outputs.append((tmp_path / tag / "summary.csv").read_bytes()
                       + (tmp_path / tag / "reports.jsonl").read_bytes())
    assert outputs[0] == outputs[1]

    mesh = msh.generate_domain("disk", target_h=0.2, radius=1.0,
                               geometry="warped",
                               warp=msh.warped_profile("cone", 0.7))
    path = str(tmp_path / "mesh.json")
    msh.save_mesh(mesh, path)
    loaded = msh.load_mesh(path)
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert np.array_equal(loaded.triangles, mesh.triangles)
    assert np.array_equal(loaded.boundary_edges, mesh.boundary_edges)
    assert np.array_equal(loaded.density, mesh.density)
    assert loaded.geometry == mesh.geometry
    first = open(path, "rb").read()
    msh.save_mesh(loaded, path)
    assert open(path, "rb").read() == first
    print("ACCEPTANCE 10 determinism and round-trip: PASS (byte-identical "
          "summaries, exact mesh round-trip)")
