"""Inequality checks, profile monotonicity, and the level-set functional."""

import csv
import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

from robinsym import fem
from robinsym import mesh as msh
from robinsym import model_geometry as mg
from robinsym import radial
from robinsym import rearrange as rr
from robinsym import verify

from radial_oracles import field_twin, log_derivative, radial_eigenpair

FLAT = mg.ModelSpace(kappa=0, n=2)


def _disk(h, **kw):
    return msh.generate_domain("disk", target_h=h, radius=1.0, **kw)


def _square(h):
    return msh.generate_domain("square", target_h=h, side=1.0)


def _record(mesh, space=FLAT, beta=1.0, eigen=False, source=None):
    problem = fem.RobinProblem(mesh=mesh, beta=beta, source=source)
    return verify.solve_record(problem, space, eigen)


# ---------------------------------------------------------------------------
# reports


def test_report_serialization(tmp_path):
    reports = [
        verify.ComparisonReport(
            check_id="demo", lhs=1.0, rhs=2.0, gap=1.0, tolerance=0.1,
            passed=True,
            context={"h": 0.1, "beta": 1.0, "p": 1.0, "q": 1, "kappa": 0, "n": 2}),
        verify.ComparisonReport(
            check_id="demo_skip", lhs=math.nan, rhs=math.nan, gap=math.nan,
            tolerance=0.5, passed=True, skipped=True, context={"h": 0.1}),
    ]
    csv_path = tmp_path / "summary.csv"
    verify.reports_to_csv(reports, str(csv_path))
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(verify._CSV_COLUMNS)
    assert rows[1][0] == "demo" and rows[1][5] == "True"
    assert rows[2][1] == ""  # nan lhs serializes empty

    jsonl_path = tmp_path / "reports.jsonl"
    verify.reports_to_jsonl(reports, str(jsonl_path))
    lines = jsonl_path.read_text().splitlines()
    objs = [json.loads(line) for line in lines]
    assert objs[0]["check_id"] == "demo" and objs[0]["skipped"] is False
    assert objs[1]["skipped"] is True and objs[1]["lhs"] is None

    first = csv_path.read_bytes() + jsonl_path.read_bytes()
    verify.reports_to_csv(reports, str(csv_path))
    verify.reports_to_jsonl(reports, str(jsonl_path))
    assert csv_path.read_bytes() + jsonl_path.read_bytes() == first


# ---------------------------------------------------------------------------
# isoperimetric


def test_isoperimetric_square_exact():
    report = verify.check_isoperimetric(_square(0.15), FLAT)
    assert report.passed
    assert report.lhs == pytest.approx(4.0, abs=1e-12)
    assert report.rhs == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-9)


def test_isoperimetric_disk_near_equality():
    report = verify.check_isoperimetric(_disk(0.1), FLAT)
    assert report.passed
    assert abs(report.gap) < 2e-3
    assert report.context["retried"] is False


def test_isoperimetric_cap_equality():
    sphere = mg.ModelSpace(kappa=1, n=2)
    cap = msh.generate_domain("spherical_cap", target_h=0.08, theta=math.pi / 3)
    report = verify.check_isoperimetric(cap, sphere)
    assert report.passed
    assert abs(report.gap) < report.tolerance


# ---------------------------------------------------------------------------
# minimum comparison


def test_min_comparison_disk_equality():
    report = verify.check_min_comparison(_record(_disk(0.07)))
    assert report.passed
    assert abs(report.gap) < 5e-3


def test_min_comparison_square_strict():
    report = verify.check_min_comparison(_record(_square(0.07)))
    assert report.passed
    # the symmetrized boundary value is R/(2 beta) for the flat ball
    assert report.rhs == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-6)
    assert report.lhs < report.rhs


def test_min_comparison_mismatch():
    # the record, which every twin check reads, refuses a ball that does
    # not hold the mesh measure
    rec = _record(_disk(0.2))
    wrong = mg.GeodesicBall(FLAT, 2.0)
    v = radial.solve_symmetrized_poisson(wrong, 1.0)
    with pytest.raises(verify.MatchMismatchError):
        dataclasses.replace(rec, v=v)


# ---------------------------------------------------------------------------
# lemmas


def test_lemma31_disk_tight():
    reports = verify.check_lemma_31(_record(_disk(0.1)), np.linspace(0.52, 0.73, 9))
    assert all(r.passed and not r.skipped for r in reports)
    for r in reports:
        # every chain inequality is tight on the ball
        assert abs(r.gap) < 0.05 * r.lhs


def test_lemma31_square_thresholds():
    rec = _record(_square(0.08))
    u = rec.u
    # thresholds halfway between distribution breakpoints are never skipped
    bks = np.asarray(rec.dist.breakpoints, dtype=float)
    mids = 0.5 * (bks[:-1] + bks[1:])
    inside = mids[(mids > u.values.min()) & (mids < u.values.max())]
    picks = inside[np.linspace(0, len(inside) - 1, 20).astype(int)]
    reports = verify.check_lemma_31(rec, picks)
    active = [r for r in reports if not r.skipped]
    assert len(active) == 20
    assert all(r.passed for r in active)


def test_lemma31_skips():
    rec = _record(_disk(0.2))
    breakpoint_t = float(np.unique(rec.u.values)[5])
    reports = verify.check_lemma_31(
        rec, [2.0 * float(np.max(rec.u.values)), breakpoint_t])
    assert all(r.skipped for r in reports)


def test_lemma31_requires_matching_mesh():
    # the record refuses a problem on another mesh than its solution's
    rec = _record(_disk(0.2))
    other_problem = fem.RobinProblem(mesh=_disk(0.2), beta=1.0)
    with pytest.raises(ValueError, match="different meshes"):
        dataclasses.replace(rec, problem=other_problem)


def test_lemma32_flux_identity():
    report = verify.check_lemma_32(_record(_disk(0.1)), math.inf)
    assert report.passed
    assert report.lhs == pytest.approx(report.rhs, rel=1e-8)


def test_lemma32_strict_above_minimum():
    rec = _record(_square(0.08))
    t = float(np.min(rec.u.values)) * 1.05
    report = verify.check_lemma_32(rec, t)
    assert report.passed
    assert report.lhs < report.rhs - 1e-4


def test_lemma32_disk_equality_at_max():
    rec = _record(_disk(0.1))
    report = verify.check_lemma_32(rec, float(np.max(rec.u.values)))
    assert report.passed
    assert report.lhs == pytest.approx(report.rhs, rel=1e-8)


def test_measure_bound():
    for mesh in (_disk(0.1), _square(0.08)):
        assert verify.check_measure_bound(_record(mesh)).passed


# ---------------------------------------------------------------------------
# profile monotonicity


def test_profile_divergence_guard():
    space = mg.ModelSpace(kappa=0, n=3)
    with pytest.raises(verify.ProfileDivergenceError):
        verify.check_profile_monotonicity(space, 3.0, "B")
    verify.check_profile_monotonicity(space, 2.9, "B")
    with pytest.raises(ValueError):
        verify.check_profile_monotonicity(space, -1.0, "B")


def test_profile_monotonicity_claims():
    sphere3 = mg.ModelSpace(kappa=1, n=3)
    assert verify.check_profile_monotonicity(sphere3, 0.75, "A").passed
    # outside the stated range the claim fails numerically; reported, not raised
    out = verify.check_profile_monotonicity(sphere3, 0.9, "A")
    assert not out.passed and out.lhs > 1e-4
    assert verify.check_profile_monotonicity(mg.ModelSpace(kappa=0, n=3), 3.0, "C").passed
    assert verify.check_profile_monotonicity(mg.ModelSpace(kappa=1, n=2), 1.0, "B").passed
    assert verify.check_profile_monotonicity(FLAT, 1.0, "D").passed
    with pytest.raises(ValueError):
        verify.check_profile_monotonicity(FLAT, 1.0, "E")


# ---------------------------------------------------------------------------
# main theorems


def test_main1_disk_equality():
    rec = _record(_disk(0.07))
    for p, q in ((1.0, 1), (0.5, 2)):
        report = verify.check_theorem_main1(rec, p, q)
        assert report.passed
        assert abs(report.gap) < 0.05 * report.rhs


def test_main1_square():
    report = verify.check_theorem_main1(_record(_square(0.07)), 1.0, 1)
    assert report.passed and report.lhs < report.rhs


def test_main1_nonradial_source():
    disk = _disk(0.08)
    bump = 1.0 + 2.0 * np.exp(
        -8.0 * ((disk.vertices[:, 0] - 0.3) ** 2 + (disk.vertices[:, 1] - 0.2) ** 2))
    rec = _record(disk, source=msh.ScalarField(mesh=disk, values=bump))
    assert verify.check_theorem_main1(rec, 1.0, 1).passed
    assert verify.check_min_comparison(rec).passed
    assert verify.check_measure_bound(rec).passed


def test_main1_range_discipline():
    rec = _record(_disk(0.2))
    with pytest.raises(verify.HypothesisRangeError):
        verify.check_theorem_main1(rec, 1.5, 1)
    with pytest.raises(verify.HypothesisRangeError):
        verify.check_theorem_main1(rec, 1.2, 2)
    with pytest.raises(verify.HypothesisRangeError):
        verify.check_theorem_main1(rec, 1.0, 3)
    # no mesh of the 3-sphere exists, so its range is checked on its own
    with pytest.raises(verify.HypothesisRangeError):
        verify._main1_range(mg.ModelSpace(kappa=1, n=3), 0.9, 2)


def test_main2_pointwise_disk_equality():
    report = verify.check_theorem_main2(_record(_disk(0.07)), pointwise=True)
    assert report.passed
    assert report.lhs < 0.05


def test_main2_pointwise_square():
    report = verify.check_theorem_main2(_record(_square(0.05)), pointwise=True)
    assert report.passed


def test_main2_norm_and_ranges():
    rec = _record(_square(0.1))
    # n=2 leaves p unbounded in the torsion comparison
    assert verify.check_theorem_main2(rec, 2.0, 1).passed
    assert verify.check_theorem_main2(rec, 1.5, 2).passed
    cap = _record(msh.generate_domain("spherical_cap", target_h=0.2, theta=1.0),
                  mg.ModelSpace(kappa=1, n=2))
    with pytest.raises(verify.HypothesisRangeError):
        verify.check_theorem_main2(cap, 1.0, 2)
    with pytest.raises(verify.HypothesisRangeError):
        verify.check_theorem_main2(cap, pointwise=True)


# the thm1.1 / thm1.2 rhs: the twin's Lorentz norm, read on its own grid

_NORM_PQ = ((1.5, 1.0), (1.5, 2.0), (1.5, 2.7), (3.0, 1.0), (0.6, 1.0),
            (1.0, 1.0), (1.0, 2.0), (0.5, 1.0), (2.0, 2.0))


def _torsion_twin_norm_oracle(space, R, beta, p, q):
    """(p int_0^inf t^(q-1) mu(t)^(q/p) dt)^(1/q) of the torsion twin from
    its closed-form distribution, by tanh-sinh quadrature in t at 30 digits.
    Flat: v = (R^2 - r^2)/(2n) + R/(n beta), so mu(t) = alpha omega_n
    (2n (v(0) - t))^(n/2); S^2: v = tan(R/2)/beta + 2 ln(cos(r/2)/cos(R/2)),
    so mu(t) = 4 pi alpha (1 - exp(t - v(0)))."""
    with mpmath.workdps(30):
        R, beta, k = mpmath.mpf(R), mpmath.mpf(beta), mpmath.mpf(q) / p
        if space.kappa == 0:
            n = mpmath.mpf(space.n)
            omega = mpmath.pi ** (n / 2) / mpmath.gamma(n / 2 + 1)
            v_r = R / (n * beta)
            v_0 = v_r + R**2 / (2 * n)
            mu = lambda t: space.alpha * omega * (2 * n * (v_0 - t)) ** (n / 2)
        else:
            assert space.n == 2
            v_r = mpmath.tan(R / 2) / beta
            v_0 = v_r - 2 * mpmath.log(mpmath.cos(R / 2))
            mu = lambda t: -4 * mpmath.pi * space.alpha * mpmath.expm1(t - v_0)
        integral = (v_r**q / q * mu(v_r) ** k
                    + mpmath.quad(lambda t: t ** (q - 1) * mu(t) ** k, [v_r, v_0]))
        return float((p * integral) ** (1 / mpmath.mpf(q)))


@pytest.mark.parametrize("space,R,beta", [
    (mg.ModelSpace(kappa=0, n=3), 0.8, 1.0),
    (mg.ModelSpace(kappa=0, n=2, alpha=0.6), 1.0, 0.5),
    (mg.ModelSpace(kappa=1, n=2), 0.4, 1.0),
    (mg.ModelSpace(kappa=1, n=2), 1.0, 1.0),
    (mg.ModelSpace(kappa=1, n=2), 2.5, 1.0),
], ids=["ball3", "cone", "cap0.4", "cap1", "cap2.5"])
def test_twin_norm_torsion_closed_form(space, R, beta):
    v = radial.solve_symmetrized_poisson(mg.GeodesicBall(space, R), beta)
    for p, q in _NORM_PQ:
        want = _torsion_twin_norm_oracle(space, R, beta, p, q)
        got = verify._twin_lorentz_norm(v, rr.LorentzParams(p, q))
        assert abs(got - want) < 1e-13 * want, (p, q)


def _gauss20(lo, hi):
    """20-point Gauss-Legendre nodes on each cell [lo, hi], along a new last
    axis, and their weights."""
    x, w = np.polynomial.legendre.leggauss(20)
    half = 0.5 * (hi - lo)
    return np.multiply.outer(half, x) + (0.5 * (lo + hi))[..., None], np.multiply.outer(half, w)


def _field_twin_norm_oracle(fstar, ball, beta, p, q):
    """The twin's norm from its r-integral, 20-point Gauss on cells split at
    the radii where f* changes analytic form, at 64 uniform radii and at
    radii halving toward the center.  v at each node is v(R) plus the flux
    integral out to R, by its own 20-point Gauss: nothing of the twin's grid
    is read."""
    space, R = ball.space, ball.radius

    def flux(s):  # -v'(s) = cum(V(s)) / A(s)
        w = np.minimum(mg.volume_profile(space, s), fstar.total)
        return fstar.cumulative(w) / mg.volume_profile_derivative(space, s)

    kinks = mg.radii_for_volumes(space, fstar.kinks())
    edges = np.unique(np.concatenate([kinks[kinks < R], np.linspace(0.0, R, 65),
                                      R * 0.5 ** np.arange(7, 60)]))
    hi = edges[1:]
    x, w = _gauss20(edges[:-1], hi)
    slope = flux(x)
    outward = np.sum(w * slope, axis=1)
    v_r = float(fstar.cumulative(min(mg.volume_profile(space, R), fstar.total))) / (
        beta * mg.volume_profile_derivative(space, R))
    v_hi = v_r + np.concatenate([np.cumsum(outward[::-1])[::-1][1:], [0.0]])
    sx, sw = _gauss20(x, np.broadcast_to(hi[:, None], x.shape))
    v_x = v_hi[:, None] + np.sum(sw * flux(sx), axis=2)
    k = q / p
    integral = (v_r**q / q * mg.volume_profile(space, R) ** k
                + np.sum(w * v_x ** (q - 1.0) * mg.volume_profile(space, x) ** k * slope))
    return float((p * integral) ** (1.0 / q))


@pytest.mark.parametrize("space,domain,kw", [
    (FLAT, "square", {"side": 1.0}),
    (mg.ModelSpace(kappa=1, n=2), "spherical_cap", {"theta": 1.0}),
], ids=["square", "cap"])
def test_twin_norm_field_source_matches_gauss_oracle(space, domain, kw):
    beta = 1.3
    fstar, v = field_twin(space, domain, beta, **kw)
    for p, q in _NORM_PQ:
        want = _field_twin_norm_oracle(fstar, v.ball, beta, p, q)
        got = verify._twin_lorentz_norm(v, rr.LorentzParams(p, q))
        assert abs(got - want) < 1e-12 * want, (p, q)


def test_twin_norm_needs_the_slope():
    _, ground = radial_eigenpair(mg.GeodesicBall(FLAT, 1.0), 1.0)
    with pytest.raises(ValueError, match="slope"):
        verify._twin_lorentz_norm(ground, rr.LorentzParams(1.0, 1.0))


def test_twin_norm_overflow_raises():
    v = radial.solve_symmetrized_poisson(mg.GeodesicBall(FLAT, 1.0), 1e-300)
    with pytest.raises(rr.LorentzDivergenceError):
        verify._twin_lorentz_norm(v, rr.LorentzParams(1.0, 2.0))


# ---------------------------------------------------------------------------
# rigidity checks


def _saint_venant(mesh, space, beta):
    return verify.check_saint_venant(_record(mesh, space, beta))


def _bossel_daners(mesh, space, beta):
    return verify.check_bossel_daners(_record(mesh, space, beta, eigen=True))


def test_saint_venant_square_closed_form():
    report = _saint_venant(_square(0.07), FLAT, 1.0)
    assert report.passed
    R = 1.0 / math.sqrt(math.pi)
    exact = math.pi * R**4 / 8.0 + math.pi * R**3 / 2.0
    assert report.rhs == pytest.approx(exact, rel=1e-6)
    assert report.lhs < report.rhs


@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
def test_saint_venant_rhs_closed_form(beta):
    # Simpson on the twin's 32,769 uniform radii is exact for the cubic
    # v(r) A(r) of flat torsion
    rec = _record(_disk(0.1), FLAT, beta)
    report = verify.check_saint_venant(rec)
    assert not report.context["retried"]
    R = rec.ball.radius
    exact = math.pi * R**4 / 8.0 + math.pi * R**3 / (2.0 * beta)
    assert abs(report.rhs - exact) < 1e-13 * exact


@pytest.mark.parametrize("case", ["square", "cap", "cone"])
def test_saint_venant_rhs_matches_scipy_simpson(case):
    # the rhs is the composite Simpson rule written in numpy; scipy's
    # simpson on the same uniform samples is the oracle
    from scipy.integrate import simpson

    if case == "square":
        mesh, space = _square(0.1), FLAT
    elif case == "cap":
        mesh = msh.generate_domain("spherical_cap", target_h=0.1, theta=1.0)
        space = mg.ModelSpace(kappa=1, n=2, alpha=1.0)
    else:
        mesh = _disk(0.1, geometry="warped", warp=msh.warped_profile("cone", 0.8))
        space = mg.ModelSpace(kappa=0, n=2, alpha=0.8)
    rec = _record(mesh, space, 1.0)
    report = verify.check_saint_venant(rec)
    assert not report.context["retried"]
    v = rec.v
    expected = space.alpha * simpson(v.values * mg.sphere_area(space, v.grid), x=v.grid)
    assert abs(report.rhs - expected) <= 1e-15 * expected


def test_saint_venant_cone():
    warp = msh.warped_profile("cone", 0.8)
    mesh = _disk(0.08, geometry="warped", warp=warp)
    space = mg.ModelSpace(kappa=0, n=2, alpha=0.8)
    report = _saint_venant(mesh, space, 1.0)
    assert report.passed
    assert abs(report.gap) < 0.02 * report.rhs  # cone disk is the equality case
    iso = verify.check_isoperimetric(mesh, space)
    assert iso.passed and abs(iso.gap) < 0.02 * iso.rhs


def test_bossel_daners_square_strict():
    report = _bossel_daners(_square(0.08), FLAT, 1.0)
    assert report.passed
    assert report.lhs > report.rhs + 0.2


def test_bossel_daners_beta_sweep():
    sq = _square(0.15)
    for beta in (0.1, 1.0, 10.0, 1e3):
        report = _bossel_daners(sq, FLAT, beta)
        assert report.passed, f"beta={beta}"
        assert report.gap > 0.0


def test_rigidity_retries_solve_on_the_refined_mesh():
    sq = _square(0.15)
    rec = _record(sq, FLAT, 1.0, eigen=True)
    # a violated comparison (doubled torsion function, zero eigenvalue) and a
    # sign-changed ground state (nan) each solve once more on the refined mesh
    doubled = msh.ScalarField(mesh=sq, values=2.0 * rec.u.values)
    report = verify.check_saint_venant(dataclasses.replace(rec, u=doubled))
    assert report.passed and report.context["retried"] is True
    assert report.context["h"] == pytest.approx(0.5 * sq.mesh_size())
    lam_fine = fem.solve_robin_eigen(msh.refine(sq), 1.0)[0]
    for lam in (0.0, math.nan):
        report = verify.check_bossel_daners(dataclasses.replace(rec, eigen=(lam, None)))
        assert report.passed and report.context["retried"] is True
        assert report.lhs == lam_fine
    with pytest.raises(ValueError):
        verify.check_bossel_daners(_record(sq, FLAT, 1.0))


def test_solve_record_on_a_refined_mesh_factors_only_the_coarsest(tmp_path, monkeypatch):
    base = _square(0.2)
    factored = []
    factor = fem.factor_robin

    def counted(A):
        factored.append(len(A[2]) - 1)
        return factor(A)

    monkeypatch.setattr(fem, "factor_robin", counted)

    def direct(mesh):
        # u and lambda from the direct factor
        problem = fem.RobinProblem(mesh=mesh, beta=1.0)
        system = fem.assemble(problem)
        lu = factor(system.robin_matrix(1.0))
        return lu.solve(system.load), fem.solve_robin_eigen(mesh, 1.0, system, lu)[0]

    # a refined mesh built outside a run, as the refine retry builds one:
    # the multilevel route, on the one factor of the chain's first mesh
    fine = msh.refine(msh.refine(base))
    rec = verify.solve_record(fem.RobinProblem(mesh=fine, beta=1.0), FLAT, eigen=True)
    assert factored == [len(base.vertices)]
    u, lam = direct(fine)
    assert np.max(np.abs(rec.u.values - u)) <= 1e-10 * np.max(u)
    assert abs(rec.eigen[0] - lam) <= 1e-10 * lam
    # the chain's first mesh and a loaded mesh keep the direct factor's bits
    msh.save_mesh(fine, str(tmp_path / "fine.json"))
    loaded = msh.load_mesh(str(tmp_path / "fine.json"))
    for mesh in (base, loaded):
        factored.clear()
        rec = verify.solve_record(fem.RobinProblem(mesh=mesh, beta=1.0), FLAT, eigen=True)
        assert factored == [len(mesh.vertices)]
        u, lam = direct(mesh)
        assert np.array_equal(rec.u.values, u) and rec.eigen[0] == lam


def test_solve_record_shares_the_radial_side_of_an_equal_ball():
    sq = _square(0.2)
    problem = fem.RobinProblem(mesh=sq, beta=1.0)
    twins = {}
    fine, = verify.solve_records([fem.RobinProblem(mesh=msh.refine(sq), beta=1.0)],
                                 FLAT, True, twins)
    fresh = _record(sq, FLAT, 1.0, eigen=True)
    assert fresh.ball == fine.ball  # refine keeps the square's measure
    shared, = verify.solve_records([problem], FLAT, True, twins)
    assert shared.v is fine.v and shared.ball_eigenvalue == fine.ball_eigenvalue
    assert np.array_equal(shared.v.values, fresh.v.values)
    assert np.array_equal(shared.v.slope, fresh.v.slope)
    assert shared.ball_eigenvalue == fresh.ball_eigenvalue
    assert np.array_equal(shared.u.values, fresh.u.values)
    # an entry holds the ball eigenvalue once an eigen record has asked for
    # it, and lends it to eigen records alone
    borrowed, = verify.solve_records([problem], FLAT, False, twins)
    assert borrowed.v is fine.v and borrowed.ball_eigenvalue is None
    lone = {}
    plain, = verify.solve_records([problem], FLAT, False, lone)
    assert lone[plain.ball, 1.0][0] is plain.v and lone[plain.ball, 1.0][1] is None
    again, = verify.solve_records([problem], FLAT, True, lone)
    assert again.v is plain.v and again.ball_eigenvalue == fresh.ball_eigenvalue
    assert lone[plain.ball, 1.0][1] == fresh.ball_eigenvalue
    # another beta, another space or a source: solved afresh, and a field
    # source's twin stays out of the table
    source = msh.ScalarField(mesh=sq, values=np.ones(len(sq.vertices)))
    for other, space in ((fem.RobinProblem(mesh=sq, beta=2.0), FLAT),
                         (fem.RobinProblem(mesh=sq, beta=1.0), mg.ModelSpace(0, 3)),
                         (fem.RobinProblem(mesh=sq, beta=1.0, source=source), FLAT)):
        rec, = verify.solve_records([other], space, True, twins)
        assert rec.v is not fine.v
    assert len(twins) == 3
    # the eigenpair and the ball eigenvalue come together
    with pytest.raises(ValueError):
        dataclasses.replace(fine, ball_eigenvalue=None)
    with pytest.raises(ValueError):
        dataclasses.replace(plain, ball_eigenvalue=1.0)


def test_solve_records_refuses_two_meshes_or_two_sources(monkeypatch):
    sq, other = _square(0.25), _square(0.25)
    ones = msh.ScalarField(mesh=sq, values=np.ones(len(sq.vertices)))
    monkeypatch.setattr(fem, "assemble", None)  # refused before any work
    for problems in ([fem.RobinProblem(mesh=sq, beta=1.0),
                      fem.RobinProblem(mesh=other, beta=2.0)],
                     [fem.RobinProblem(mesh=sq, beta=1.0),
                      fem.RobinProblem(mesh=sq, beta=2.0, source=ones)]):
        with pytest.raises(ValueError, match="one mesh and one source"):
            verify.solve_records(problems, FLAT)
        with pytest.raises(ValueError, match="one mesh and one source"):
            verify.solve_level(problems)
    # nor does a level's solutions list that does not match its problems
    problems = [fem.RobinProblem(mesh=sq, beta=1.0), fem.RobinProblem(mesh=sq, beta=2.0)]
    with pytest.raises(ValueError, match="2 problems take 2 solutions, got 1"):
        verify.solve_records(problems, FLAT, solved=[None])


def test_solve_records_match_one_solve_per_beta():
    # a level's records: the solve of each beta alone, bit for bit, with one
    # rearrangement of the source
    disk = _disk(0.25)
    x, y = disk.vertices[:, 0], disk.vertices[:, 1]
    source = msh.ScalarField(mesh=disk, values=1.0 + np.exp(-4.0 * (x**2 + y**2)))
    problems = [fem.RobinProblem(mesh=disk, beta=beta, source=source)
                for beta in (0.5, 2.0)]
    level = verify.solve_records(problems, FLAT, eigen=True)
    assert level[0].fstar is level[1].fstar
    for rec, problem in zip(level, problems):
        alone = verify.solve_record(problem, FLAT, eigen=True)
        assert rec.problem is problem
        assert np.array_equal(rec.u.values, alone.u.values)
        assert np.array_equal(rec.v.values, alone.v.values)
        assert rec.eigen[0] == alone.eigen[0]
        assert rec.ball_eigenvalue == alone.ball_eigenvalue


def test_eigen_record_builds_one_robin_matrix(monkeypatch):
    built = []
    robin_matrix = fem.AssembledSystem.robin_matrix

    def counted(self, beta):
        built.append(beta)
        return robin_matrix(self, beta)

    monkeypatch.setattr(fem.AssembledSystem, "robin_matrix", counted)
    rec = _record(_disk(0.2), FLAT, 2.0, eigen=True)
    assert rec.eigen[1] is not None
    # the factor's; LOBPCG's products with K + beta B read K and B
    assert built == [2.0]


def test_a_refined_level_hands_its_stiffness_to_its_last_solver(monkeypatch):
    # the last beta's hierarchy builds K + beta B in the stiffness's buffer,
    # and its Poisson solve reads the load alone; the first beta's copies
    # K.  Each beta's u and lambda are those of the beta solved alone, whose
    # hierarchy takes the buffer over, bit for bit
    mesh = msh.refine(_square(0.15))
    problems = [fem.RobinProblem(mesh=mesh, beta=beta) for beta in (0.5, 4.0)]
    built, read = [], []
    robin_solver, solve_robin_poisson = fem.robin_solver, fem.solve_robin_poisson

    def solver(level_mesh, system, beta, coarse=None):
        lu = robin_solver(level_mesh, system, beta, coarse)
        if level_mesh is mesh:
            built.append((system, lu))
        return lu

    def poisson(problem, system, lu):
        read.append(system)
        return solve_robin_poisson(problem, system, lu)

    monkeypatch.setattr(fem, "robin_solver", solver)
    monkeypatch.setattr(fem, "solve_robin_poisson", poisson)
    both = verify.solve_level(problems, eigen=True)
    (first, _), (last, hierarchy) = built
    assert not first.taken and last.taken
    assert np.shares_memory(hierarchy.levels[-1].matrix[0], last.stiffness)
    assert read[0].stiffness is first.stiffness
    assert read[1].stiffness is read[1].boundary_values is read[1].pattern is None
    for problem, (u, (lam, ground)) in zip(problems, both):
        [(alone, (lam_alone, ground_alone))] = verify.solve_level([problem], eigen=True)
        assert u.values.tobytes() == alone.values.tobytes()
        assert ground.values.tobytes() == ground_alone.values.tobytes()
        assert lam == lam_alone


def test_equality_gaps_shrink_with_order_one():
    gaps = {"iso": [], "sv": [], "bd": [], "min": []}
    for h in (0.2, 0.1):
        disk = _disk(h)
        gaps["iso"].append(abs(verify.check_isoperimetric(disk, FLAT).gap))
        gaps["sv"].append(abs(_saint_venant(disk, FLAT, 1.0).gap))
        gaps["bd"].append(abs(_bossel_daners(disk, FLAT, 1.0).gap))
        gaps["min"].append(abs(verify.check_min_comparison(_record(disk)).gap))
    for name, (coarse, fine) in gaps.items():
        assert coarse / fine > 2.0, f"{name}: {coarse} vs {fine}"


# ---------------------------------------------------------------------------
# level-set functional


def test_eigen_test_field_admissible(caplog):
    disk = _disk(0.15)
    _, u = fem.solve_robin_eigen(disk, 1.0)
    with caplog.at_level("INFO", logger="robinsym.verify"):
        phi = verify.eigen_test_field(u, 1.0)
    assert float(np.min(phi.values)) >= 0.0
    assert float(np.max(phi.values[disk.boundary_vertices])) <= 1.0 + 1e-12
    # the hub vertex sits where the gradient vanishes
    r = np.hypot(disk.vertices[:, 0], disk.vertices[:, 1])
    assert phi.values[np.argmin(r)] < 0.3


def test_bossel_functional_matches_eigenvalue():
    disk = _disk(0.1)
    lam, u = fem.solve_robin_eigen(disk, 1.0)
    phi = verify.eigen_test_field(u, 1.0)
    umin = float(np.min(u.values))
    dist = rr.distribution_function(u)
    ts = np.linspace(umin + 0.03, 0.97, 10)
    errs = [abs(verify.bossel_functional(u, phi, 1.0, float(t), dist=dist) - lam)
            for t in ts]
    assert max(errs) < 0.05
    assert verify.bossel_functional(u, phi, 1.0, float(ts[4]), dist=dist) == \
        verify.bossel_functional(u, phi, 1.0, float(ts[4]))


def test_bossel_functional_radial_test_function():
    disk = _disk(0.1)
    lam, u = fem.solve_robin_eigen(disk, 1.0)
    ball = mg.GeodesicBall(FLAT, mg.radius_for_volume(FLAT, disk.total_measure()))
    lam_ball, vprof = radial_eigenpair(ball, 1.0)
    ld = log_derivative(vprof)
    r = np.hypot(disk.vertices[:, 0], disk.vertices[:, 1])
    phi_vals = np.clip(-np.interp(r, vprof.grid, ld), 0.0, None)
    bv = disk.boundary_vertices
    phi_vals[bv] = np.minimum(phi_vals[bv], 1.0)
    phi = msh.ScalarField(mesh=disk, values=phi_vals)
    for t in (0.7, 0.8, 0.9):
        assert abs(verify.bossel_functional(u, phi, 1.0, t) - lam_ball) < 0.05


def test_bossel_functional_perturbed_drops():
    sq = _square(0.1)
    lam, u = fem.solve_robin_eigen(sq, 1.0)
    phi = verify.eigen_test_field(u, 1.0)
    pert = msh.ScalarField(mesh=sq, values=np.minimum(phi.values * 0.5, 1.0))
    umin = float(np.min(u.values))
    vals = [verify.bossel_functional(u, pert, 1.0, float(t))
            for t in np.linspace(umin + 0.05, 0.95, 6)]
    assert min(vals) < lam - 0.1


def test_bossel_functional_validation():
    disk = _disk(0.2)
    lam, u = fem.solve_robin_eigen(disk, 1.0)
    phi = verify.eigen_test_field(u, 1.0)
    unnorm = msh.ScalarField(mesh=disk, values=0.9 * u.values)
    with pytest.raises(ValueError):
        verify.bossel_functional(unnorm, phi, 1.0, 0.8)
    with pytest.raises(ValueError):
        verify.bossel_functional(u, phi, 1.0, 1.5)
    neg = msh.ScalarField(mesh=disk, values=phi.values - 1.0)
    with pytest.raises(verify.AdmissibilityError):
        verify.bossel_functional(u, neg, 1.0, 0.8)
    big = msh.ScalarField(mesh=disk, values=np.full(len(disk.vertices), 2.0))
    with pytest.raises(verify.AdmissibilityError):
        verify.bossel_functional(u, big, 1.0, 0.8)
    other = _disk(0.2)
    alien = msh.ScalarField(mesh=other, values=np.zeros(len(other.vertices)))
    with pytest.raises(ValueError):
        verify.bossel_functional(u, alien, 1.0, 0.8)


# ---------------------------------------------------------------------------
# the per-edge and per-triangle loops the array clips replaced, kept as the
# oracle


def _oracle_superlevel_interval(a, b, t):
    if a >= t and b >= t:
        return 0.0, 1.0
    if a < t and b < t:
        return None
    s = (t - a) / (b - a)
    return (0.0, s) if a >= t else (s, 1.0)


def _oracle_edge_reciprocal(a, b, sig0, sig1, length, s0, s1):
    d = b - a
    if abs(d) <= 1e-13 * max(abs(a), abs(b)):
        mid = 0.5 * (s0 + s1)
        sig_mid = sig0 + (sig1 - sig0) * mid
        return length * sig_mid * (s1 - s0) / (a + d * mid)
    c1 = (sig1 - sig0) / d
    c0 = sig0 - a * c1
    return length * (c1 * (s1 - s0)
                     + (c0 / d) * math.log((a + d * s1) / (a + d * s0)))


def _oracle_edge_weighted_length(sig0, sig1, length, s0, s1):
    mid = 0.5 * (s0 + s1)
    return length * (s1 - s0) * (sig0 + (sig1 - sig0) * mid)


def _oracle_lemma31_exterior(u, t):
    a, b, sig0, sig1, lengths = verify._boundary_arrays(u)
    exterior = 0.0
    for k in range(len(a)):
        seg = _oracle_superlevel_interval(a[k], b[k], t)
        if seg is not None:
            exterior += _oracle_edge_reciprocal(a[k], b[k], sig0[k], sig1[k],
                                                lengths[k], *seg)
    return exterior


def _oracle_lemma32_lhs(u, t):
    a, b, sig0, sig1, lengths = verify._boundary_arrays(u)
    lhs = 0.0
    for k in range(len(a)):
        ak, bk = float(a[k]), float(b[k])
        high = _oracle_superlevel_interval(ak, bk, t)
        pieces = []
        if high is None:
            pieces.append((0.0, 1.0, False))
        elif high == (0.0, 1.0):
            pieces.append((0.0, 1.0, True))
        else:
            s0, s1 = high
            pieces.append((s0, s1, True))
            low = (s1, 1.0) if s0 == 0.0 else (0.0, s0)
            pieces.append((low[0], low[1], False))
        for s0, s1, is_high in pieces:
            if s1 - s0 <= 0.0:
                continue
            if is_high:
                lhs += 0.5 * t * t * _oracle_edge_reciprocal(
                    ak, bk, sig0[k], sig1[k], lengths[k], s0, s1)
            else:
                for g in verify._GAUSS2:
                    s = s0 + (s1 - s0) * g
                    sig = sig0[k] + (sig1[k] - sig0[k]) * s
                    lhs += 0.5 * (s1 - s0) * lengths[k] * sig * (ak + (bk - ak) * s) / 2.0
    return lhs


def _oracle_eigen_test_field(u, beta):
    mesh = u.mesh
    p = mesh.vertices[mesh.triangles]
    area = mesh.chart_areas()
    det = 2.0 * area
    vals = u.values[mesh.triangles]
    gx = (vals[:, 0] * (p[:, 1, 1] - p[:, 2, 1])
          + vals[:, 1] * (p[:, 2, 1] - p[:, 0, 1])
          + vals[:, 2] * (p[:, 0, 1] - p[:, 1, 1])) / det
    gy = (vals[:, 0] * (p[:, 2, 0] - p[:, 1, 0])
          + vals[:, 1] * (p[:, 0, 0] - p[:, 2, 0])
          + vals[:, 2] * (p[:, 1, 0] - p[:, 0, 0])) / det
    rho = mesh.centroid_density()
    if mesh.geometry == "warped":
        W = msh.warped_metric_tensors(mesh.warp, np.mean(p, axis=1))
        quad = (W[:, 0, 0] * gx * gx + 2.0 * W[:, 0, 1] * gx * gy
                + W[:, 1, 1] * gy * gy)
    else:
        quad = gx * gx + gy * gy
    grad_norm = np.sqrt(np.maximum(quad / rho, 0.0))
    areas = area * rho
    num = np.zeros(len(mesh.vertices))
    den = np.zeros(len(mesh.vertices))
    np.add.at(num, mesh.triangles.ravel(), np.repeat(areas * grad_norm, 3))
    np.add.at(den, mesh.triangles.ravel(), np.repeat(areas, 3))
    floor = 1e-12 * float(np.max(u.values))
    phi = np.maximum((num / den) / np.maximum(u.values, floor), 0.0)
    boundary = mesh.boundary_vertices
    phi[boundary] = np.minimum(phi[boundary], beta)
    return phi


def _oracle_barycentric_interp(p_tri, vertex_values, points):
    T = np.array([[p_tri[1, 0] - p_tri[0, 0], p_tri[2, 0] - p_tri[0, 0]],
                  [p_tri[1, 1] - p_tri[0, 1], p_tri[2, 1] - p_tri[0, 1]]])
    lam12 = np.linalg.solve(T, (points - p_tri[0]).T).T
    lam0 = 1.0 - lam12[:, 0] - lam12[:, 1]
    return (lam0 * vertex_values[0] + lam12[:, 0] * vertex_values[1]
            + lam12[:, 1] * vertex_values[2])


def _oracle_bossel_functional(u, phi, beta, t):
    mesh = u.mesh
    volume = rr.distribution_function(u).evaluate(t)
    a, b, sig0, sig1, lengths = verify._boundary_arrays(u)
    exterior = 0.0
    for k in range(len(a)):
        seg = _oracle_superlevel_interval(float(a[k]), float(b[k]), t)
        if seg is not None:
            exterior += _oracle_edge_weighted_length(sig0[k], sig1[k], lengths[k], *seg)

    p_all = mesh.vertices[mesh.triangles]
    uvals = u.values[mesh.triangles]
    pvals = phi.values[mesh.triangles]
    dens = mesh.density[mesh.triangles]
    interior = 0.0
    volume_term = 0.0
    for k in range(len(mesh.triangles)):
        uv = uvals[k]
        if float(np.max(uv)) < t:
            continue
        p_tri = p_all[k]
        if float(np.min(uv)) >= t:
            poly = [p_tri[0], p_tri[1], p_tri[2]]
            crossings = []
        else:
            poly = []
            crossings = []
            for i in range(3):
                j = (i + 1) % 3
                if uv[i] >= t:
                    poly.append(p_tri[i])
                if (uv[i] >= t) != (uv[j] >= t):
                    s = (t - uv[i]) / (uv[j] - uv[i])
                    point = p_tri[i] + s * (p_tri[j] - p_tri[i])
                    poly.append(point)
                    crossings.append(point)
        if len(crossings) == 2:
            seg = crossings[1] - crossings[0]
            chord = float(np.hypot(seg[0], seg[1]))
            if chord > 0.0:
                direction = seg / chord
                pts = np.array([crossings[0] + g * seg for g in verify._GAUSS2])
                factors = msh.length_factor(mesh.geometry, mesh.warp, pts,
                                            np.tile(direction, (2, 1)))
                phis = _oracle_barycentric_interp(p_tri, pvals[k], pts)
                interior += chord * 0.5 * float(np.sum(phis * factors))
        for i in range(1, len(poly) - 1):
            q0, q1, q2 = poly[0], poly[i], poly[i + 1]
            area = 0.5 * abs((q1[0] - q0[0]) * (q2[1] - q0[1])
                             - (q1[1] - q0[1]) * (q2[0] - q0[0]))
            if area <= 0.0:
                continue
            mids = np.array([0.5 * (q0 + q1), 0.5 * (q1 + q2), 0.5 * (q2 + q0)])
            phis = _oracle_barycentric_interp(p_tri, pvals[k], mids)
            rhos = _oracle_barycentric_interp(p_tri, dens[k], mids)
            volume_term += area / 3.0 * float(np.sum(phis * phis * rhos))
    return (beta * exterior + interior - volume_term) / volume


_ORACLE_DOMAINS = {
    "square": lambda: _square(0.1),
    "disk": lambda: _disk(0.12),
    "cap": lambda: msh.generate_domain("spherical_cap", target_h=0.12, theta=1.0),
    "cone": lambda: _disk(0.12, geometry="warped", warp=msh.warped_profile("cone", 0.6)),
}


def _oracle_thresholds(u, lo, hi):
    """Ten generic thresholds in (lo, hi), one interior and one boundary
    vertex value in there too."""
    vals = u.values
    boundary = np.zeros(len(vals), dtype=bool)
    boundary[u.mesh.boundary_vertices] = True
    inner = vals[~boundary & (vals > lo) & (vals < hi)]
    outer = vals[boundary & (vals > lo) & (vals < hi)]
    assert len(inner) and len(outer)
    picks = [float(inner[len(inner) // 2]), float(np.max(outer))]
    return np.concatenate([np.linspace(lo, hi, 12)[1:-1], picks])


def _close(new, old):
    np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", sorted(_ORACLE_DOMAINS))
def test_boundary_clips_match_loop_oracle(name):
    mesh = _ORACLE_DOMAINS[name]()
    rec = _record(mesh)
    u = rec.u
    umin, umax = float(np.min(u.values)), float(np.max(u.values))
    ts = _oracle_thresholds(u, umin, umax)
    # also below the minimum (every edge whole) and above the maximum (none)
    ts = np.concatenate([ts, [0.5 * umin, 2.0 * umax]])
    _close(verify._reciprocal_above(u, ts),
           [_oracle_lemma31_exterior(u, float(t)) for t in ts])
    for t in np.concatenate([ts, [math.inf]]):
        _close(verify.check_lemma_32(rec, float(t)).lhs,
               _oracle_lemma32_lhs(u, float(t)))


@pytest.mark.parametrize("name", sorted(_ORACLE_DOMAINS))
def test_triangle_clip_and_kernel_match_loop_oracle(name):
    mesh = _ORACLE_DOMAINS[name]()
    _, u = fem.solve_robin_eigen(mesh, 1.0)
    phi = verify.eigen_test_field(u, 1.0)
    _close(phi.values, _oracle_eigen_test_field(u, 1.0))
    dist = rr.distribution_function(u)
    for t in _oracle_thresholds(u, float(np.min(u.values)), 1.0):
        _close(verify.bossel_functional(u, phi, 1.0, float(t), dist=dist),
               _oracle_bossel_functional(u, phi, 1.0, float(t)))
