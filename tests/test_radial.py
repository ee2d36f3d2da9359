"""Radial solver tests: closed forms, ODE residuals, Bessel-root oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import j0, j1

from robinsym.model_geometry import GeodesicBall, ModelSpace, volume_profile
from robinsym.radial import (
    DegenerateBallError,
    MonotonicityError,
    PositivityError,
    RadialProfile,
    RadialSource,
    constant_source,
    flat_torsion_profile,
    log_derivative_profile,
    radial_distribution,
    solve_radial_eigen,
    solve_symmetrized_poisson,
    source_from_profile,
)

FLAT2 = ModelSpace(kappa=0, n=2, alpha=1.0)
SPHERE2 = ModelSpace(kappa=1, n=2, alpha=1.0)


def _uniform_step(grid):
    h = float(grid[1] - grid[0])
    assert np.allclose(np.diff(grid), h, rtol=0.0, atol=1e-12 * max(h, 1.0))
    return h


def _interior_ode_residual(grid, vals, coeff, rhs):
    """u'' + coeff(r) u' + rhs(r) at interior points, 4th-order stencils.

    Plain 3-point second differences of double-precision samples bottom out
    near 3e-8 (truncation ~h^2 against rounding ~eps/h^2 leaves no usable h),
    so the residual check subsamples and widens the stencil instead.
    """
    h = _uniform_step(grid)
    d2 = (-vals[:-4] + 16 * vals[1:-3] - 30 * vals[2:-2]
          + 16 * vals[3:-1] - vals[4:]) / (12 * h * h)
    d1 = (vals[:-4] - 8 * vals[1:-3] + 8 * vals[3:-1] - vals[4:]) / (12 * h)
    r = grid[2:-2]
    return d2 + coeff(r) * d1 + rhs(r)


def _right_derivative(grid, vals):
    # one-sided 4th-order first derivative at the last grid point
    h = _uniform_step(grid[-5:])
    return (3 * vals[-5] - 16 * vals[-4] + 36 * vals[-3]
            - 48 * vals[-2] + 25 * vals[-1]) / (12 * h)


def _poisson_residual(profile, beta, source, stride=64):
    space = profile.ball.space
    n = space.n
    if space.kappa == 0:
        coeff = lambda r: (n - 1) / r
    else:
        coeff = lambda r: (n - 1) / np.tan(r)
    g, v = profile.grid[::stride], profile.values[::stride]
    ode = float(np.max(np.abs(_interior_ode_residual(g, v, coeff, source))))
    robin = abs(_right_derivative(profile.grid, profile.values)
                + beta * profile.boundary_value)
    return ode, robin


def _flux_residual(profile, source):
    """|v' + (1/A) int_0^r f A| on the full grid, the once-integrated ODE.

    Robust to kinks of the source (the second-difference form is not).
    """
    from scipy.integrate import cumulative_simpson
    from robinsym.model_geometry import sphere_area

    space = profile.ball.space
    grid, vals = profile.grid, profile.values
    h = _uniform_step(grid)
    A = sphere_area(space, grid) / space.alpha
    g = np.concatenate([[0.0], cumulative_simpson(source(grid) * A, x=grid)])
    d1 = (vals[:-4] - 8 * vals[1:-3] + 8 * vals[3:-1] - vals[4:]) / (12 * h)
    return float(np.max(np.abs(d1 + g[2:-2] / A[2:-2])))


# ---------------------------------------------------------------------------
# symmetrized Poisson


def test_flat_torsion_closed_form():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    v = solve_symmetrized_poisson(ball, 1.0, constant_source(ball))
    assert abs(v.values[0] - 0.75) < 1e-10
    assert abs(v.boundary_value - 0.5) < 1e-10
    exact = (1.0 - v.grid**2) / 4.0 + 0.5
    assert float(np.max(np.abs(v.values - exact))) < 1e-10
    ref = flat_torsion_profile(ball, 1.0)
    assert np.allclose(v(ref.grid), ref.values, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("n,R,beta", [(3, 1.7, 0.7), (5, 0.9, 2.3)])
def test_flat_torsion_general_dimension(n, R, beta):
    space = ModelSpace(kappa=0, n=n, alpha=1.0)
    ball = GeodesicBall(space=space, radius=R)
    v = solve_symmetrized_poisson(ball, beta, constant_source(ball))
    exact = (R**2 - v.grid**2) / (2 * n) + R / (n * beta)
    err = float(np.max(np.abs(v.values - exact))) / exact[0]
    assert err < 1e-10


def test_cap_torsion_ode_residual():
    ball = GeodesicBall(space=SPHERE2, radius=math.pi / 2)
    source = constant_source(ball)
    v = solve_symmetrized_poisson(ball, 1.0, source)
    ode, robin = _poisson_residual(v, 1.0, source)
    assert ode < 1e-8
    assert robin < 1e-8


def test_flat_torsion_ode_residual():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    source = constant_source(ball)
    v = solve_symmetrized_poisson(ball, 1.0, source)
    ode, robin = _poisson_residual(v, 1.0, source)
    assert ode < 1e-8
    assert robin < 1e-8


def test_decreasing_source_residual_and_monotonicity():
    ball = GeodesicBall(space=SPHERE2, radius=1.2)
    grid = np.linspace(0.0, 1.2, 257)
    source = RadialSource(grid, np.exp(-grid**2))
    v = solve_symmetrized_poisson(ball, 0.5, source)
    assert _flux_residual(v, source) < 1e-8
    robin = abs(_right_derivative(v.grid, v.values) + 0.5 * v.boundary_value)
    assert robin < 1e-8
    assert float(np.max(np.diff(v.values))) <= 1e-12 * v.values[0]
    assert float(np.min(v.values)) > 0.0


def test_cone_angle_cancels_in_reduction():
    narrow = ModelSpace(kappa=1, n=2, alpha=0.6)
    full = ModelSpace(kappa=1, n=2, alpha=1.0)
    va = solve_symmetrized_poisson(
        GeodesicBall(space=narrow, radius=1.2), 0.7,
        constant_source(GeodesicBall(space=narrow, radius=1.2)))
    vb = solve_symmetrized_poisson(
        GeodesicBall(space=full, radius=1.2), 0.7,
        constant_source(GeodesicBall(space=full, radius=1.2)))
    assert np.allclose(va.values, vb.values, rtol=1e-13, atol=0.0)


def test_poisson_output_grid_density():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    v = solve_symmetrized_poisson(ball, 1.0, constant_source(ball))
    assert len(v.grid) >= 32769
    # the density knob only changes the starting grid, not the answer
    w = solve_symmetrized_poisson(ball, 1.0, constant_source(ball), n0=64)
    assert np.allclose(w.values, v(w.grid), rtol=0.0, atol=1e-10)


def test_poisson_rejects_bad_beta():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    src = constant_source(ball)
    with pytest.raises(ValueError):
        solve_symmetrized_poisson(ball, 0.0, src)
    with pytest.raises(ValueError):
        solve_symmetrized_poisson(ball, -2.0, src)


def test_poisson_rejects_degenerate_cap():
    ball = GeodesicBall(space=SPHERE2, radius=math.pi)
    with pytest.raises(DegenerateBallError):
        solve_symmetrized_poisson(ball, 1.0, constant_source(ball))


def test_flat_closed_form_rejects_cap():
    with pytest.raises(ValueError):
        flat_torsion_profile(GeodesicBall(space=SPHERE2, radius=1.0), 1.0)


# ---------------------------------------------------------------------------
# radial Robin eigenvalue


def _bisect_bessel_zero(lo, hi):
    # first zero of J_0 by plain bisection, independent of the secular root
    flo = j0(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = j0(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_eigen_disk_stiff_limit_hits_dirichlet():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    lam, u = solve_radial_eigen(ball, 1e6)
    j01 = _bisect_bessel_zero(2.0, 3.0)
    assert abs(lam - j01**2) < 1e-3
    assert u.values[0] == 1.0
    assert float(np.min(u.values)) > 0.0


def test_eigen_disk_bessel_condition():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    lam, u = solve_radial_eigen(ball, 1.0)
    k = brentq(lambda t: t * j1(t) - j0(t), 1.0, 2.0, xtol=1e-14)
    assert abs(lam - k * k) < 1e-9
    # eigenfunction shape against the Bessel profile itself
    probe = np.linspace(0.0, 1.0, 23)
    assert np.allclose(u(probe), j0(k * probe), rtol=0.0, atol=1e-7)


def test_eigen_ball_three_dims():
    # for n=3, u = sin(kr)/(kr) and beta=1 makes the boundary condition
    # collapse to cos k = 0, so the eigenvalue is exactly pi^2/4
    space = ModelSpace(kappa=0, n=3, alpha=1.0)
    lam, _ = solve_radial_eigen(GeodesicBall(space=space, radius=1.0), 1.0)
    assert abs(lam - math.pi**2 / 4) < 1e-9


def test_eigen_decreasing_in_radius():
    lam1, _ = solve_radial_eigen(GeodesicBall(space=FLAT2, radius=1.0), 1.0)
    lam2, _ = solve_radial_eigen(GeodesicBall(space=FLAT2, radius=2.0), 1.0)
    assert abs(lam1 - 1.5769927308134737) < 1e-9
    assert lam1 > lam2
    lc1, _ = solve_radial_eigen(GeodesicBall(space=SPHERE2, radius=1.0), 1.0)
    lc2, _ = solve_radial_eigen(GeodesicBall(space=SPHERE2, radius=1.5), 1.0)
    assert lc1 > lc2


@pytest.mark.parametrize("n,R,beta,expected", [
    (2, 1.0, 1.0, 1.4459779225320972),
    (3, 1.0, 1.0, 2.1339005681139476),
    (4, 2.0, 3.0, 1.0126726347816255),
], ids=["S2", "S3", "S4"])
def test_eigen_cap_regression_and_residuals(n, R, beta, expected):
    ball = GeodesicBall(space=ModelSpace(kappa=1, n=n, alpha=1.0), radius=R)
    lam, u = solve_radial_eigen(ball, beta)
    assert abs(lam - expected) < 1e-9 * lam
    robin = abs(_right_derivative(u.grid, u.values) + beta * u.boundary_value)
    assert robin < 1e-8
    # ODE residual on every 8th point of the uniform profile grid: the
    # stencil's h^4 truncation reaches 1.2e-7 at every 32nd point on the
    # R=2 cap, while rounding stays below 1e-9 at this spacing
    g, v = u.grid[::8], u.values[::8]
    res = _interior_ode_residual(g, v, lambda r: (n - 1) / np.tan(r),
                                 lambda r: lam * np.interp(r, u.grid, u.values))
    assert float(np.max(np.abs(res))) < 1e-8


@pytest.mark.parametrize("R,beta", [(3.0, 1e6), (3.1, 1e6), (2.5, 10.0)])
def test_eigen_s3_matches_mpmath_root(R, beta):
    # a stiff beta near the antipode puts u(R) close to the ground state's
    # zero, where scipy's hyp2f1 loses absolute accuracy (lambda was off by
    # 3.3e-9 at R=3 and 3.8e-7 at R=3.1, beta=1e6); the oracle is the
    # hypergeometric secular function in 30-digit arithmetic
    ball = GeodesicBall(space=ModelSpace(kappa=1, n=3, alpha=1.0), radius=R)
    lam, _ = solve_radial_eigen(ball, beta)

    def secular(t):
        root = mpmath.sqrt(1 + t)
        z = mpmath.sin(mpmath.mpf(R) / 2) ** 2
        u = mpmath.hyp2f1(1 + root, 1 - root, 1.5, z)
        du = -(t / 3) * mpmath.sin(R) * mpmath.hyp2f1(2 + root, 2 - root, 2.5, z)
        return du + beta * u

    with mpmath.workdps(30):
        expected = float(mpmath.findroot(secular, lam))
    assert abs(lam - expected) < 1e-11 * expected


def test_eigen_disk_robin_residual():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    beta = 2.5
    lam, u = solve_radial_eigen(ball, beta)
    assert abs(_right_derivative(u.grid, u.values) + beta * u.boundary_value) < 1e-8
    g, v = u.grid[::32], u.values[::32]
    res = _interior_ode_residual(g, v, lambda r: 1.0 / r,
                                 lambda r: lam * np.interp(r, u.grid, u.values))
    assert float(np.max(np.abs(res))) < 1e-8


def test_eigen_validation():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    with pytest.raises(ValueError):
        solve_radial_eigen(ball, 0.0)
    with pytest.raises(DegenerateBallError):
        solve_radial_eigen(GeodesicBall(space=SPHERE2, radius=math.pi - 1e-4), 1.0)


# ---------------------------------------------------------------------------
# log-derivative test function


def test_log_derivative_of_ground_state():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    beta = 1.0
    _, u = solve_radial_eigen(ball, beta)
    ld = log_derivative_profile(u)
    assert abs(ld.values[0]) < 1e-6
    assert np.all(np.diff(ld.values) < 0.0)
    assert np.all(-ld.values[:-1] < beta)
    # at the boundary the Robin condition pins u'/u to -beta
    assert abs(-ld.boundary_value - beta) < 1e-6


def test_log_derivative_cap():
    _, u = solve_radial_eigen(GeodesicBall(space=SPHERE2, radius=1.0), 0.8)
    ld = log_derivative_profile(u)
    assert abs(ld.values[0]) < 1e-6
    assert np.all(np.diff(ld.values) < 0.0)
    assert np.all(-ld.values[:-1] < 0.8)


def test_log_derivative_requires_positive_profile():
    grid = np.linspace(0.0, 1.0, 65)
    prof = RadialProfile(ball=GeodesicBall(space=FLAT2, radius=1.0),
                         grid=grid, values=1.0 - grid)
    with pytest.raises(PositivityError):
        log_derivative_profile(prof)


def test_log_derivative_rejects_oscillation():
    grid = np.linspace(0.0, 1.0, 129)
    prof = RadialProfile(ball=GeodesicBall(space=FLAT2, radius=1.0),
                         grid=grid, values=2.0 + np.sin(5.0 * grid))
    with pytest.raises(MonotonicityError):
        log_derivative_profile(prof)


# ---------------------------------------------------------------------------
# radial distribution data


def test_radial_distribution_torsion_levels():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    v = solve_symmetrized_poisson(ball, 1.0, constant_source(ball))
    dist = radial_distribution(v, FLAT2)
    # superlevel sets of the torsion function are concentric disks
    probe = v.grid[:: len(v.grid) // 100]
    mu = dist.evaluate(v(probe))
    assert float(np.max(np.abs(mu - math.pi * probe**2))) < 1e-9


def test_radial_distribution_saturates():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    v = solve_symmetrized_poisson(ball, 1.0, constant_source(ball))
    dist = radial_distribution(v, FLAT2)
    total = float(volume_profile(FLAT2, 1.0))
    assert dist.evaluate(0.9 * v.boundary_value) == pytest.approx(total, abs=1e-12)
    assert dist.evaluate(0.0) == pytest.approx(total, abs=1e-12)
    assert dist.evaluate(v.values[0]) == 0.0
    assert dist.evaluate(v.values[0] + 1.0) == 0.0


def test_radial_distribution_needs_monotone_profile():
    grid = np.linspace(0.0, 1.0, 65)
    prof = RadialProfile(ball=GeodesicBall(space=FLAT2, radius=1.0),
                         grid=grid, values=grid.copy())
    with pytest.raises(MonotonicityError):
        radial_distribution(prof, FLAT2)


# ---------------------------------------------------------------------------
# types, sources, export


def test_radial_profile_validation():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    good_grid = np.linspace(0.0, 1.0, 65)
    with pytest.raises(ValueError):
        RadialProfile(ball=ball, grid=np.linspace(0.0, 1.0, 40),
                      values=np.zeros(40))
    with pytest.raises(ValueError):
        RadialProfile(ball=ball, grid=good_grid + 0.1, values=np.zeros(65))
    with pytest.raises(ValueError):
        RadialProfile(ball=ball, grid=good_grid[::-1], values=np.zeros(65))
    with pytest.raises(ValueError):
        RadialProfile(ball=ball, grid=good_grid * 0.5, values=np.zeros(65))
    with pytest.raises(ValueError):
        RadialProfile(ball=ball, grid=good_grid, values=np.full(65, np.nan))
    with pytest.raises(ValueError):
        RadialProfile(ball=ball, grid=good_grid, values=np.zeros(64))


def test_radial_source_validation():
    grid = np.linspace(0.0, 1.0, 33)
    with pytest.raises(ValueError):
        RadialSource(grid, np.full(33, -1.0))
    with pytest.raises(MonotonicityError):
        RadialSource(grid, grid.copy())
    with pytest.raises(ValueError):
        RadialSource(grid[::-1], np.ones(33))


def test_source_from_profile():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    prof = flat_torsion_profile(ball, 1.0)
    src = source_from_profile(prof)
    assert np.allclose(src.values, prof.values)
    assert float(np.min(src.values)) >= 0.0


def test_profile_csv_roundtrip(tmp_path):
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    prof = flat_torsion_profile(ball, 2.0)
    path = tmp_path / "torsion.csv"
    prof.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,value"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], prof.grid)
    assert np.array_equal(data[:, 1], prof.values)
