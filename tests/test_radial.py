"""Radial solver tests: closed forms, ODE residuals, Bessel-root oracles."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j0, j1

from robinsym import fem, rearrange
from robinsym.mesh import BLOCK, sorted_unique
from robinsym.model_geometry import (
    GeodesicBall,
    ModelSpace,
    radii_for_volumes,
    volume_profile,
    volume_profile_derivative,
)
from robinsym.radial import (
    _GL4,
    _GRID_CELLS,
    DegenerateBallError,
    RadialProfile,
    _ground_state,
    solve_radial_eigen,
    solve_symmetrized_poisson,
)
from robinsym.rearrange import (
    DistributionData,
    decreasing_rearrangement,
    schwarz_rearrangement,
)

from radial_oracles import (
    field_twin,
    flat_torsion_profile,
    ground_state_profile,
    log_derivative,
    profile_distribution,
    radial_eigenpair,
    single_block_twin,
)

FLAT2 = ModelSpace(kappa=0, n=2, alpha=1.0)
FLAT3 = ModelSpace(kappa=0, n=3, alpha=1.0)
SPHERE2 = ModelSpace(kappa=1, n=2, alpha=1.0)
SPHERE3 = ModelSpace(kappa=1, n=3, alpha=1.0)


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


def _unit(r):
    return np.ones_like(r)


def _schwarz(fstar, space):
    """The Schwarz rearrangement r -> f*(V(r)) of a decreasing rearrangement."""
    return lambda r: fstar(np.minimum(volume_profile(space, r), fstar.total))


_FIELD_TWINS = [(FLAT2, "square", {"side": 1.0}), (SPHERE2, "spherical_cap", {"theta": 1.0})]


# ---------------------------------------------------------------------------
# symmetrized Poisson


def test_flat_torsion_closed_form():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    v = solve_symmetrized_poisson(ball, 1.0)
    assert abs(v.values[0] - 0.75) < 1e-10
    assert abs(v.boundary_value - 0.5) < 1e-10
    exact = (1.0 - v.grid**2) / 4.0 + 0.5
    assert float(np.max(np.abs(v.values - exact))) < 1e-10
    ref = flat_torsion_profile(ball, 1.0)
    assert np.allclose(v(ref.grid), ref.values, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("n,R,beta", [(3, 1.7, 0.7), (5, 0.9, 2.3),
                                      (2, 1.0 / math.sqrt(math.pi), 0.1),
                                      (2, 1.0 / math.sqrt(math.pi), 10.0)])
def test_flat_torsion_general_dimension(n, R, beta):
    space = ModelSpace(kappa=0, n=n, alpha=1.0)
    ball = GeodesicBall(space=space, radius=R)
    v = solve_symmetrized_poisson(ball, beta)
    exact = (R**2 - v.grid**2) / (2 * n) + R / (n * beta)
    assert float(np.max(np.abs(v.values - exact) / exact)) < 1e-13


@pytest.mark.parametrize("R,beta", [(1.0, 0.1), (1.0, 1.0), (1.0, 10.0), (2.5, 1.0)])
def test_cap_torsion_closed_form(R, beta):
    # on S^2, V/A = tan(r/2), so v = 2 ln(cos(r/2) / cos(R/2)) + tan(R/2)/beta
    v = solve_symmetrized_poisson(GeodesicBall(space=SPHERE2, radius=R), beta)
    exact = 2.0 * np.log(np.cos(v.grid / 2) / np.cos(R / 2)) + np.tan(R / 2) / beta
    assert float(np.max(np.abs(v.values - exact) / exact)) < 1e-13


def test_cap_torsion_ode_residual():
    ball = GeodesicBall(space=SPHERE2, radius=math.pi / 2)
    v = solve_symmetrized_poisson(ball, 1.0)
    ode, robin = _poisson_residual(v, 1.0, _unit)
    assert ode < 1e-8
    assert robin < 1e-8


def test_flat_torsion_ode_residual():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    v = solve_symmetrized_poisson(ball, 1.0)
    ode, robin = _poisson_residual(v, 1.0, _unit)
    assert ode < 1e-8
    assert robin < 1e-8


def test_decreasing_source_residual_and_monotonicity():
    ball = GeodesicBall(space=SPHERE2, radius=1.2)
    grid = np.linspace(0.0, 1.2, 257)
    profile = RadialProfile(ball=ball, grid=grid, values=np.exp(-grid**2))
    fstar = decreasing_rearrangement(profile_distribution(profile, SPHERE2))
    v = solve_symmetrized_poisson(ball, 0.5, fstar)
    assert _flux_residual(v, _schwarz(fstar, SPHERE2)) < 1e-8
    robin = abs(_right_derivative(v.grid, v.values) + 0.5 * v.boundary_value)
    assert robin < 1e-8
    assert float(np.max(np.diff(v.values))) <= 1e-12 * v.values[0]
    assert float(np.min(v.values)) > 0.0


@pytest.mark.parametrize("space,domain,kw", _FIELD_TWINS, ids=["square", "cap"])
def test_field_twin_robin_flux_balance(space, domain, kw):
    # the twin's flux through the boundary sphere is the whole source
    fstar, v = field_twin(space, domain, 0.7, **kw)
    outflux = v.boundary_value * 0.7 * volume_profile_derivative(space, v.ball.radius)
    total = fstar.cumulative(fstar.total)
    assert abs(outflux - total) < 1e-13 * total


@pytest.mark.parametrize("space,domain,kw", _FIELD_TWINS, ids=["square", "cap"])
def test_field_twin_matches_mpmath_quadrature(space, domain, kw):
    # v(r) = v(R) + int_r^R cum(V(s)) / A(s) ds, by tanh-sinh quadrature on
    # each interval between the radii where f* changes analytic form
    beta = 1.3
    fstar, v = field_twin(space, domain, beta, **kw)
    R = v.ball.radius

    def flux(s):
        w = min(volume_profile(space, float(s)), fstar.total)
        return float(fstar.cumulative(w)) / volume_profile_derivative(space, float(s))

    probes = [0, 4000, 16384, 29000, 32767]
    kinks = radii_for_volumes(space, fstar.kinks())
    stops = np.unique(np.concatenate([v.grid[probes], kinks[kinks < R], [R]]))
    value = mpmath.mpf(flux(R)) / beta
    expected = {}
    for lo, hi in zip(stops[-2::-1], stops[:0:-1]):
        value += mpmath.quad(flux, [lo, hi])
        expected[lo] = float(value)
    for k in probes:
        got, want = v.values[k], expected[v.grid[k]]
        assert abs(got - want) < 1e-12 * want


def test_step_source_twin_closed_form():
    # f# = 2 on the inner half of the unit disk's area and 1 outside: the
    # flux V + min(V, pi/2) kinks at r_h = 1/sqrt(2), inside a grid cell
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    half = 0.5 * math.pi
    # mu = pi below t = 1, pi/2 on [1, 2), 0 from 2 on
    step = DistributionData([0.0, 1.0, 2.0], [math.pi, math.pi, half, 0.0],
                            [0.0] * 4, [0.0] * 4, math.pi)
    beta = 0.8
    v = solve_symmetrized_poisson(ball, beta, decreasing_rearrangement(step))
    # int_r^1 of s (inside r_h) and of s/2 + 1/(4s) (outside), plus v(1)
    r = v.grid
    rc = np.maximum(r, math.sqrt(0.5))
    exact = (3.0 / (4.0 * beta) + (1.0 - rc**2) / 4.0 - np.log(rc) / 4.0
             + (rc**2 - r**2) / 2.0)
    assert float(np.max(np.abs(v.values - exact) / exact)) < 1e-13


def test_twin_keeps_exact_slope():
    # -v' = V/A: r/n in the flat n-ball, tan(r/2) on S^2, and 0 at the center
    flat3 = ModelSpace(kappa=0, n=3, alpha=1.0)
    v = solve_symmetrized_poisson(GeodesicBall(space=flat3, radius=0.8), 1.0)
    assert v.slope[0] == 0.0
    assert np.allclose(v.slope, v.grid / 3.0, rtol=1e-15, atol=0.0)
    cap = solve_symmetrized_poisson(GeodesicBall(space=SPHERE2, radius=2.5), 1.0)
    assert cap.slope[0] == 0.0
    assert np.allclose(cap.slope, np.tan(cap.grid / 2.0), rtol=1e-14, atol=0.0)
    # the Schwarz profile carries none
    fstar, _ = field_twin(FLAT2, "square", 1.0, side=1.0)
    assert schwarz_rearrangement(fstar.dist, FLAT2).slope is None


def test_gauss_rules_are_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss
    for n in range(1, 17):
        for got, want in zip(rearrange._gauss_rule(n), leggauss(n)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n
    assert all(a.tobytes() == b.tobytes() for a, b in zip(_GL4, leggauss(4)))


def _block_edge_source(space, R):
    """f* of a decreasing profile sampled at radii on, one to three ulps
    beside, and 0.3, 0.7 and 1 cell beside each inner block edge of the
    twin's grid.  The profile is 3 - (r/R)^2 less 1e-3 k^2 past the k-th of
    these radii, so f* changes slope at each of them (a kink at a cell's
    midpoint would leave the symmetric Gauss rule exact)."""
    cell = R / _GRID_CELLS
    edges = np.linspace(0.0, R, _GRID_CELLS + 1)[BLOCK:-1:BLOCK]
    near = [edges] + [edges + d * cell for d in (-1.0, -0.7, -0.3, 0.3, 0.7, 1.0)]
    for side in (0.0, R):
        step = edges
        for _ in range(3):
            step = np.nextafter(step, side)
            near.append(step)
    near = sorted_unique(np.concatenate(near))
    radii = sorted_unique(np.concatenate([np.linspace(0.0, R, 257), near]))
    drops = np.searchsorted(near, radii, side="right")
    profile = RadialProfile(ball=GeodesicBall(space=space, radius=R), grid=radii,
                            values=3.0 - (radii / R) ** 2 - 1e-3 * drops**2)
    return decreasing_rearrangement(profile_distribution(profile, space))


_TWIN_BALLS = [(FLAT2, 1.0), (FLAT3, 0.8), (SPHERE2, 2.5), (SPHERE3, 2.0)]


@pytest.mark.parametrize("space,R", _TWIN_BALLS, ids=["flat2", "flat3", "s2", "s3"])
def test_twin_blocks_match_one_block(space, R):
    # the quadrature in blocks of cells sums the same terms in the same order
    # as over the whole grid at once: unit source, and kinks on and next to
    # the block edges, where the cells they split stay in their own block
    ball = GeodesicBall(space=space, radius=R)
    fstar = _block_edge_source(space, R)
    kinks = radii_for_volumes(space, fstar.kinks())
    edges = np.linspace(0.0, R, _GRID_CELLS + 1)[BLOCK:-1:BLOCK]
    offset = np.abs(kinks[:, None] - edges)
    assert np.any(offset == 0.0)
    assert np.any((offset > 0.0) & (offset < 1e-3 * R / _GRID_CELLS))
    for source in (None, fstar):
        got = solve_symmetrized_poisson(ball, 0.7, source)
        want = single_block_twin(ball, 0.7, source)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.slope.tobytes() == want.slope.tobytes()


@pytest.mark.parametrize("space,domain,kw", _FIELD_TWINS, ids=["square", "cap"])
def test_field_twin_blocks_match_one_block(space, domain, kw):
    fstar, v = field_twin(space, domain, 1.3, **kw)
    want = single_block_twin(v.ball, 1.3, fstar)
    assert v.values.tobytes() == want.values.tobytes()
    assert v.slope.tobytes() == want.slope.tobytes()


def test_poisson_rejects_mismatched_source():
    fstar, v = field_twin(FLAT2, "square", 1.0, side=1.0)
    bigger = GeodesicBall(space=FLAT2, radius=v.ball.radius * (1.0 + 1e-6))
    with pytest.raises(ValueError, match="does not match"):
        solve_symmetrized_poisson(bigger, 1.0, fstar)


def test_cone_angle_cancels_in_reduction():
    narrow = ModelSpace(kappa=1, n=2, alpha=0.6)
    full = ModelSpace(kappa=1, n=2, alpha=1.0)
    va = solve_symmetrized_poisson(GeodesicBall(space=narrow, radius=1.2), 0.7)
    vb = solve_symmetrized_poisson(GeodesicBall(space=full, radius=1.2), 0.7)
    assert np.allclose(va.values, vb.values, rtol=1e-13, atol=0.0)


def test_poisson_output_grid_density():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    v = solve_symmetrized_poisson(ball, 1.0)
    assert len(v.grid) >= 32769


def test_poisson_rejects_bad_beta():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    with pytest.raises(ValueError):
        solve_symmetrized_poisson(ball, 0.0)
    with pytest.raises(ValueError):
        solve_symmetrized_poisson(ball, -2.0)


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("solve", [solve_symmetrized_poisson, solve_radial_eigen])
def test_radial_solvers_refuse_beta_as_the_robin_problem_does(solve, beta):
    # nan had reached the twin's profile check and the eigen scan's cap, an
    # EigenBracketError; inf had returned a profile
    with pytest.raises(ValueError) as expected:
        fem._check_beta(beta)
    with pytest.raises(ValueError) as raised:
        solve(GeodesicBall(space=FLAT2, radius=1.0), beta)
    assert type(raised.value) is ValueError
    assert str(raised.value) == str(expected.value)


def test_poisson_rejects_degenerate_cap():
    ball = GeodesicBall(space=SPHERE2, radius=math.pi)
    with pytest.raises(DegenerateBallError):
        solve_symmetrized_poisson(ball, 1.0)


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
    lam, u = radial_eigenpair(ball, 1e6)
    j01 = _bisect_bessel_zero(2.0, 3.0)
    assert abs(lam - j01**2) < 1e-3
    assert u.values[0] == 1.0
    assert float(np.min(u.values)) > 0.0


def test_eigen_disk_bessel_condition():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    lam, u = radial_eigenpair(ball, 1.0)
    k = brentq(lambda t: t * j1(t) - j0(t), 1.0, 2.0, xtol=1e-14)
    assert abs(lam - k * k) < 1e-9
    # eigenfunction shape against the Bessel profile itself
    probe = np.linspace(0.0, 1.0, 23)
    assert np.allclose(u(probe), j0(k * probe), rtol=0.0, atol=1e-7)


def test_eigen_ball_three_dims():
    # for n=3, u = sin(kr)/(kr) and beta=1 makes the boundary condition
    # collapse to cos k = 0, so the eigenvalue is exactly pi^2/4
    space = ModelSpace(kappa=0, n=3, alpha=1.0)
    lam = solve_radial_eigen(GeodesicBall(space=space, radius=1.0), 1.0)
    assert abs(lam - math.pi**2 / 4) < 1e-9


def test_eigen_decreasing_in_radius():
    lam1 = solve_radial_eigen(GeodesicBall(space=FLAT2, radius=1.0), 1.0)
    lam2 = solve_radial_eigen(GeodesicBall(space=FLAT2, radius=2.0), 1.0)
    assert abs(lam1 - 1.5769927308134737) < 1e-9
    assert lam1 > lam2
    lc1 = solve_radial_eigen(GeodesicBall(space=SPHERE2, radius=1.0), 1.0)
    lc2 = solve_radial_eigen(GeodesicBall(space=SPHERE2, radius=1.5), 1.0)
    assert lc1 > lc2


@pytest.mark.parametrize("n,R,beta,expected", [
    (2, 1.0, 1.0, 1.4459779225320972),
    (3, 1.0, 1.0, 2.1339005681139476),
    (4, 2.0, 3.0, 1.0126726347816255),
], ids=["S2", "S3", "S4"])
def test_eigen_cap_regression_and_residuals(n, R, beta, expected):
    ball = GeodesicBall(space=ModelSpace(kappa=1, n=n, alpha=1.0), radius=R)
    lam, u = radial_eigenpair(ball, beta)
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


def _mpmath_secular(n, R, beta):
    # the hypergeometric secular function u'(R) + beta u(R) on S^n, the
    # oracle to be evaluated in 30-digit arithmetic
    half = mpmath.mpf(n - 1) / 2
    c = mpmath.mpf(n) / 2

    def secular(t):
        z = mpmath.sin(mpmath.mpf(R) / 2) ** 2
        root = mpmath.sqrt(half * half + t)
        a, b = half + root, half - root
        du = -(t / n) * mpmath.sin(R) * mpmath.hyp2f1(a + 1, b + 1, c + 1, z)
        return du + beta * mpmath.hyp2f1(a, b, c, z)

    return secular


@pytest.mark.parametrize("R,beta", [(3.0, 1e6), (3.1, 1e6), (2.5, 10.0)])
def test_eigen_s3_matches_mpmath_root(R, beta):
    # a stiff beta near the antipode puts u(R) close to the ground state's
    # zero, where scipy's hyp2f1 loses absolute accuracy (lambda was off by
    # 3.3e-9 at R=3 and 3.8e-7 at R=3.1, beta=1e6); the oracle is the
    # hypergeometric secular function in 30-digit arithmetic
    ball = GeodesicBall(space=ModelSpace(kappa=1, n=3, alpha=1.0), radius=R)
    lam = solve_radial_eigen(ball, beta)
    with mpmath.workdps(30):
        expected = float(mpmath.findroot(_mpmath_secular(3, R, beta), lam))
    assert abs(lam - expected) < 1e-11 * expected


@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0, 100.0, 1e3, 1e6])
@pytest.mark.parametrize("R", [2.5, 2.9, 3.0, 3.1])
@pytest.mark.parametrize("n", [2, 4])
def test_eigen_even_sphere_near_antipode_matches_mpmath_root(n, R, beta):
    # on even n scipy's hyp2f1 returns +-inf or nan for some lambda when
    # R >= 2.9; a -inf sample once bracketed a spurious root (S^2, R = 3.1,
    # beta = 10 gave 0.073099 against the true 0.085881)
    ball = GeodesicBall(space=ModelSpace(kappa=1, n=n, alpha=1.0), radius=R)
    lam = solve_radial_eigen(ball, beta)
    with mpmath.workdps(30):
        expected = float(mpmath.findroot(_mpmath_secular(n, R, beta), lam))
    assert abs(lam - expected) < 1e-10 * expected


@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0, 1e6])
def test_eigen_s2_at_the_antipode_guard_matches_mpmath_root(beta):
    # R = 3.14 sits just inside the guard R < pi - 1e-3, where the ground
    # state is summed in the Frobenius basis at the antipode
    ball = GeodesicBall(space=SPHERE2, radius=3.14)
    lam = solve_radial_eigen(ball, beta)
    with mpmath.workdps(30):
        expected = float(mpmath.findroot(_mpmath_secular(2, 3.14, beta), lam))
    assert abs(lam - expected) < 1e-12 * expected


def _mpmath_ground_state(kappa, n, lam, r):
    # u and u' of the closed forms, 0F1 when flat and 2F1 on the sphere
    lam, r = mpmath.mpf(lam), mpmath.mpf(r)
    c = mpmath.mpf(n) / 2
    if kappa == 0:
        x = -lam * r * r / 4
        return mpmath.hyp0f1(c, x), -(lam * r / n) * mpmath.hyp0f1(c + 1, x)
    half = mpmath.mpf(n - 1) / 2
    root = mpmath.sqrt(half * half + lam)
    z = mpmath.sin(r / 2) ** 2
    return (mpmath.hyp2f1(half + root, half - root, c, z),
            -(lam / n) * mpmath.sin(r) * mpmath.hyp2f1(half + root + 1, half - root + 1, c + 1, z))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("kappa", [0, 1])
def test_ground_state_matches_mpmath(kappa, n):
    # lambda runs from 0 to just below the ball's Dirichlet root, past every
    # Robin root the scan brackets; radii reach the antipode guard, where the
    # sphere's series runs in the Frobenius basis at the antipode (n = 6 is
    # the first whose connection constant has a harmonic-number term)
    radii = (0.3, 1.0, 2.5) if kappa == 0 else (0.3, 1.0, 2.0, 2.9, math.pi - 1.1e-3)
    space = ModelSpace(kappa=kappa, n=n, alpha=1.0)
    for R in radii:
        dirichlet = solve_radial_eigen(GeodesicBall(space=space, radius=R), 1e8)
        lam, r = np.meshgrid(dirichlet * np.array([0.0, 1e-6, 0.1, 0.5, 0.99]),
                             [0.0, 0.5 * R, R])
        u, du = _ground_state(space, lam, r)
        with mpmath.workdps(30):
            for args, got_u, got_du in zip(zip(lam.ravel(), r.ravel()), u.ravel(), du.ravel()):
                want_u, want_du = (float(v) for v in _mpmath_ground_state(kappa, n, *args))
                scale = max(abs(want_u), 1.0)
                assert abs(got_u - want_u) < 1e-14 * scale, (R, args)
                assert abs(got_du - want_du) < 1e-14 * max(abs(want_du), scale), (R, args)


@pytest.mark.parametrize("space", [FLAT2, SPHERE2, ModelSpace(kappa=1, n=4, alpha=1.0)],
                         ids=["flat2", "S2", "S4"])
def test_ground_state_value_ignores_its_batch(space):
    # the zoom re-evaluates its bracket ends and trusts their signs: a
    # sample's (u, u') is the same bits alone, in a scan and in a profile
    for R in (0.7, 2.6):
        # a sample leaves the batch at its own checkpoint, whatever the width
        for width in (65, 255, 256, 257, 301):
            lams = np.linspace(0.0, 16.0, width)
            u, du = _ground_state(space, lams, R)
            for k in (0, 9, 40, 64, width - 1):
                assert _ground_state(space, lams[k], R) == (u[k], du[k])
                assert _ground_state(space, lams[k:k + 3], R)[0][0] == u[k]
    grid = np.linspace(0.0, 2.6, 1025)
    u, du = _ground_state(space, 1.7, grid)
    for k in (0, 3, 600, 1024):
        assert _ground_state(space, 1.7, grid[k]) == (u[k], du[k])
        batch = _ground_state(space, np.full(5, 1.7), grid[k])
        assert [part.tolist() for part in batch] == [[u[k]] * 5, [du[k]] * 5]


def test_eigen_disk_robin_residual():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    beta = 2.5
    lam, u = radial_eigenpair(ball, beta)
    assert abs(_right_derivative(u.grid, u.values) + beta * u.boundary_value) < 1e-8
    g, v = u.grid[::32], u.values[::32]
    res = _interior_ode_residual(g, v, lambda r: 1.0 / r,
                                 lambda r: lam * np.interp(r, u.grid, u.values))
    assert float(np.max(np.abs(res))) < 1e-8


@settings(max_examples=300, deadline=None, database=None)
@given(n=st.integers(2, 8), kappa=st.sampled_from([0, 1]),
       R=st.floats(0.01, math.pi - 1e-3, exclude_max=True),
       log_beta=st.floats(-8.0, 8.0))
def test_ground_state_positive_at_the_eigenvalue(n, kappa, R, log_beta):
    # the scan brackets the first root, not a later one: over the admissible
    # range the ground state at the computed eigenvalue has no zero in the ball
    ball = GeodesicBall(space=ModelSpace(kappa=kappa, n=n, alpha=1.0), radius=R)
    lam = solve_radial_eigen(ball, 10.0**log_beta)
    assert type(lam) is float
    assert float(np.min(ground_state_profile(ball, lam).values)) > 0.0


def test_eigen_validation():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    with pytest.raises(ValueError):
        solve_radial_eigen(ball, 0.0)
    with pytest.raises(DegenerateBallError):
        solve_radial_eigen(GeodesicBall(space=SPHERE2, radius=math.pi - 1e-4), 1.0)


# ---------------------------------------------------------------------------
# log-derivative of the ground state


def test_log_derivative_of_ground_state():
    ball = GeodesicBall(space=FLAT2, radius=1.0)
    beta = 1.0
    _, u = radial_eigenpair(ball, beta)
    ld = log_derivative(u)
    assert abs(ld[0]) < 1e-6
    assert np.all(np.diff(ld) < 0.0)
    assert np.all(-ld[:-1] < beta)
    # at the boundary the Robin condition pins u'/u to -beta
    assert abs(-ld[-1] - beta) < 1e-6


def test_log_derivative_cap():
    _, u = radial_eigenpair(GeodesicBall(space=SPHERE2, radius=1.0), 0.8)
    ld = log_derivative(u)
    assert abs(ld[0]) < 1e-6
    assert np.all(np.diff(ld) < 0.0)
    assert np.all(-ld[:-1] < 0.8)


# ---------------------------------------------------------------------------
# types


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
    with pytest.raises(ValueError):
        RadialProfile(ball=ball, grid=good_grid, values=np.zeros(65),
                      slope=np.zeros(64))
    with pytest.raises(ValueError):
        RadialProfile(ball=ball, grid=good_grid, values=np.zeros(65),
                      slope=np.full(65, np.inf))


@pytest.mark.parametrize("space", [FLAT2, SPHERE2], ids=["flat-disk", "s2-cap"])
def test_twin_peak_memory_is_a_few_columns(space):
    # the Gauss rule runs one node at a time into one (cells, 4) array, a
    # block of 8,192 cells at a time; the four nodes at once over the whole
    # grid peaked at 4.5 MiB (flat) and 5.5 MiB (S^2), node by node at 2.5
    # and 2.75 MiB, and in blocks at 1.38 and 1.44 MiB, for a 0.75 MiB profile
    ball = GeodesicBall(space=space, radius=1.0)
    solve_symmetrized_poisson(ball, 1.0)
    tracemalloc.start()
    try:
        v = solve_symmetrized_poisson(ball, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.boundary_value == pytest.approx(0.5 if space.kappa == 0 else math.tan(0.5))
    assert peak <= 2.0 * 2**20
