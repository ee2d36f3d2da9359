"""Radial problems on geodesic balls in the model spaces.

Two solvers live here: the symmetrized Poisson problem with a Robin boundary
condition, reduced to nested 1-D integrals of the rearranged source, and the
first Robin eigenvalue of a ball, as the first root of the Robin condition on
the closed-form radial ground state (Bessel when flat, hypergeometric on the
sphere).  Both return sampled profiles dense enough to serve as reference
values for the 2-D finite element solutions.

The sphere area A(r) = n omega_n sn_kappa(r)^{n-1} used by the Poisson
reduction carries no cone-angle weight: the weight cancels between numerator
and denominator of every quotient that appears.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.optimize import brentq
from scipy.special import hyp2f1, jv

from .model_geometry import GeodesicBall, ModelSpace, sn_kappa, sphere_area

_LAMBDA_CAP = 2.0**20
_POISSON_N0 = 4096
_POISSON_NMAX = 2**21


class DegenerateBallError(ValueError):
    """Ball parameters make the reduction singular (zero boundary sphere)."""


class EigenBracketError(RuntimeError):
    """No eigenvalue bracket was found below the scan cap."""


class ConvergenceError(RuntimeError):
    """Grid doubling failed to reach the requested tolerance."""


class PositivityError(ValueError):
    """A profile that must stay positive touches zero."""


class MonotonicityError(ValueError):
    """A profile that must be monotone is not."""


@dataclass(frozen=True)
class RadialProfile:
    """Values sampled on a radial grid of a geodesic ball, 0 = r_0 < ... = R."""

    ball: GeodesicBall
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.ascontiguousarray(self.grid, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or len(grid) < 64:
            raise ValueError(f"radial grid needs >= 64 points, got {grid.shape}")
        if values.shape != grid.shape:
            raise ValueError("grid and values shapes differ")
        if grid[0] != 0.0:
            raise ValueError("radial grid must start at r = 0")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("radial grid must be strictly increasing")
        R = self.ball.radius
        if abs(grid[-1] - R) > 1e-12 * max(R, 1.0):
            raise ValueError(f"radial grid ends at {grid[-1]!r}, ball radius is {R!r}")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")

    def __call__(self, r):
        return np.interp(r, self.grid, self.values)

    @property
    def boundary_value(self) -> float:
        return float(self.values[-1])

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("r,value\n")
            for r, v in zip(self.grid, self.values):
                fh.write(f"{float(r)!r},{float(v)!r}\n")


@dataclass(frozen=True)
class RadialSource:
    """Non-increasing, non-negative source samples on a radial grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.ascontiguousarray(self.grid, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or len(grid) < 2 or values.shape != grid.shape:
            raise ValueError("source needs matching 1-D grid and values")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("source grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("source values must be finite")
        scale = float(np.max(np.abs(values))) or 1.0
        if float(np.min(values)) < -1e-12 * scale:
            raise ValueError("source values must be non-negative")
        if float(np.max(np.diff(values))) > 1e-12 * scale:
            raise MonotonicityError("source values must be non-increasing")

    def __call__(self, r):
        return np.interp(r, self.grid, self.values)


def constant_source(ball: GeodesicBall, value: float = 1.0, n: int = 129) -> RadialSource:
    grid = np.linspace(0.0, ball.radius, n)
    return RadialSource(grid, np.full(n, float(value)))


def source_from_profile(profile: RadialProfile) -> RadialSource:
    """Reinterpret a non-increasing profile (e.g. a rearranged field) as a source."""
    return RadialSource(profile.grid, np.maximum(profile.values, 0.0))


def _unweighted_sphere_area(space: ModelSpace, r):
    # same shape as sphere_area but with the cone-angle weight divided out
    return sphere_area(space, r) / space.alpha


def _poisson_pass(ball, beta, source, n):
    space = ball.space
    R = ball.radius
    r = np.linspace(0.0, R, n + 1)
    f = source(r)
    A = _unweighted_sphere_area(space, r)
    fA = f * A
    g = np.concatenate([[0.0], cumulative_simpson(fA, x=r)])
    dv = np.zeros_like(r)
    dv[1:] = -g[1:] / A[1:]
    v_boundary = g[-1] / (beta * A[-1])
    w = np.concatenate([[0.0], cumulative_simpson(-dv, x=r)])
    v = v_boundary + (w[-1] - w)
    return r, v


def solve_symmetrized_poisson(ball: GeodesicBall, beta: float,
                              source: RadialSource,
                              n0: int = _POISSON_N0) -> RadialProfile:
    """Robin problem for the rearranged source on the ball, by 1-D reduction.

    v'(r) = -(1/A(r)) * int_0^r f A, with the boundary value fixed by the
    Robin flux balance; composite Simpson with grid doubling until successive
    solutions agree to 1e-10 relative.  A non-increasing profile is a
    post-condition; a violation triggers further refinement before erroring.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    space = ball.space
    if space.kappa == 1 and sn_kappa(1, ball.radius) < 1e-12:
        raise DegenerateBallError("boundary sphere degenerates at the antipode")

    n = max(int(n0), 64)
    r_prev, v_prev = _poisson_pass(ball, beta, source, n)
    while True:
        n *= 2
        r_fine, v_fine = _poisson_pass(ball, beta, source, n)
        scale = float(np.max(np.abs(v_fine))) or 1.0
        diff = float(np.max(np.abs(v_fine[::2] - v_prev))) / scale
        settled = diff < 1e-10
        monotone = float(np.max(np.diff(v_fine))) <= 1e-12 * scale
        if settled and monotone:
            break
        if n >= _POISSON_NMAX:
            if not settled:
                raise ConvergenceError(
                    f"Simpson doubling stalled at n={n} (rel. change {diff:.2e})"
                )
            raise MonotonicityError(
                "solution profile stayed non-monotone under maximal refinement"
            )
        r_prev, v_prev = r_fine, v_fine

    # hand back at least 2^15 intervals; reference use against the FEM
    # solutions wants samples everywhere, and the extra pass is cheap
    if n < 32768:
        n = 32768
        r_fine, v_fine = _poisson_pass(ball, beta, source, n)
    stride = max(1, n // 32768)
    grid, values = r_fine[::stride], v_fine[::stride]
    if grid[-1] != r_fine[-1]:
        grid = np.append(grid, r_fine[-1])
        values = np.append(values, v_fine[-1])
    return RadialProfile(ball=ball, grid=grid, values=values)


def flat_torsion_profile(ball: GeodesicBall, beta: float) -> RadialProfile:
    """Closed form for kappa=0 and unit source: (R^2 - r^2)/(2n) + R/(n beta)."""
    if ball.space.kappa != 0:
        raise ValueError("closed form is for the flat model space")
    n = ball.space.n
    R = ball.radius
    grid = np.linspace(0.0, R, 1025)
    return RadialProfile(ball=ball, grid=grid,
                         values=(R**2 - grid**2) / (2 * n) + R / (n * beta))


# ---------------------------------------------------------------------------
# radial Robin eigenvalue in closed form


def _ground_state(space: ModelSpace, lam, r):
    """Regular solution u of u'' + (n-1) c(r) u' + lam u = 0, u(0) = 1, and u'.

    c(r) = 1/r (flat) or cot r (sphere); lam and r broadcast.  Flat:
    u = Gamma(nu+1) (2/x)^nu J_nu(x) with x = sqrt(lam) r, nu = n/2 - 1.
    Sphere: u = 2F1(a, b; n/2; sin^2(r/2)) with a + b = n - 1, ab = -lam,
    which for n = 3 is the elementary u = sin(mu r) / (mu sin r), mu^2 = 1 + lam.
    """
    n = space.n
    if space.kappa == 0:
        nu = 0.5 * n - 1.0
        k = np.sqrt(lam)
        x = k * r
        pos = x > 0.0
        xs = np.where(pos, x, 1.0)
        scale = math.gamma(nu + 1.0) * (2.0 / xs) ** nu
        u = np.where(pos, scale * jv(nu, xs), 1.0)
        du = np.where(pos, -k * scale * jv(nu + 1.0, xs), 0.0)
        return u, du
    half = 0.5 * (n - 1)
    root = np.sqrt(half * half + lam)
    a, b = half + root, half - root
    z = np.sin(0.5 * r) ** 2
    if n == 3:
        # hyp2f1 loses absolute accuracy near its zero, where a stiff beta
        # puts the boundary; u' stays far from zero there
        u = np.sinc(root * r / math.pi) / np.sinc(r / math.pi)
    else:
        u = hyp2f1(a, b, 0.5 * n, z)
    du = -(lam / n) * np.sin(r) * hyp2f1(a + 1.0, b + 1.0, 0.5 * n + 1.0, z)
    return u, du


def solve_radial_eigen(ball: GeodesicBall, beta: float):
    """First Robin eigenpair of a geodesic ball, (lambda, profile).

    lambda is the first root of the secular function u'(R) + beta u(R) of the
    closed-form ground state (Bessel when flat, hypergeometric on the
    sphere), bracketed by a doubling scan and refined by Brent's method.  The
    profile samples the closed form on 4097 uniform radii; it is positive
    and normalized to u(0) = 1.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    space = ball.space
    R = ball.radius
    if space.kappa == 1 and R >= math.pi - 1e-3:
        raise DegenerateBallError("cap radius too close to the antipode")

    def functional(lams):
        u, du = _ground_state(space, lams, R)
        return du + beta * u

    # F(0) = beta > 0; scan for the first sign change, doubling the cap
    lam_cap = 16.0
    while True:
        lams = np.linspace(0.0, lam_cap, 65)[1:]
        idx = np.nonzero(functional(lams) <= 0.0)[0]
        if len(idx):
            k = int(idx[0])
            lo = float(lams[k - 1]) if k > 0 else 0.0
            hi = float(lams[k])
            break
        lam_cap *= 2.0
        if lam_cap > _LAMBDA_CAP:
            raise EigenBracketError(f"no sign change below lambda = {_LAMBDA_CAP:g}")

    lam = brentq(lambda t: float(functional(t)), lo, hi, xtol=1e-14)
    grid = np.linspace(0.0, R, 4097)
    values, _ = _ground_state(space, lam, grid)
    if float(np.min(values)) <= 0.0:
        raise EigenBracketError("ground state crosses zero; bracket missed the first root")
    return lam, RadialProfile(ball=ball, grid=grid, values=values)


def log_derivative_profile(profile: RadialProfile) -> RadialProfile:
    """(ln u)' = u'/u on the profile's grid, second-order differences.

    For a Robin ground state this is decreasing from 0; that is checked on
    the output (with roundoff slack) before returning.
    """
    if float(np.min(profile.values)) <= 0.0:
        raise PositivityError("profile touches zero; log-derivative undefined")
    g = np.log(profile.values)
    d = np.gradient(g, profile.grid, edge_order=2)
    scale = float(np.max(np.abs(d))) or 1.0
    if float(np.max(np.diff(d))) > 1e-10 * scale:
        raise MonotonicityError("log-derivative failed to be decreasing")
    return RadialProfile(ball=profile.ball, grid=profile.grid, values=d)


def radial_distribution(profile: RadialProfile, space: ModelSpace):
    """Distribution data of a non-increasing radial profile.

    Measures are weighted ball volumes at the profile's own value levels;
    in between, the threshold-measure relation is interpolated monotonically.
    """
    from .rearrange import DistributionData  # circular at import time only
    from .model_geometry import volume_profile

    values = profile.values
    scale = float(np.max(np.abs(values))) or 1.0
    if float(np.max(np.diff(values))) > 1e-12 * scale:
        raise MonotonicityError("radial profile must be non-increasing")
    measures = volume_profile(space, profile.grid)
    # thresholds descending in t = profile values from the center outward
    return DistributionData.from_monotone_pairs(values, measures)
