"""Radial problems on geodesic balls in the model spaces.

Two solvers live here.  The symmetrized Poisson problem with a Robin
boundary condition is Talenti's radial twin: its source is the Schwarz
rearrangement f# of the mesh source, so by the layer-cake identity its flux
through every sphere is the exact running integral of the decreasing
rearrangement f*, and the twin is one fixed quadrature of that flux over
the sphere area.  The first Robin eigenvalue of a ball is the first root of
the Robin condition on the closed-form radial ground state (Bessel when
flat, hypergeometric on the sphere).  Both return sampled profiles dense
enough to serve as reference values for the 2-D finite element solutions.

Volumes V(r) and sphere areas A(r) = V'(r) are the weighted ones of the
model space; the cone-angle weight cancels in every quotient V / A.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import hyp2f1, jv

from .model_geometry import (
    GeodesicBall,
    ModelSpace,
    radii_for_volumes,
    sn_kappa,
    volume_profile,
    volume_profile_derivative,
)

if TYPE_CHECKING:  # rearrange imports this module
    from .rearrange import DecreasingRearrangement

_LAMBDA_CAP = 2.0**20


class DegenerateBallError(ValueError):
    """Ball parameters make the reduction singular (zero boundary sphere)."""


class EigenBracketError(RuntimeError):
    """No eigenvalue bracket was found below the scan cap."""


@dataclass(frozen=True)
class RadialProfile:
    """Values sampled on a radial grid of a geodesic ball, 0 = r_0 < ... = R.

    ``slope`` is -v' on the same grid where it is known exactly (the radial
    twin), else None.
    """

    ball: GeodesicBall
    grid: np.ndarray
    values: np.ndarray
    slope: np.ndarray | None = None

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
        if self.slope is not None:
            slope = np.ascontiguousarray(self.slope, dtype=float)
            object.__setattr__(self, "slope", slope)
            if slope.shape != grid.shape or not np.all(np.isfinite(slope)):
                raise ValueError("slope must be finite on the grid")

    def __call__(self, r):
        return np.interp(r, self.grid, self.values)

    @property
    def boundary_value(self) -> float:
        return float(self.values[-1])


_GL4 = np.polynomial.legendre.leggauss(4)
_GRID_CELLS = 32768


def solve_symmetrized_poisson(ball: GeodesicBall, beta: float,
                              source: "DecreasingRearrangement | None" = None
                              ) -> RadialProfile:
    """Robin problem for the Schwarz-rearranged source f# on the ball.

    ``source`` is the decreasing rearrangement f* of the mesh source, or None
    for the unit source.  By the layer-cake identity the flux of v through
    the sphere of radius r is exactly cum(V(r)), with V the weighted ball
    volume, A the weighted sphere area and cum the running integral
    ``source.cumulative`` (w -> w for the unit source).  So

        v(r) = cum(V(R)) / (beta A(R)) + int_r^R cum(V(s)) / A(s) ds.

    The integral runs one fixed 4-point Gauss-Legendre rule per cell of the
    output grid, 32,769 uniform radii, with the cells split for the
    quadrature at the radii where f* changes analytic form; a reversed
    cumulative sum gives v at every grid point.  The integrand, the slope
    -v', is non-negative, so v is non-increasing by construction; the
    profile keeps it, exact at every grid radius and 0 at the center.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    space = ball.space
    R = ball.radius
    if space.kappa == 1 and sn_kappa(1, R) < 1e-12:
        raise DegenerateBallError("boundary sphere degenerates at the antipode")
    volume = volume_profile(space, R)
    grid = np.linspace(0.0, R, _GRID_CELLS + 1)
    if source is None:
        cumulative = lambda w: w
        edges = grid
    else:
        if abs(source.total - volume) > 1e-9 * volume:
            raise ValueError(f"source measure {source.total!r} does not match "
                             f"the ball volume {volume!r}")
        total = source.total
        cumulative = lambda w: source.cumulative(np.minimum(w, total))
        kinks = np.clip(radii_for_volumes(space, source.kinks()), 0.0, R)
        edges = np.unique(np.concatenate([grid, kinks]))

    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    # one Gauss node at a time, with cum(V) stored before A is evaluated:
    # the temporaries of the volume profile are a column long, not four
    slope = np.empty((len(lo), len(_GL4[0])))
    for k, node in enumerate(_GL4[0]):
        s = half * node + mid
        slope[:, k] = cumulative(volume_profile(space, s))
        slope[:, k] /= volume_profile_derivative(space, s)
    weights = slope @ _GL4[1]
    del slope
    weights *= half
    values = np.zeros(_GRID_CELLS + 1)
    values[:-1] = np.bincount(np.searchsorted(grid, lo, side="right") - 1,
                              weights=weights, minlength=_GRID_CELLS)
    # v at each grid radius is the boundary value plus the sum of the cells
    # outside it
    tail = values[-2::-1]
    np.cumsum(tail, out=tail)
    values += float(cumulative(volume)) / (beta * volume_profile_derivative(space, R))
    r = grid[1:]
    at_grid = np.zeros(_GRID_CELLS + 1)
    at_grid[1:] = cumulative(volume_profile(space, r)) / volume_profile_derivative(space, r)
    return RadialProfile(ball=ball, grid=grid, values=values, slope=at_grid)


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
    sphere), bracketed by a 64-cell sign scan under a doubling cap and
    refined by the same scan on the bracketing cell until it is a few ulps
    wide.  Non-finite samples (scipy's hyp2f1 returns +-inf or nan for some
    lambda near the antipode) never bracket a root.  The profile samples the
    closed form on 4097 uniform radii; it is positive and normalized to
    u(0) = 1.
    """
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    space = ball.space
    R = ball.radius
    if space.kappa == 1 and R >= math.pi - 1e-3:
        raise DegenerateBallError("cap radius too close to the antipode")

    def first_sign_change(lo, hi):
        # the cell from the last finite positive sample to the first finite
        # non-positive one, or None; F(lo) > 0 is finite on every call
        lams = np.linspace(lo, hi, 65)
        u, du = _ground_state(space, lams, R)
        values = du + beta * u
        finite = np.isfinite(values)
        down = np.nonzero(finite & (values <= 0.0))[0]
        if not len(down):
            return None
        k = int(down[0])
        return float(lams[np.nonzero(finite[:k])[0][-1]]), float(lams[k])

    # F(0) = beta > 0; scan for the first sign change, doubling the cap
    lam_cap = 16.0
    while (cell := first_sign_change(0.0, lam_cap)) is None:
        lam_cap *= 2.0
        if lam_cap > _LAMBDA_CAP:
            raise EigenBracketError(f"no sign change below lambda = {_LAMBDA_CAP:g}")
    # zoom into the cell; it stays put only if non-finite samples fill it
    lo, hi = cell
    while hi - lo > 4.0 * np.finfo(float).eps * hi:
        cell = first_sign_change(lo, hi)
        if cell == (lo, hi):
            break
        lo, hi = cell

    lam = 0.5 * (lo + hi)
    grid = np.linspace(0.0, R, 4097)
    values, _ = _ground_state(space, lam, grid)
    if float(np.min(values)) <= 0.0:
        raise EigenBracketError("ground state crosses zero; bracket missed the first root")
    return lam, RadialProfile(ball=ball, grid=grid, values=values)
