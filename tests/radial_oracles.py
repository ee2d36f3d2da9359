"""Test-side radial oracles shared by the test modules: the flat torsion
closed form, a radial twin with a field source, the radial twin summed over
the whole grid in one block, the ball's Robin ground state sampled as a
profile, the distribution of a sampled radial profile, and the log
derivative of a sampled positive profile."""

import numpy as np

from robinsym import mesh as msh
from robinsym.model_geometry import (
    GeodesicBall,
    radii_for_volumes,
    radius_for_volume,
    volume_profile,
    volume_profile_derivative,
)
from robinsym.radial import (
    _GL4,
    _GRID_CELLS,
    RadialProfile,
    _ground_state,
    solve_radial_eigen,
    solve_symmetrized_poisson,
)
from robinsym.rearrange import (
    DistributionData,
    decreasing_rearrangement,
    distribution_function,
)


def flat_torsion_profile(ball: GeodesicBall, beta: float) -> RadialProfile:
    """Closed form for kappa=0 and unit source: (R^2 - r^2)/(2n) + R/(n beta)."""
    if ball.space.kappa != 0:
        raise ValueError("closed form is for the flat model space")
    n = ball.space.n
    R = ball.radius
    grid = np.linspace(0.0, R, 1025)
    return RadialProfile(ball=ball, grid=grid,
                         values=(R**2 - grid**2) / (2 * n) + R / (n * beta))


def field_twin(space, domain, beta, **kw):
    """A noisy P1 source on a small mesh: its decreasing rearrangement and twin."""
    mesh = msh.generate_domain(domain, target_h=0.2, **kw)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    noise = np.random.default_rng(1).random(len(x))
    field = msh.ScalarField(mesh=mesh, values=1.0 + np.exp(-(x**2 + y**2)) + 0.3 * noise)
    fstar = decreasing_rearrangement(distribution_function(field))
    ball = GeodesicBall(space=space, radius=radius_for_volume(space, fstar.total))
    return fstar, solve_symmetrized_poisson(ball, beta, fstar)


def single_block_twin(ball: GeodesicBall, beta: float, source=None) -> RadialProfile:
    """The radial twin of ``solve_symmetrized_poisson`` with its quadrature
    run over the whole grid at once: every cell, split at the kinks of f*,
    in one array of Gauss rows and one ``bincount``."""
    space, R = ball.space, ball.radius
    volume = volume_profile(space, R)
    grid = np.linspace(0.0, R, _GRID_CELLS + 1)
    if source is None:
        cumulative = lambda w: w
        edges = grid
    else:
        cumulative = lambda w: source.cumulative(np.minimum(w, source.total))
        kinks = np.clip(radii_for_volumes(space, source.kinks()), 0.0, R)
        edges = msh.sorted_unique(np.concatenate([grid, kinks]))
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    rows = np.empty((len(lo), len(_GL4[0])))
    for k, node in enumerate(_GL4[0]):
        s = half * node + mid
        rows[:, k] = cumulative(volume_profile(space, s))
        rows[:, k] /= volume_profile_derivative(space, s)
    weights = rows @ _GL4[1]
    weights *= half
    values = np.zeros(_GRID_CELLS + 1)
    values[:-1] = np.bincount(np.searchsorted(grid, lo, side="right") - 1,
                              weights=weights, minlength=_GRID_CELLS)
    tail = values[-2::-1]
    np.cumsum(tail, out=tail)
    values += float(cumulative(volume)) / (beta * volume_profile_derivative(space, R))
    r = grid[1:]
    slope = np.zeros(_GRID_CELLS + 1)
    slope[1:] = cumulative(volume_profile(space, r)) / volume_profile_derivative(space, r)
    return RadialProfile(ball=ball, grid=grid, values=values, slope=slope)


def ground_state_profile(ball: GeodesicBall, lam: float) -> RadialProfile:
    """The closed-form radial ground state at ``lam`` on 4,097 uniform radii
    of the ball, normalized to u(0) = 1."""
    grid = np.linspace(0.0, ball.radius, 4097)
    values, _ = _ground_state(ball.space, lam, grid)
    return RadialProfile(ball=ball, grid=grid, values=values)


def radial_eigenpair(ball: GeodesicBall, beta: float) -> tuple[float, RadialProfile]:
    """The ball's first Robin eigenvalue and its ground-state profile."""
    lam = solve_radial_eigen(ball, beta)
    return lam, ground_state_profile(ball, lam)


def profile_distribution(profile: RadialProfile, space) -> DistributionData:
    """Superlevel measure t -> V{r : v(r) > t} of a sampled non-increasing
    positive profile v, with V the volume of ``space``: exact at the sampled
    levels, linear in t between them, and jumping across plateaus."""
    v = profile.values
    assert float(np.min(v)) > 0.0 and float(np.max(np.diff(v))) <= 0.0
    m = volume_profile(space, profile.grid)
    levels, first = np.unique(v, return_index=True)
    last = len(v) - 1 - np.unique(v[::-1], return_index=True)[1]
    # mu at a level is the ball inside its first radius; just below the
    # level, the ball inside its last
    at, below = m[first], m[last]
    slope = (below[1:] - at[:-1]) / np.diff(levels)
    total = float(m[-1])
    coef_a = np.concatenate([[total, total], at[:-1] - slope * levels[:-1], [0.0]])
    coef_b = np.concatenate([[0.0, 0.0], slope, [0.0]])
    return DistributionData(np.concatenate([[0.0], levels]), coef_a, coef_b,
                            np.zeros_like(coef_a), total)


def log_derivative(profile: RadialProfile) -> np.ndarray:
    """(ln u)' = u'/u of a positive profile on its grid, second-order
    differences."""
    return np.gradient(np.log(profile.values), profile.grid, edge_order=2)
