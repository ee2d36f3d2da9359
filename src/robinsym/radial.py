"""Radial problems on geodesic balls in the model spaces.

Two solvers live here.  The symmetrized Poisson problem with a Robin
boundary condition is Talenti's radial twin: its source is the Schwarz
rearrangement f# of the mesh source, so by the layer-cake identity its flux
through every sphere is the exact running integral of the decreasing
rearrangement f*, and the twin is one fixed quadrature of that flux over
the sphere area, run a block of grid cells at a time so that its
temporaries are a block long.  The first Robin eigenvalue of a ball is the
first root of the Robin condition on the closed-form radial ground state,
0F1 (a Bessel function) when flat and 2F1 on the sphere, which numpy sums
as Frobenius series: about the center, and past the equator about the
antipode.  The twin is a profile sampled densely enough to serve as
reference values for the 2-D finite element solutions; the eigenvalue is a
number.  The Gauss-Legendre rules are numpy's, computed here without
``numpy.polynomial``.

Volumes V(r) and sphere areas A(r) = V'(r) are the weighted ones of the
model space; the cone-angle weight cancels in every quotient V / A.
"""

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fem import _check_beta
from .mesh import _blocks, sorted_unique
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


def _legendre_sum(x, c):
    """sum_j c_j P_j(x) by Clenshaw's recurrence, step for step as numpy's
    ``legval``."""
    c0, c1 = (c[-2], c[-1]) if len(c) > 1 else (c[0], 0.0)
    nd = len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.cache
def _gauss_rule(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    The steps of numpy's ``leggauss`` and so its bits, without importing
    ``numpy.polynomial``: the eigenvalues of the symmetric companion matrix
    of P_n, one Newton step on P_n / P_n', the weights 1 / (P_{n-1} P_n')
    scaled to sum to 2, and both made symmetric about 0.
    """
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    # eigvalsh reads the lower triangle
    x = np.linalg.eigvalsh(np.diag(np.arange(1, n) * scale[:-1] * scale[1:], -1))
    c = np.zeros(n + 1)
    c[n] = 1.0
    dc = np.zeros(n)  # P_n' = sum of (2j + 1) P_j over j = n - 1, n - 3, ...
    dc[n - 1::-2] = np.arange(2 * n - 1, 0, -4)
    df = _legendre_sum(x, dc)
    x -= _legendre_sum(x, c) / df
    fm = _legendre_sum(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.setflags(write=False)  # shared by every caller of the cache
    w.setflags(write=False)
    return x, w


_GL4 = _gauss_rule(4)
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
    cumulative sum gives v at every grid point.  The rule runs over blocks
    of the mesh module's BLOCK cells (8,192), and the sub-cells a kink
    splits off stay in the block of their cell, so each cell's sum adds the
    same terms in the same order as over the whole grid at once, while the
    Gauss rows and profile temporaries are a block long.  The integrand,
    the slope -v', is non-negative, so v is non-increasing by construction;
    the profile keeps it, exact at every grid radius and 0 at the center.
    """
    _check_beta(beta)
    space = ball.space
    R = ball.radius
    if space.kappa == 1 and sn_kappa(1, R) < 1e-12:
        raise DegenerateBallError("boundary sphere degenerates at the antipode")
    volume = volume_profile(space, R)
    grid = np.linspace(0.0, R, _GRID_CELLS + 1)
    if source is None:
        cumulative = lambda w: w
        kinks = np.empty(0)
    else:
        if abs(source.total - volume) > 1e-9 * volume:
            raise ValueError(f"source measure {source.total!r} does not match "
                             f"the ball volume {volume!r}")
        total = source.total
        cumulative = lambda w: source.cumulative(np.minimum(w, total))
        kinks = sorted_unique(np.clip(radii_for_volumes(space, source.kinks()), 0.0, R))

    values = np.zeros(_GRID_CELLS + 1)
    slope = np.zeros(_GRID_CELLS + 1)
    for block in _blocks(_GRID_CELLS):
        cells = grid[block.start:block.stop + 1]
        # the kinks strictly inside the block split its cells; one on a grid
        # radius splits nothing
        inside = kinks[np.searchsorted(kinks, cells[0], side="right"):
                       np.searchsorted(kinks, cells[-1], side="left")]
        edges = sorted_unique(np.concatenate([cells, inside])) if len(inside) else cells
        lo, hi = edges[:-1], edges[1:]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        # one Gauss node at a time, with cum(V) stored before A is evaluated:
        # the temporaries of the volume profile are a column long, not four
        rows = np.empty((len(lo), len(_GL4[0])))
        for k, node in enumerate(_GL4[0]):
            s = half * node + mid
            rows[:, k] = cumulative(volume_profile(space, s))
            rows[:, k] /= volume_profile_derivative(space, s)
        weights = rows @ _GL4[1]
        del rows
        weights *= half
        values[block] = np.bincount(np.searchsorted(cells, lo, side="right") - 1,
                                    weights=weights, minlength=len(cells) - 1)
        r = cells[1:]
        at_grid = slope[block.start + 1:block.stop + 1]
        at_grid[:] = cumulative(volume_profile(space, r))
        at_grid /= volume_profile_derivative(space, r)
    # v at each grid radius is the boundary value plus the sum of the cells
    # outside it
    tail = values[-2::-1]
    np.cumsum(tail, out=tail)
    values += float(cumulative(volume)) / (beta * volume_profile_derivative(space, R))
    return RadialProfile(ball=ball, grid=grid, values=values, slope=slope)


# ---------------------------------------------------------------------------
# radial Robin eigenvalue in closed form
#
# The ground state is a Frobenius series of the radial equation in x = r^2/4
# (flat) or x = sin^2(r/2) or cos^2(r/2) (sphere).  A sample stops at the
# first checkpoint, one every block of terms, where its own last term is
# below 2^-54 of its value (and, in a power series, of its term T_1, the
# scale of the derivative's sum when lam is small), and leaves the batch
# there, so its value never depends on the batch it is in.  A step of the
# sum takes a block of terms at a time: a running product gives the terms,
# a running sum the partial sums.

_SERIES_TERMS = 256
_SERIES_TOL = 2.0**-54
_TINY = 1e-300


@functools.cache
def _series_rows(n: int, kind: str):
    """Row constants of the series sum_k T_k x^(k + rho), T_0 = 1.

    ``kind`` is "flat" (0F1(; n/2; -lam x)), "first" (2F1(a, b; n/2; x) with
    a + b = n - 1, ab = -lam: the solution regular at x = 0) or "second" (the
    other Frobenius solution at x = 0, exponent rho = 1 - n/2).  Row k >= 1
    takes T_{k-1} to T_k = T_{k-1} (P - lam) / Q x, with s = k - 1 + rho,
    P = s (s + n - 1) (0 when flat) and Q = (s + 1)(s + n/2).  For even n
    the second solution is d/drho [(rho - rho_2) sum_k T_k x^(k + rho)] at
    rho_2 = 1 - n/2 (without the factor when n = 2), so the rows also hold
    dP/drho and dlnQ/drho; the factor cancels the zero of Q at k = n/2 - 1,
    where Q becomes rho + n - 2.  Returns the rows P, 1/Q, dP, dlnQ and
    k + rho, the first logarithmic row (None for a power series) and the
    block length: 16 terms for 0F1, whose terms fall factorially, else 32.
    """
    m = 0.5 * n
    rho = 1.0 - m if kind == "second" else 0.0
    s = np.arange(-1.0, _SERIES_TERMS - 1.0) + rho
    P = np.zeros(_SERIES_TERMS) if kind == "flat" else s * (s + n - 1.0)
    Q = (s + 1.0) * (s + m)
    dlnQ = 2.0 * s + 1.0 + m
    log_from = None
    if kind == "second" and n % 2 == 0:
        log_from = n // 2 - 1
        if log_from >= 1:
            Q[log_from], dlnQ[log_from] = m - 1.0, 1.0
    Q[0] = math.inf  # row 0 is T_0 itself
    dlnQ /= Q
    rows = (P, 1.0 / Q, 2.0 * s + n - 1.0, dlnQ, np.arange(_SERIES_TERMS) + rho)
    for row in rows:
        row.setflags(write=False)  # shared by every caller of the cache
    return rows + (log_from, 16 if kind == "flat" else 32)


def _series(n: int, kind: str, lam, x):
    """Sums (Y0, Y1) of the ``kind`` series of :func:`_series_rows` at 1-D lam
    and x of one length or of length 1: the solution is x^rho Y0, and x times
    its x-derivative x^rho Y1.

    A power series has Y0 = sum_k T_k and Y1 = sum_k (k + rho) T_k.  The
    logarithmic rows of the second solution add T_k G_k to Y0 and T_k ((k +
    rho) G_k + 1) to Y1, G_k = ln x + g_k with g_k = dlnT_k/drho.  Each step
    sums a block of terms, and every block's end is a checkpoint.  A sample
    still short of 2^-54 after ``_SERIES_TERMS`` terms is nan.
    """
    P, inv_q, dP, dlnQ, order, log_from, block = _series_rows(n, kind)
    width = max(lam.size, x.size)
    out = np.full((2, width), np.nan)
    live = np.arange(width)
    # lam and x are columns; one of length 1 is shared by every sample
    lam = lam.reshape(-1, 1)
    x = x.reshape(-1, 1)
    if log_from is not None:
        log_x = np.log(x)
    for k0 in range(0, _SERIES_TERMS, block):
        cols = slice(k0, k0 + block)
        # the block's term ratios but for the factor x, and its g_k
        p = P[cols] - lam
        if log_from is not None:
            # P = lam exactly: T keeps a factor 2^-70 and g its inverse, so
            # T G tends to the limit and T alone to 0
            p[p == 0.0] = 2.0**-70
            g = dP[cols] / p - dlnQ[cols]
            g[:, 0] = 0.0 if k0 == 0 else g[:, 0] + g_last
            np.add.accumulate(g, axis=1, out=g)
            g_last = g[:, -1]
        p *= inv_q[cols]
        T = p * x
        if k0:
            T[:, 0] *= last
        else:
            T[:, 0] = 1.0
        np.multiply.accumulate(T, axis=1, out=T)
        last = T[:, -1]
        sums = np.empty((2, live.size, block))
        if log_from is None:
            sums[0] = T
            np.multiply(T, order[cols], out=sums[1])
            if k0 == 0:
                scale = np.abs(T[:, 1])
        else:
            G = g + log_x
            power = min(max(log_from - k0, 0), block)
            G[:, :power] = 1.0
            np.multiply(G, T, out=sums[0])
            np.multiply(G, order[cols], out=sums[1])
            sums[1, :, power:] += 1.0
            sums[1] *= T
        if k0:  # the carried sums enter first: every partial sum is sequential
            sums[:, :, 0] += y
        np.add.accumulate(sums, axis=2, out=sums)
        y = sums[:, :, -1]
        # the checkpoint: a sample that has stopped leaves the batch
        if log_from is None:
            done = np.abs(last) <= _SERIES_TOL * np.minimum(np.abs(y[0]), scale)
        else:
            done = np.abs(last) * (1.0 + np.abs(G[:, -1])) <= _SERIES_TOL * np.abs(y[0])
        if done.any():
            stopped = live[done]
            for row, part in zip(out, y):  # row by row: numpy's 2-D masks are slow
                row[stopped] = part[done]
            keep = ~done
            live = live[keep]
            if not live.size:
                break
            y = y[:, keep]
            # a shared lam or x (and so g or log x) stays shared
            last, lam, x = (a[keep] if len(a) == len(keep) else a for a in (last, lam, x))
            if log_from is None:
                scale = scale[keep]
            else:
                g_last, log_x = (a[keep] if len(a) == len(keep) else a for a in (g_last, log_x))
    return out[0], out[1]


def _ground_state(space: ModelSpace, lam, r):
    """Regular solution u of u'' + (n-1) c(r) u' + lam u = 0, u(0) = 1, and u'.

    c(r) = 1/r (flat) or cot r (sphere); lam and r broadcast.  Flat: u =
    0F1(; n/2; -lam r^2/4), u' = -(lam r / n) 0F1(; n/2 + 1; -lam r^2/4).
    Sphere: u = 2F1(a, b; n/2; z), z = sin^2(r/2), a + b = n - 1, ab = -lam,
    summed about z = 0 for z <= 1/2 and past 1/2 in the Frobenius basis at
    the antipode, which takes 1 - z as cos^2(r/2).  Every value depends only
    on its own (lam, r); a series that overflows, at lam far past the first
    root, gives inf or nan.
    """
    n = space.n
    lam = np.asarray(lam, dtype=float)
    r = np.asarray(r, dtype=float)
    shape = np.broadcast(lam, r).shape
    # a single lam or r stays single in the series: a profile has one lam,
    # a scan one r
    if lam.size > 1 and r.size > 1:
        lam, r = np.broadcast_arrays(lam, r)
    lam, r = lam.ravel(), r.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        if space.kappa == 0:
            u, y1 = _series(n, "flat", lam, 0.25 * r * r)
            # u' = (2/r) x du/dx; x du/dx is 0 at r = 0
            du = 2.0 * y1 / np.maximum(r, _TINY)
        elif r.size == 1:  # a scan
            half = 0.5 * r
            side = _near_side if half[0] <= 0.25 * math.pi else _far_side
            u, du = side(n, lam, half)
        else:
            width = max(lam.size, r.size)
            half = 0.5 * r
            near = half <= 0.25 * math.pi
            u = np.empty(width)
            du = np.empty(width)
            for side, mask in ((_near_side, near), (_far_side, ~near)):
                if mask.any():
                    u[mask], du[mask] = side(n, lam if lam.size < width else lam[mask],
                                             half[mask])
    return u.reshape(shape), du.reshape(shape)


def _near_side(n: int, lam, half):
    """(u, u') at r = 2 half where z = sin^2(r/2) <= 1/2: the series about 0."""
    u, y1 = _series(n, "first", lam, np.sin(half) ** 2)
    # u' = cot(r/2) z du/dz; z du/dz is 0 at r = 0
    return u, y1 / np.tan(np.maximum(half, _TINY))


def _far_side(n: int, lam, half):
    """(u, u') at r = 2 half where z = sin^2(r/2) > 1/2.

    The equation is the same in t = 1 - z = cos^2(r/2) as in z, so the first
    and second series F, S at t form the Frobenius basis at the antipode:
    u = A F(t) + B t^(1 - n/2) S(t), A and B from
    :func:`_antipodal_coefficients`.
    """
    A, B = _antipodal_coefficients(n, lam)
    t = np.cos(half) ** 2
    B = B * t ** (1.0 - 0.5 * n)
    f0, f1 = _series(n, "first", lam, t)
    s0, s1 = _series(n, "second", lam, t)
    # u' = -tan(r/2) t du/dt
    return A * f0 + B * s0, -(A * f1 + B * s1) * np.tan(half)


def _antipodal_coefficients(n: int, lam):
    """(A, B) with 2F1(a, b; n/2; z) = A F(t) + B t^(1 - n/2) S(t), lam >= 0.

    These are the connection formulas of 2F1 at z = 1 (Abramowitz and Stegun
    15.3.6, 15.3.10 and 15.3.12) for c = n/2 = (a + b + 1)/2, with
    Gamma(1/2 + x) Gamma(1/2 - x) = pi / cos(pi x).  Write mu = a - (n - 1)/2
    = sqrt(((n - 1)/2)^2 + lam) and d = mu - (n - 1)/2 = lam / (mu + (n - 1)/2);
    the trigonometric factors are taken at d, which keeps B's relative
    accuracy as lam -> 0, where B t^(1 - n/2) blows up near the antipode.
    Odd n, h = (n - 1)/2:

        A = cos(pi d),
        B = (-1)^h Gamma(n/2) Gamma(n/2 - 1) sin(pi d)
            / (pi mu prod_{j=1}^{h-1} (j^2 - mu^2)).

    Even n, k = n/2 - 1, S being the rho-derivative of :func:`_series_rows`
    (which fixes the multiple of F the logarithmic solution may carry):

        A = cos(pi d) - sin(pi d) (H_{k-1} - 2 gamma - 2 psi(1/2 + mu)) / pi,
        B = sin(pi d) / pi for n = 2, else
            -(-1)^k Gamma(k) Gamma(k + 1) sin(pi d)
            / (pi prod_{j=0}^{k-1} ((j + 1/2)^2 - mu^2)),

    with H the harmonic numbers (H_{-1} = H_0 = 0) and gamma Euler's.
    """
    h = 0.5 * (n - 1)
    mu = np.sqrt(h * h + lam)
    d = lam / (mu + h)
    # d less its nearest integer, exactly: sin is then exactly 0 at the
    # sphere's eigenvalues, where the ground state is regular at the antipode
    # and B vanishes
    nearest = np.rint(d)
    sign = 1.0 - 2.0 * (nearest % 2.0)
    cos, sin = sign * np.cos(math.pi * (d - nearest)), sign * np.sin(math.pi * (d - nearest))
    if n % 2:
        B = (-1) ** (n // 2) * math.gamma(0.5 * n) * math.gamma(0.5 * n - 1.0) * sin / (math.pi * mu)
        for j in range(1, n // 2):
            B = B / (j * j - mu * mu)
        return cos, B
    k = n // 2 - 1
    constant = sum(1.0 / j for j in range(1, k)) - 2.0 * np.euler_gamma
    A = cos - sin * (constant - 2.0 * _digamma(0.5 + mu)) / math.pi
    if k == 0:
        return A, sin / math.pi
    B = -(-1) ** k * math.gamma(k) * math.gamma(k + 1.0) * sin / math.pi
    for j in range(k):
        B = B / ((j + 0.5) ** 2 - mu * mu)
    return A, B


def _digamma(x):
    """psi(x) for x >= 1: 16 steps of psi(x) = psi(x + 1) - 1/x, summed in
    order, then the asymptotic series at x + 16."""
    y = x + 16.0
    steps = np.add.accumulate(1.0 / np.add.outer(x, np.arange(16.0)), axis=-1)[..., -1]
    inv = 1.0 / (y * y)
    tail = inv * (1 / 12 - inv * (1 / 120 - inv * (1 / 252 - inv * (1 / 240 - inv / 132))))
    return np.log(y) - 0.5 / y - tail - steps


def solve_radial_eigen(ball: GeodesicBall, beta: float) -> float:
    """First Robin eigenvalue lambda of a geodesic ball.

    lambda is the first root of the secular function u'(R) + beta u(R) of the
    closed-form ground state of :func:`_ground_state`, bracketed by a 64-cell
    sign scan under a doubling cap and refined by the same scan on the
    bracketing cell until it is a few ulps wide.  A flat ball is scanned as
    the unit ball, lambda(R, beta) = lambda(1, beta R) / R^2, so the series
    never meets a large argument below the root.  Non-finite samples (the
    series overflows at lambda far past the root) never bracket a root.  The
    scan cannot step over the first root: the secular function is negative
    on (lambda_1, lambda_2), and a scan cell, at most max(0.25, lambda_1 / 32)
    wide (the cap doubles only while every sample below it is positive), is
    narrower than that gap.  So the ground state at lambda,
    ``_ground_state(ball.space, lambda, r)`` with u(0) = 1, is positive on
    [0, R].
    """
    _check_beta(beta)
    space = ball.space
    R = ball.radius
    if space.kappa == 1 and R >= math.pi - 1e-3:
        raise DegenerateBallError("cap radius too close to the antipode")
    scale = R if space.kappa == 0 else 1.0

    def first_sign_change(lo, hi):
        # the cell from the last finite positive sample to the first finite
        # non-positive one, or None; F(lo) > 0 is finite on every call
        lams = np.linspace(lo, hi, 65)
        u, du = _ground_state(space, lams, R / scale)
        values = du + beta * scale * u
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

    return 0.5 * (lo + hi) / scale**2
