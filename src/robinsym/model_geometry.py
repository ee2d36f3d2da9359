"""Weighted model spaces: volume growth and isoperimetric profiles.

The reference geometries are Euclidean space (kappa = 0) and the round unit
sphere (kappa = 1), carrying a constant weight alpha in (0, 1] that scales all
measures: the asymptotic volume ratio in the flat case, the normalized total
measure in the spherical one.  Geodesic balls realize the isoperimetric
profile, which is what every comparison in :mod:`robinsym.verify` is tested
against.
"""

import math
from dataclasses import dataclass

import numpy as np


class DomainRangeError(ValueError):
    """A radius, volume, or measure level lies outside the model range."""


# Newton loses its footing where the volume profile flattens; switch to plain
# bisection when the target volume is this close (relatively) to full measure.
_ENDPOINT_MARGIN = 1e-6


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def sn_kappa(kappa: int, s):
    """Model warping function: s for kappa=0, sin(s) for kappa=1."""
    if kappa == 0:
        return np.asarray(s, dtype=float) if np.ndim(s) else float(s)
    return np.sin(s)


@dataclass(frozen=True)
class ModelSpace:
    """A weighted simply connected model space.

    Parameters
    ----------
    kappa : int
        Curvature normalization, 0 (Euclidean) or 1 (unit round sphere).
        Other positive curvatures are handled by rescaling to kappa = 1.
    n : int
        Dimension, at least 2.
    alpha : float
        Constant weight in (0, 1].
    """

    kappa: int
    n: int
    alpha: float = 1.0

    def __post_init__(self):
        if self.kappa not in (0, 1):
            raise DomainRangeError(f"kappa must be 0 or 1, got {self.kappa}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise DomainRangeError(f"dimension n must be an integer >= 2, got {self.n}")
        if not (0.0 < self.alpha <= 1.0):
            raise DomainRangeError(f"alpha must lie in (0, 1], got {self.alpha}")

    @property
    def omega_n(self) -> float:
        return unit_ball_volume(self.n)

    @property
    def max_radius(self):
        """Largest admissible ball radius (pi on the sphere, inf when flat)."""
        return math.pi if self.kappa == 1 else math.inf

    @property
    def total_volume(self):
        """Weighted volume of the whole space (inf when flat)."""
        return volume_profile(self, math.pi) if self.kappa == 1 else math.inf


@dataclass(frozen=True)
class GeodesicBall:
    """A geodesic ball in a model space, the symmetrized comparison domain."""

    space: ModelSpace
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise DomainRangeError(f"ball radius must be positive, got {self.radius}")
        if self.space.kappa == 1 and self.radius > math.pi:
            raise DomainRangeError(
                f"spherical ball radius must be <= pi, got {self.radius}"
            )

    @property
    def weighted_volume(self) -> float:
        return volume_profile(self.space, self.radius)

    @property
    def volume(self) -> float:
        """Un-weighted model volume, weighted_volume / alpha."""
        return self.weighted_volume / self.space.alpha

    @property
    def boundary_area(self) -> float:
        """Un-weighted area of the boundary sphere."""
        return sphere_area(self.space, self.radius)


def sphere_area(space: ModelSpace, r):
    """Un-weighted area n*omega_n*sn_kappa(r)^(n-1) of the radius-r sphere."""
    n = space.n
    return n * space.omega_n * sn_kappa(space.kappa, r) ** (n - 1)


def _check_radius(space, r):
    """r as a float array clipped to [0, max_radius], roundoff outside it
    forgiven; r itself when it needs no clipping.  The range is that of the
    numbers in r: a nan neither hides nor raises."""
    r = np.asarray(r, dtype=float)
    if not r.size:
        return r
    lo, hi = np.fmin.reduce(r, axis=None), np.fmax.reduce(r, axis=None)
    if lo < -1e-15 or (space.kappa == 1 and hi > math.pi + 1e-12):
        raise DomainRangeError(
            f"radius must lie in [0, {space.max_radius}] for kappa={space.kappa}"
        )
    if lo >= 0.0 and hi <= space.max_radius:
        return r
    return np.clip(r, 0.0, space.max_radius)


_SERIES_TERMS = 30


def _sin_power_series_coeffs(m):
    # Maclaurin coefficients c_k of (sin(s)/s)^m in powers of s^2
    base = np.zeros(_SERIES_TERMS)
    fact = 1.0
    for k in range(_SERIES_TERMS):
        if k > 0:
            fact *= (2 * k) * (2 * k + 1)
        base[k] = (-1.0) ** k / fact
    coef = np.zeros(_SERIES_TERMS)
    coef[0] = 1.0
    for _ in range(m):
        coef = np.convolve(coef, base)[:_SERIES_TERMS]
    return coef


def _sin_power_integral(m, r):
    """int_0^r sin(s)^m ds, exact recursion with a series branch near zero.

    The textbook recursion S_m = ((m-1) S_{m-2} - sin^{m-1}(r) cos(r)) / m
    cancels like eps/r^2 as r -> 0, so small radii integrate the Maclaurin
    expansion of sin^m term by term instead.
    """
    r = np.asarray(r, dtype=float)
    small = r < 0.3
    out = np.empty_like(r)
    if np.any(small):
        # the series loop runs on the small radii alone
        rs = r[small]
        coef = _sin_power_series_coeffs(m)
        acc = np.zeros_like(rs)
        r2 = rs * rs
        for k in range(_SERIES_TERMS - 1, -1, -1):
            acc = acc * r2 + coef[k] / (m + 1 + 2 * k)
        out[small] = rs ** (m + 1) * acc
    if np.any(~small):
        rl = np.where(~small, r, 1.0)
        s_even = rl.copy()                      # S_0
        s_odd = 2.0 * np.sin(0.5 * rl) ** 2     # S_1
        sin_r, cos_r = np.sin(rl), np.cos(rl)
        for mm in range(2, m + 1):
            nxt = ((mm - 1) * (s_even if mm % 2 == 0 else s_odd)
                   - sin_r ** (mm - 1) * cos_r) / mm
            if mm % 2 == 0:
                s_even = nxt
            else:
                s_odd = nxt
        s_m = s_even if m % 2 == 0 else s_odd
        out[~small] = s_m[~small]
    return out


def volume_profile(space: ModelSpace, r):
    """Weighted volume I(r) of the geodesic ball of radius r.

    Closed forms are used for kappa=0 (all n) and the 2-sphere; S^n with
    n >= 3 evaluates the sine-power integral exactly by recursion
    (series-stabilized near zero), keeping full precision so the profile
    can be inverted to relative 1e-12.
    """
    scalar = np.ndim(r) == 0
    r = _check_radius(space, r)
    n, a = space.n, space.alpha
    if space.kappa == 0:
        out = a * space.omega_n * r**n
    elif n == 2:
        # 2*pi*a*(1 - cos r), written to stay accurate near r = 0
        out = 4.0 * math.pi * a * np.sin(0.5 * r) ** 2
    else:
        out = a * n * space.omega_n * _sin_power_integral(n - 1, r)
    return float(out) if scalar else out


def volume_profile_derivative(space: ModelSpace, r, order: int = 1):
    """First or second radial derivative of the volume profile."""
    scalar = np.ndim(r) == 0
    r = _check_radius(space, r)
    n, a = space.n, space.alpha
    coef = a * n * space.omega_n
    s = sn_kappa(space.kappa, r)
    if order == 1:
        out = coef * s ** (n - 1)
    elif order == 2:
        ds = np.ones_like(r) if space.kappa == 0 else np.cos(r)
        if n == 2:
            out = coef * ds
        else:
            out = coef * (n - 1) * s ** (n - 2) * ds
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    return float(out) if scalar else out


def radius_for_volume(space: ModelSpace, vol: float) -> float:
    """Radius of the geodesic ball with weighted volume ``vol``."""
    return float(radii_for_volumes(space, vol)[0])


def radii_for_volumes(space: ModelSpace, vols) -> np.ndarray:
    """Radii of the geodesic balls with weighted volumes ``vols`` (1-D array).

    Inverts the volume profile: in closed form for kappa=0 and for the
    2-sphere; on S^n with n >= 3 by one guarded Newton iteration over the
    whole array (bisection steps whenever Newton leaves the bracket),
    switching to pure bisection where the volume sits within a relative 1e-6
    of full measure, where the profile derivative vanishes.
    """
    vols = np.atleast_1d(np.asarray(vols, dtype=float)).ravel()
    if not np.all((vols >= 0.0) & np.isfinite(vols)):
        raise DomainRangeError(f"volumes must be non-negative and finite, got {vols}")
    n, a = space.n, space.alpha
    if space.kappa == 0:
        return (vols / (a * space.omega_n)) ** (1.0 / n)

    total = volume_profile(space, math.pi)
    if np.any(vols > total * (1.0 + 1e-12)):
        raise DomainRangeError(
            f"volume {np.max(vols)} exceeds the total spherical measure {total}"
        )
    vols = np.minimum(vols, total)
    if n == 2:
        # vol = 4*pi*a*sin(r/2)^2
        return 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(vols / (4.0 * math.pi * a))))

    out = np.full_like(vols, math.pi)
    active = vols < total * (1.0 - 4e-16)
    near = total - vols < _ENDPOINT_MARGIN * total
    lo, hi = np.zeros_like(vols), np.full_like(vols, math.pi)
    r = np.where(near, 0.5 * math.pi, math.pi * (vols / total) ** (1.0 / n))
    for _ in range(200):
        if not np.any(active):
            break
        f = volume_profile(space, r) - vols
        hi = np.where(f > 0.0, r, hi)
        # <= so that float-plateau values near full measure resolve upward
        lo = np.where(f <= 0.0, r, lo)
        df = volume_profile_derivative(space, r)
        newton = r - f / np.where(df > 0.0, df, 1.0)
        step_ok = ~near & (df > 0.0) & (lo < newton) & (newton < hi)
        r_new = np.where(step_ok, newton, 0.5 * (lo + hi))
        r_new = np.where(~near & (f == 0.0), r, r_new)
        done = active & np.where(near, hi - lo < 1e-15,
                                 np.abs(r_new - r) < 1e-16 * np.maximum(1.0, r))
        out = np.where(done, r_new, out)
        active &= ~done
        r = r_new
    return np.where(active, r, out)


def isoperimetric_profile(space: ModelSpace, l):
    """Weighted boundary measure G(l) of the ball enclosing weighted volume l.

    G is the derivative of the volume profile composed with its inverse; for
    kappa=0 it reduces to the closed form n*(omega_n*alpha)^(1/n) * l^((n-1)/n).
    """
    scalar = np.ndim(l) == 0
    l = np.asarray(l, dtype=float)
    if np.any(l < -1e-15):
        raise DomainRangeError("measure level must be nonnegative")
    l = np.maximum(l, 0.0)
    n, a = space.n, space.alpha
    if space.kappa == 0:
        out = n * (space.omega_n * a) ** (1.0 / n) * l ** ((n - 1.0) / n)
    else:
        total = volume_profile(space, math.pi)
        if np.any(l > total * (1.0 + 1e-12)):
            raise DomainRangeError(
                f"measure level exceeds the total spherical measure {total}"
            )
        flat = np.minimum(l, total).ravel()
        g = volume_profile_derivative(space, radii_for_volumes(space, flat))
        out = np.where(flat < total, g, 0.0).reshape(np.shape(l))
    return float(out) if scalar else out


def profile_convexity_margin(space: ModelSpace, p: float, r):
    """Margin I'(r)^2 - 2*p*I(r)*I''(r) of the volume profile.

    Nonnegativity of this margin over (0, pi) is what makes the map
    l -> l^(1/p) * G(l)^(-2) monotone on the sphere; it is exposed so the
    verification layer can sample it directly.
    """
    if p <= 0.0:
        raise DomainRangeError(f"exponent p must be positive, got {p}")
    i0 = volume_profile(space, r)
    i1 = volume_profile_derivative(space, r, order=1)
    i2 = volume_profile_derivative(space, r, order=2)
    return i1**2 - 2.0 * p * i0 * i2
