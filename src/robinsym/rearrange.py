"""Distribution functions, rearrangements, and Lorentz norms.

For a piecewise-linear field on a measured mesh, the superlevel-set measure
mu(t) = |{|h| > t}|_g is piecewise quadratic in t: on each triangle, with
sorted vertex values a <= b <= c, the superlevel area fraction is

    1                                   t < a
    1 - (t-a)^2 / ((b-a)(c-a))          a <= t < b
    (c-t)^2 / ((c-b)(c-a))              b <= t < c
    0                                   t >= c

The module assembles these exactly into global per-interval quadratic
coefficients between sorted breakpoints (the distinct vertex magnitudes),
with the per-triangle density frozen at the centroid.  Everything downstream
— the decreasing rearrangement, its exact running integral, Schwarz
symmetrization onto model-space balls, and Lorentz norms — evaluates that
piecewise representation rather than rescanning the mesh.  Only mesh fields
take this form: the radial twin's side of a comparison is read on the
twin's own grid.

The coefficients are only evaluated at points, never integrated
symbolically: on near-flat triangles they reach 1e8 to 1e12, and an
antiderivative of A + B t + C t^2 cancels there.  Every integral of
t^e mu(t)^k — the layer-cake tail, the moments and the Lorentz norms — is a
Gauss rule on the slots, with mu clipped at 0.  The moments' Gauss nodes
are formed a block of the mesh module's BLOCK nodes at a time, each sum in
the order of one pass over all slots.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import ScalarField, _blocks, edge_midpoints, sorted_unique
from .model_geometry import (
    GeodesicBall,
    ModelSpace,
    radii_for_volumes,
    radius_for_volume,
    volume_profile,
)
from .radial import RadialProfile, _gauss_rule

_VALUE_MERGE_TOL = 1e-14


class RearrangeDomainError(ValueError):
    """Rearrangement queried outside [0, total measure]."""


class SphereOverflowError(ValueError):
    """Total measure exceeds the round sphere; no ball of that volume exists."""


class MeshMismatchError(ValueError):
    """Two fields that must share a mesh do not."""


class LorentzDivergenceError(ArithmeticError):
    """The Lorentz integral failed to produce a finite value."""


# ---------------------------------------------------------------------------
# quadrature


def _gauss_nodes(lo, hi, n=16):
    """n-point Gauss nodes on each cell [lo, hi], a row each, and half-widths."""
    half = 0.5 * (hi - lo)
    nodes = np.multiply.outer(half, _gauss_rule(n)[0])
    nodes += (0.5 * (lo + hi))[:, None]
    return nodes, half


# A fixed rule on [0, 1] for bounded integrands with a power singularity x^a
# (a > 0) at either end: Gauss cells [x/4, x] shrinking into both ends down to
# a width of 0.5 * 4^-22 ~ 3e-14.  Each cell lies a third of its width from
# the end, where 16-point Gauss converges like 3^-32 ~ 5e-16.
_END_EDGES = np.concatenate([[0.0], 0.5 * 0.25 ** np.arange(22, -1, -1)])
_END_EDGES = np.concatenate([_END_EDGES, 1.0 - _END_EDGES[-2::-1]])
_END_X, _END_HALF = _gauss_nodes(_END_EDGES[:-1], _END_EDGES[1:])


def _quadrature(values, weights, half):
    """sum_ij values_ij weights_j half_i, a row of Gauss nodes per cell, in
    numpy's own loops: a BLAS chain this long runs on the thread pool, which
    can stall it and makes its sum depend on the thread count."""
    return float(np.einsum("i,i->", np.einsum("ij,j->i", values, weights), half))


def _mu_power(dist, j, t, power):
    """mu(t)^power on slot(s) j, clipped at 0, in place on one temporary."""
    out = dist._C[j] * t
    out += dist._B[j]
    out *= t
    out += dist._A[j]
    np.maximum(out, 0.0, out=out)
    out **= power
    return out


@dataclass(frozen=True)
class LorentzParams:
    """Exponent pair (p, q); q = math.inf selects the weak (sup) form."""

    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 0.0) or math.isnan(self.p) or math.isinf(self.p):
            raise ValueError(f"p must be a positive real, got {self.p}")
        if not (self.q > 0.0) or math.isnan(self.q):
            raise ValueError(f"q must be positive or inf, got {self.q}")


class DistributionData:
    """Piecewise-quadratic superlevel measure mu(t) of |h| for a P1 field h
    on a measured mesh, built by ``from_field``.

    Slot j of the coefficient arrays covers [t_{j-1}, t_j) between the sorted
    breakpoints (t_{-1} = -inf, t_0 = 0); mu is right-continuous, equal to the
    total measure for t < 0 and zero at and above the largest breakpoint.
    """

    def __init__(self, breaks, coef_a, coef_b, coef_c, total):
        self._breaks = np.ascontiguousarray(breaks, dtype=float)
        self._A = np.ascontiguousarray(coef_a, dtype=float)
        self._B = np.ascontiguousarray(coef_b, dtype=float)
        self._C = np.ascontiguousarray(coef_c, dtype=float)
        self.total = float(total)
        K = len(self._breaks)
        if K < 1 or self._breaks[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if np.any(np.diff(self._breaks) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if self._A.shape != (K + 1,) or self._B.shape != (K + 1,) or self._C.shape != (K + 1,):
            raise ValueError("coefficient arrays must have len(breaks)+1 slots")

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_field(field: ScalarField) -> "DistributionData":
        """mu of |field|, ranking the vertex values once.

        |h| > t for t >= 0 splits into the disjoint parts {h > t} and
        {-h > t}; a part with no positive value adds nothing and is dropped.
        One ``np.unique`` ranks the vertex values of the parts left.  The
        breakpoints are 0 and the distinct positive values, with values
        closer than 1e-14 (relative to max(max |h|, 1)) merged; each distinct
        value is snapped onto its nearest breakpoint once, and a triangle
        reads its corners' snapped values through its three ranks, sorted.
        Every vertex lies on a triangle (``MeasuredMesh.validate``), so the
        ranked values are exactly the corner values.

        The working set is the int32 ranks of the triangles' corners,
        sorted in place, and a block of pieces: each kind of piece of mu is
        formed a block of BLOCK triangles at a time, in one pass for its
        start slots and one for its end slots, and added slot by slot into
        the coefficients in the order one ``np.bincount`` over all pieces
        would sum them.
        """
        mesh = field.mesh
        weights = mesh.centroid_density()
        weights *= mesh.chart_areas()
        total = float(np.sum(weights))
        h = field.values
        tol = _VALUE_MERGE_TOL * max(float(np.max(np.abs(h))), 1.0)
        parts = [x for x in (h, -h) if np.max(x) > 0.0]
        values, rank = np.unique(np.concatenate(parts) if parts else np.empty(0),
                                 return_inverse=True)
        rank = rank.astype(np.int32).reshape(len(parts), len(h))
        zero = int(np.searchsorted(values, 0.0, side="right"))  # the first positive
        raw = np.concatenate([[0.0], values[zero:]])
        merged = np.concatenate([[True], np.diff(raw) > tol])
        breaks = raw[merged]

        # snap the positive values onto the nearest merged breakpoint; a raw
        # value's lower neighbour is the last kept breakpoint at or below it
        lower = (np.cumsum(merged) - 1)[1:]
        upper = np.minimum(lower + 1, len(breaks) - 1)
        up = np.abs(raw[1:] - breaks.take(lower)) > np.abs(breaks.take(upper) - raw[1:])
        index = np.where(up, upper, lower)
        snapped = np.concatenate([values[:zero], breaks.take(index)])
        # slot j + 1 starts at breaks[j]; every value <= 0 starts slot 1
        start = np.concatenate([np.ones(zero, dtype=np.intp), index + 1], dtype=np.intp)
        del values, raw, merged, lower, upper, up, index

        # each part's triangles in mesh order, corner ranks sorted by a
        # network of three compare-exchanges
        ra, rb, rc = (rank.take(corner, axis=1) for corner in mesh.triangles.T)
        del rank
        lo = np.minimum(ra, rb)
        np.maximum(ra, rb, out=rb)
        ra = np.minimum(lo, rc)
        np.maximum(lo, rc, out=rc)
        lo = np.minimum(rb, rc)
        np.maximum(rb, rc, out=rc)
        rb = lo

        K = len(breaks)
        # the pieces of mu on each triangle, each A + B t + C t^2 from a
        # start slot to an end slot: the flat piece w on [0, a) for a > 0,
        # the rising one w * (1 - (t-a)^2/D1) on [max(a,0), b) and the
        # falling one w * (c-t)^2/D2 on [max(b,0), c); a triangle with no
        # positive corner has none.  Each piece adds its coefficient at its
        # start slot and takes it off at its end slot, one kind of piece
        # after the other; the running sum is each slot's coefficient
        A, B, C = np.zeros(K + 1), np.zeros(K + 1), np.zeros(K + 1)

        # a kind's pieces on the triangles of sorted corner ranks i, j, k
        # and weights w, and their start (end = 0) or end (end = 1) slots.
        # The snapped values rise with the rank, so a > 0 where i passes
        # the last rank of a value <= 0
        positive = int(np.searchsorted(snapped, 0.0, side="right"))

        def flat(i, j, k, w, end):
            on = np.flatnonzero(i >= positive)
            slots = start.take(i.take(on)) if end else np.ones(len(on), dtype=np.intp)
            return slots, [(A, w.take(on))]

        # the pieces are formed in place on the gathered values, each
        # product and quotient in the order of its formula:
        # w - w a^2 / D1, 2 w a / D1 and -w / D1 with D1 = (b - a)(c - a),
        # and w c^2 / D2, -2 w c / D2 and w / D2 with D2 = (c - b)(c - a)
        def rising(i, j, k, w, end):
            a, b = snapped.take(i), snapped.take(j)
            on = np.flatnonzero(b > np.maximum(a, 0.0))
            ar, d1, cr, wr = a.take(on), b.take(on), snapped.take(k.take(on)), w.take(on)
            d1 -= ar
            cr -= ar
            d1 *= cr
            pa = np.multiply(ar, ar, out=cr)
            pa *= wr
            pa /= d1
            np.subtract(wr, pa, out=pa)
            pb = np.multiply(wr, 2.0)
            pb *= ar
            pb /= d1
            pc = np.negative(wr, out=wr)
            pc /= d1
            return start.take((i, j)[end].take(on)), [(A, pa), (B, pb), (C, pc)]

        def falling(i, j, k, w, end):
            b, c = snapped.take(j), snapped.take(k)
            on = np.flatnonzero(c > np.maximum(b, 0.0))
            af, d2, cf, wf = snapped.take(i.take(on)), b.take(on), c.take(on), w.take(on)
            np.subtract(cf, d2, out=d2)
            np.subtract(cf, af, out=af)
            d2 *= af
            pa = np.multiply(cf, cf, out=af)
            pa *= wf
            pa /= d2
            pb = np.multiply(wf, -2.0)
            pb *= cf
            pb /= d2
            pc = np.divide(wf, d2, out=wf)
            return start.take((j, k)[end].take(on)), [(A, pa), (B, pb), (C, pc)]

        # a pass over the blocks of each part's triangles per kind and end,
        # so that each slot sums its terms in the order of one
        # ``np.bincount`` over all pieces; a piece's own temporary is negated
        # in place at its end slot: adding -x, not subtracting x, keeps the
        # sign bit of a nan
        for kind in (flat, rising, falling):
            for end in (0, 1):
                for part in range(len(parts)):
                    for rows in _blocks(len(weights)):
                        slots, pieces = kind(ra[part, rows], rb[part, rows], rc[part, rows],
                                             weights[rows], end)
                        for coef, piece in pieces:
                            np.add.at(coef, slots, np.negative(piece, out=piece) if end else piece)
        for coef in (A, B, C):
            np.cumsum(coef, out=coef)
        A[0], B[0], C[0] = total, 0.0, 0.0  # mu = total below t = 0
        A[K], B[K], C[K] = 0.0, 0.0, 0.0  # and 0 at/above the max value
        return DistributionData(breaks, A, B, C, total)

    # -- evaluation ---------------------------------------------------------

    @property
    def breakpoints(self) -> np.ndarray:
        """Threshold values, strictly decreasing."""
        return self._breaks[::-1].copy()

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._breaks, t, side="right")
        out = self._A[idx] + t * (self._B[idx] + t * self._C[idx])
        return out if out.ndim else float(out)

    def derivative(self, t):
        """Within-interval derivative mu'(t) (right version at breakpoints)."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self._breaks, t, side="right")
        out = self._B[idx] + 2.0 * t * self._C[idx]
        return out if out.ndim else float(out)

    def _gauss2(self, j, lo, hi):
        """2-point Gauss on slot(s) j over [lo, hi], exact for its quadratic mu."""
        nodes, half = _gauss_nodes(lo, hi, 2)
        return _mu_power(self, j, nodes, 1.0) @ _gauss_rule(2)[1] * half

    @functools.cached_property
    def _tails(self) -> np.ndarray:
        """Integral of mu over [t_j, infinity) at each breakpoint t_j: computed
        once, since a radial twin reads it on every block and Gauss node."""
        K = len(self._breaks)
        seg = self._gauss2(np.s_[1:K, None], self._breaks[:-1], self._breaks[1:])
        return np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    def tail_integral(self, t):
        """Integral of mu over [max(t, 0), infinity): 2-point Gauss, exact for
        the quadratic mu of a slot, on every slot past t and on the part of
        the slot that holds t."""
        t = np.asarray(t, dtype=float)
        br = self._breaks
        K = len(br)
        suffix = self._tails
        idx = np.searchsorted(br, t, side="right")
        j = np.clip(idx, 1, K - 1)
        tc = np.clip(t, br[j - 1], br[j])
        partial = self._gauss2(j.ravel()[:, None], tc.ravel(), br[j].ravel()).reshape(t.shape)
        out = np.where(idx >= K, 0.0,
                       np.where(idx == 0, suffix[0], partial + suffix[j]))
        return out if out.ndim else float(out)

    def moment(self, exponent_t: float, power_mu: float) -> float:
        """int_0^inf t^e mu(t)^k dt for e = exponent_t > -1, k = power_mu > 0,
        with mu clipped at 0, by one fixed rule per kind of slot.

        Interior slots hold a positive quadratic: Gauss with e // 2 + k + 1
        nodes, exact for t^e mu^k, when e and k are non-negative integers,
        else 16.  The top slot ends where mu jumps to 0 (a plateau), or
        vanishes like c - t (an edge) or (c - t)^2 (an isolated maximum), and
        on the first t^e is singular at 0 for e < 0: the end-graded rule takes
        both.  The interior slots' nodes are evaluated a block of BLOCK
        nodes at a time, and their per-slot sums meet the half-widths in one
        dot, as one pass over all slots would.  An overflow leaves inf or
        nan.
        """
        e, k = float(exponent_t), float(power_mu)
        if not (e > -1.0 and k > 0.0):
            raise ValueError(f"need exponent_t > -1 and power_mu > 0, got {e}, {k}")
        n = 16
        if e >= 0.0 and e.is_integer() and k.is_integer():
            n = min(int(e) // 2 + int(k) + 1, 16)
        br = self._breaks
        K = len(br)
        q = e + 1.0
        w16 = _gauss_rule(16)[1]
        integral = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            if K > 1:
                # slot 1, [0, t_1): t = t_1 x^(1/q) takes the t^e power into dx
                f = _mu_power(self, 1, br[1] * _END_X ** (1.0 / q), k)
                integral += br[1] ** q / q * _quadrature(f, w16, _END_HALF)
            if K > 2:
                lo, hi = br[K - 2], br[K - 1]
                t = lo + (hi - lo) * _END_X
                f = _mu_power(self, K - 1, t, k) * t ** e
                integral += (hi - lo) * _quadrature(f, w16, _END_HALF)
            # the interior slots 2 .. K - 2, a block of BLOCK Gauss nodes at
            # a time: each slot's row sum, then one dot with the half-widths
            sums = np.empty(max(K - 3, 0))
            for rows in _blocks(len(sums), n):
                lo, hi = br[rows.start + 1:rows.stop + 1], br[rows.start + 2:rows.stop + 2]
                t, _ = _gauss_nodes(lo, hi, n)
                f = _mu_power(self, np.s_[rows.start + 2:rows.stop + 2, None], t, k)
                f *= t ** e
                sums[rows] = np.einsum("ij,j->i", f, _gauss_rule(n)[1])
            integral += float(np.einsum("i,i->", sums, 0.5 * (br[2:K - 1] - br[1:K - 2])))
        return float(integral)


def distribution_function(field: ScalarField) -> DistributionData:
    """Exact distribution function of |field| on its measured mesh."""
    return DistributionData.from_field(field)


# ---------------------------------------------------------------------------
# decreasing rearrangement


class DecreasingRearrangement:
    """Generalized inverse h*(s) = inf{t >= 0 : mu(t) <= s} on [0, total]."""

    def __init__(self, dist: DistributionData):
        self.dist = dist
        self.total = dist.total
        self._slack = 1e-12 * max(self.total, 1.0)
        br = dist._breaks
        K = len(br)
        j = np.arange(K)
        self._mu_left = dist._A[j] + br * (dist._B[j] + br * dist._C[j])
        self._mu_right = dist._A[j + 1] + br * (dist._B[j + 1] + br * dist._C[j + 1])

    @property
    def sup_value(self) -> float:
        """h*(0), the essential sup of the field magnitude."""
        return float(self.dist._breaks[-1]) if self._mu_right[0] > 0.0 else 0.0

    def kinks(self) -> np.ndarray:
        """Measure values where h* changes analytic form, ascending in s."""
        s = np.concatenate([self._mu_left, self._mu_right, [0.0, self.total]])
        s = sorted_unique(np.clip(s, 0.0, self.total))
        return s

    def _invert(self, s, strict):
        dist = self.dist
        br = dist._breaks
        K = len(br)
        s = np.asarray(s, dtype=float)
        side = "left" if strict else "right"
        count = np.searchsorted(self._mu_right[::-1], s, side=side)
        k = K - count
        k_c = np.clip(k, 1, K - 1)

        A = dist._A[k_c] - s
        B = dist._B[k_c]
        C = dist._C[k_c]
        left_ok = self._mu_left[k_c] < s if strict else self._mu_left[k_c] <= s
        disc = np.sqrt(np.maximum(B * B - 4.0 * C * A, 0.0))
        denom = -B + disc
        safe = np.abs(denom) > 0.0
        root = np.where(safe, 2.0 * A / np.where(safe, denom, 1.0), br[k_c])
        root = np.clip(root, br[k_c - 1], br[k_c])
        out = np.where(left_ok, root, br[k_c])
        out = np.where(k == 0, 0.0, out)
        out = np.where(k >= K, br[-1], out)
        return out if out.ndim else float(out)

    def _in_domain(self, s):
        """``s`` as an array, refused unless it lies in [0, total] up to
        roundoff slack."""
        s = np.asarray(s, dtype=float)
        if np.any(s < -self._slack) or np.any(s > self.total + self._slack):
            raise RearrangeDomainError(
                f"rearrangement argument outside [0, {self.total!r}]"
            )
        return s

    def __call__(self, s):
        return self._invert(np.clip(self._in_domain(s), 0.0, self.total), strict=False)

    def left_limit(self, s):
        """lim_{x -> s^-} h*(x); at s = total this is the essential infimum,
        with mu(0) short of the total by roundoff only taken as the total."""
        s = self._in_domain(s)
        top = self.total
        if self.total - self._mu_right[0] <= self._slack:
            top = min(top, float(self._mu_right[0]))
        return self._invert(np.clip(s, 0.0, top), strict=True)

    def cumulative(self, w):
        """Exact integral of h* over [0, w] (layer-cake identity)."""
        w = np.asarray(w, dtype=float)
        tau = self.__call__(w)
        out = np.clip(w, 0.0, self.total) * tau + self.dist.tail_integral(tau)
        return out if out.ndim else float(out)


def decreasing_rearrangement(dist: DistributionData) -> DecreasingRearrangement:
    return DecreasingRearrangement(dist)


def schwarz_rearrangement(dist: DistributionData, space: ModelSpace) -> RadialProfile:
    """Radial non-increasing representative on the ball of equal measure.

    The grid contains the exact radii of every rearrangement kink (so the
    threshold-measure relation holds to roundoff at sampled levels) plus a
    uniform backbone; the boundary value is the essential infimum.
    """
    total = dist.total
    if space.kappa == 1 and total > space.total_volume * (1.0 + 1e-12):
        raise SphereOverflowError(
            f"measure {total!r} exceeds the sphere volume {space.total_volume!r}"
        )
    R = radius_for_volume(space, min(total, space.total_volume))
    rearr = decreasing_rearrangement(dist)

    kink_radii = radii_for_volumes(space, rearr.kinks())
    grid = sorted_unique(np.concatenate([np.linspace(0.0, R, 257), kink_radii]))
    grid = np.clip(grid, 0.0, R)
    keep = np.concatenate([[True], np.diff(grid) > 1e-13 * max(R, 1.0)])
    grid = grid[keep]
    grid[-1] = R

    s_grid = np.minimum(volume_profile(space, grid), total)
    values = rearr(s_grid)
    values[-1] = rearr.left_limit(total)
    values = np.maximum.accumulate(values[::-1])[::-1]  # roundoff-proof monotone
    return RadialProfile(ball=GeodesicBall(space=space, radius=R),
                         grid=grid, values=values)


# ---------------------------------------------------------------------------
# Lorentz norms


def lorentz_norm(dist: DistributionData, params: LorentzParams) -> float:
    """Lorentz functional of the distribution.

    Finite q: (p * int_0^inf t^(q-1) mu(t)^(q/p) dt)^(1/q), the integral
    being `DistributionData.moment(q - 1, q / p)`, one fixed Gauss pass over
    the slots with mu clipped at 0.  q = inf: sup_t t^p mu(t), from the slot
    ends and the critical points of each slot's quadratic.  A value that
    overflows double precision raises LorentzDivergenceError, and so does a
    finite-q value that underflows to 0 while mu has positive mass.
    """
    p, q = params.p, params.q
    if math.isinf(q):
        lo, hi = dist._breaks[:-1], dist._breaks[1:]
        A, B, C = dist._A[1:-1], dist._B[1:-1], dist._C[1:-1]
        best = np.maximum(hi**p * (A + hi * (B + hi * C)),
                          lo**p * (A + lo * (B + lo * C)))
        # interior critical points of t^p (A + B t + C t^2)
        qa, qb, qc = (p + 2.0) * C, (p + 1.0) * B, p * A
        disc = qb * qb - 4.0 * qa * qc
        ok = (disc >= 0.0) & (np.abs(qa) > 0.0)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for sgn in (1.0, -1.0):
            t = np.where(ok, (-qb + sgn * sq) / np.where(ok, 2.0 * qa, 1.0), lo)
            t = np.clip(t, lo, hi)
            best = np.maximum(best, t**p * (A + t * (B + t * C)))
        value = float(np.max(best)) if len(best) else 0.0
        if not math.isfinite(value):
            raise LorentzDivergenceError("weak-form supremum is not finite")
        return value

    integral = dist.moment(q - 1.0, q / p)
    try:
        value = float((p * integral) ** (1.0 / q))
    except OverflowError:  # a finite integral whose 1/q-th power overflows
        value = math.inf
    if not math.isfinite(value):
        raise LorentzDivergenceError(
            f"Lorentz integral for (p={p}, q={q}) did not converge"
        )
    if value == 0.0 and dist.moment(0.0, 1.0) > 0.0:
        # mu has positive mass, so the norm is positive: t^(q-1) mu^(q/p), or
        # the integral's 1/q-th power, fell below the least double
        raise LorentzDivergenceError(
            f"Lorentz integral for (p={p}, q={q}) underflowed to 0 while mu "
            f"has positive mass"
        )
    return value


# ---------------------------------------------------------------------------
# Hardy-Littlewood pairing


# graded reference subdivision of [0, 1]: rearrangements have square-root
# behavior at interval ends, so cells shrink geometrically into both corners
_HL_EDGES = np.array(
    [0.0, 1e-7, 1e-5, 1e-3, 1e-2, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-5,
     1.0 - 1e-7, 1.0]
)


def _pair_nodes(lo, hi):
    edges = lo[:, None] + (hi - lo)[:, None] * _HL_EDGES[None, :]
    nodes, half = _gauss_nodes(edges[:, :-1].ravel(), edges[:, 1:].ravel(), 12)
    return nodes.ravel(), np.multiply.outer(half, _gauss_rule(12)[1]).ravel()


def hardy_littlewood_check(f1: ScalarField, f2: ScalarField):
    """(integral of |f1 f2| over the mesh, integral of f1* f2* over [0, total]).

    The mesh side uses the edge-midpoint rule (exact for sign-definite P1
    products); the rearranged side integrates between the kinks of both
    rearrangements on a corner-graded Gauss grid.
    """
    if f1.mesh is not f2.mesh and not (
        f1.mesh.geometry == f2.mesh.geometry
        and f1.mesh.vertices.shape == f2.mesh.vertices.shape
        and np.array_equal(f1.mesh.vertices, f2.mesh.vertices)
        and np.array_equal(f1.mesh.triangles, f2.mesh.triangles)
    ):
        raise MeshMismatchError("fields live on different meshes")

    mesh = f1.mesh
    tri = mesh.triangles
    # the weight is the centroid density, not the midpoint one of the
    # element kernel: the distribution functions, and so the rearranged
    # side, measure each triangle with it
    w = mesh.chart_areas() * mesh.centroid_density()
    m12 = edge_midpoints(f1.values[tri]) * edge_midpoints(f2.values[tri])
    lhs = float(np.sum(w / 3.0 * np.sum(np.abs(m12), axis=1)))

    r1 = decreasing_rearrangement(distribution_function(f1))
    r2 = decreasing_rearrangement(distribution_function(f2))
    s_nodes = sorted_unique(np.concatenate([r1.kinks(), r2.kinks()]))
    lo, hi = s_nodes[:-1], s_nodes[1:]
    keep = hi > lo
    nodes, weights = _pair_nodes(lo[keep], hi[keep])
    rhs = float(np.sum(weights * r1(nodes) * r2(nodes)))
    return lhs, rhs
