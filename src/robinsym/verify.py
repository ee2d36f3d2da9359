"""Pass/fail checks of the symmetrization comparisons.

Each check pairs a discrete solution on a measured mesh with its matched
radial problem (same weighted volume, rearranged source) and reports the
two sides of one inequality.  Tolerances scale with the mesh size h: norm
comparisons use 5h relative, pointwise and level-set comparisons 10h
absolute, because the FEM data carries first-order constants at corners
even where the interior error is O(h^2).  Every report keeps its raw gap
so a refinement study can confirm convergence instead of trusting a single
pass.

Checks that own their mesh (isoperimetric, torsional rigidity, eigenvalue)
retry once on a uniformly refined mesh before finalizing a failure; that
separates discretization artifacts from genuine violations.  A check that
reads the distribution function of u takes it as ``dist`` when the caller
holds it, as a :class:`SolveRecord` does.
"""

import csv
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson, simpson
from scipy.interpolate import PchipInterpolator

from . import fem
from .fem import RobinProblem
from .mesh import MeasuredMesh, ScalarField, length_factor, refine
from .model_geometry import (
    GeodesicBall,
    ModelSpace,
    isoperimetric_profile,
    radius_for_volume,
    sphere_area,
    volume_profile,
)
from .radial import (
    RadialProfile,
    constant_source,
    radial_distribution,
    solve_radial_eigen,
    solve_symmetrized_poisson,
    source_from_profile,
)
from .rearrange import (
    DecreasingRearrangement,
    DistributionData,
    LorentzParams,
    decreasing_rearrangement,
    distribution_function,
    lorentz_norm,
    schwarz_rearrangement,
)

_LOG = logging.getLogger(__name__)

_GAUSS2 = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


class MatchMismatchError(ValueError):
    """The mesh measure and the radial ball volume disagree."""


class HypothesisRangeError(ValueError):
    """(p, q, kappa, n) fall outside the stated hypotheses; the check
    refuses rather than extrapolates."""


class ProfileDivergenceError(ValueError):
    """The profile-function integrand is non-integrable at 0."""


class AdmissibilityError(ValueError):
    """The test function violates the admissible-class bounds."""


@dataclass(frozen=True)
class ComparisonReport:
    """Two sides of one inequality plus the verdict.

    gap is the slack by which the inequality holds (non-negative when it
    does); skipped marks thresholds where the compared quantity is not
    defined (empty level set, distribution breakpoint).
    """

    check_id: str
    lhs: float
    rhs: float
    gap: float
    tolerance: float
    passed: bool
    context: dict = field(default_factory=dict)
    skipped: bool = False


_CSV_COLUMNS = ("check_id", "lhs", "rhs", "gap", "tol", "passed",
                "h", "beta", "p", "q", "kappa", "n")


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reports_to_csv(reports, path: str):
    """Deterministic summary table, one row per report."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for rep in reports:
            ctx = rep.context
            writer.writerow([
                rep.check_id,
                _csv_cell(rep.lhs),
                _csv_cell(rep.rhs),
                _csv_cell(rep.gap),
                _csv_cell(rep.tolerance),
                _csv_cell(rep.passed),
                _csv_cell(ctx.get("h")),
                _csv_cell(ctx.get("beta")),
                _csv_cell(ctx.get("p")),
                _csv_cell(ctx.get("q")),
                _csv_cell(ctx.get("kappa")),
                _csv_cell(ctx.get("n")),
            ])


def _jsonable(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def reports_to_jsonl(reports, path: str):
    """One JSON object per line; non-finite numbers become null."""
    with open(path, "w") as fh:
        for rep in reports:
            obj = {
                "check_id": rep.check_id,
                "lhs": _jsonable(rep.lhs),
                "rhs": _jsonable(rep.rhs),
                "gap": _jsonable(rep.gap),
                "tolerance": _jsonable(rep.tolerance),
                "passed": bool(rep.passed),
                "skipped": bool(rep.skipped),
                "context": {k: _jsonable(v) for k, v in rep.context.items()},
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# shared pieces


def _space_context(space: ModelSpace, **extra) -> dict:
    ctx = {"kappa": space.kappa, "n": space.n, "alpha": space.alpha}
    ctx.update(extra)
    return ctx


def _integrate_field(mesh: MeasuredMesh, values: np.ndarray) -> float:
    """Weighted integral of a P1 field by the edge-midpoint rule."""
    area = mesh.chart_areas()
    dens = mesh.density[mesh.triangles]
    vals = values[mesh.triangles]
    rho_mid = 0.5 * (dens + np.roll(dens, -1, axis=1))
    v_mid = 0.5 * (vals + np.roll(vals, -1, axis=1))
    return float(np.sum(area / 3.0 * np.sum(v_mid * rho_mid, axis=1)))


def _require_match(mesh: MeasuredMesh, ball: GeodesicBall):
    lhs = mesh.total_measure()
    rhs = volume_profile(ball.space, ball.radius)
    if abs(lhs - rhs) > 1e-6 * max(abs(rhs), 1e-300):
        raise MatchMismatchError(
            f"mesh measure {lhs!r} does not match ball volume {rhs!r}")


def _boundary_arrays(field: ScalarField):
    """Per boundary edge: endpoint values, length factors, chart length."""
    mesh = field.mesh
    edges = mesh.boundary_edges
    a = field.values[edges[:, 0]]
    b = field.values[edges[:, 1]]
    sig = mesh.boundary_density
    return a, b, sig[:, 0], sig[:, 1], mesh.boundary_chart_lengths()


def _superlevel_interval(a: float, b: float, t: float):
    """Sub-interval of [0, 1] where the linear value a + (b-a)s is >= t."""
    if a >= t and b >= t:
        return 0.0, 1.0
    if a < t and b < t:
        return None
    s = (t - a) / (b - a)
    return (0.0, s) if a >= t else (s, 1.0)


def _edge_reciprocal(a, b, sig0, sig1, length, s0, s1):
    """Closed form of the length integral of 1/u over a sub-edge (u linear,
    length factor linear); u must stay positive on [s0, s1]."""
    d = b - a
    if abs(d) <= 1e-13 * max(abs(a), abs(b)):
        mid = 0.5 * (s0 + s1)
        sig_mid = sig0 + (sig1 - sig0) * mid
        return length * sig_mid * (s1 - s0) / (a + d * mid)
    c1 = (sig1 - sig0) / d
    c0 = sig0 - a * c1
    return length * (c1 * (s1 - s0)
                     + (c0 / d) * math.log((a + d * s1) / (a + d * s0)))


def _edge_weighted_length(sig0, sig1, length, s0, s1):
    mid = 0.5 * (s0 + s1)
    return length * (s1 - s0) * (sig0 + (sig1 - sig0) * mid)


# ---------------------------------------------------------------------------
# isoperimetric and minimum comparisons


def _isoperimetric_once(mesh: MeasuredMesh, space: ModelSpace,
                        retried: bool) -> ComparisonReport:
    lhs = mesh.boundary_measure()
    rhs = float(isoperimetric_profile(space, mesh.total_measure()))
    h = mesh.mesh_size()
    tol = 5.0 * h * rhs
    return ComparisonReport(
        check_id="isoperimetric",
        lhs=lhs, rhs=rhs, gap=lhs - rhs, tolerance=tol,
        passed=lhs >= rhs - tol,
        context=_space_context(space, h=h, retried=retried),
    )


def check_isoperimetric(mesh: MeasuredMesh, space: ModelSpace) -> ComparisonReport:
    """Weighted boundary length against the isoperimetric bound for the
    mesh's weighted volume."""
    report = _isoperimetric_once(mesh, space, retried=False)
    if not report.passed:
        report = _isoperimetric_once(refine(mesh), space, retried=True)
    return report


def check_min_comparison(u: ScalarField, v: RadialProfile) -> ComparisonReport:
    """Minimum of the solution against the symmetrized boundary value."""
    _require_match(u.mesh, v.ball)
    lhs = float(np.min(u.values))
    rhs = float(v.values[-1])
    h = u.mesh.mesh_size()
    tol = 10.0 * h * abs(rhs)
    return ComparisonReport(
        check_id="min_comparison",
        lhs=lhs, rhs=rhs, gap=rhs - lhs, tolerance=tol,
        passed=lhs <= rhs + tol,
        context=_space_context(v.ball.space, h=h, radius=v.ball.radius),
    )


# ---------------------------------------------------------------------------
# level-set inequalities


def _source_cumulative(problem: RobinProblem):
    """w -> integral of the decreasing rearrangement of the source on [0, w]."""
    if problem.source is None:
        return lambda w: w
    fstar = decreasing_rearrangement(distribution_function(problem.source))
    return fstar.cumulative


def _check_boundary_positive(u: ScalarField):
    bmin = float(np.min(u.values[u.mesh.boundary_vertices]))
    if bmin <= 0.0:
        raise ValueError(
            f"boundary values must be positive for the 1/u integral, min {bmin!r}")


def check_lemma_31(u: ScalarField, problem: RobinProblem, space: ModelSpace,
                   t_grid, *, dist: DistributionData | None = None) -> list:
    """Level-set differential inequality: isoperimetric term against the
    derivative of the distribution plus the exterior boundary term."""
    if problem.mesh is not u.mesh:
        raise ValueError("problem and field live on different meshes")
    _check_boundary_positive(u)
    dist = distribution_function(u) if dist is None else dist
    breaks = np.asarray(dist.breakpoints, dtype=float)
    cumulative = _source_cumulative(problem)
    a, b, sig0, sig1, lengths = _boundary_arrays(u)
    umin = float(np.min(u.values))
    umax = float(np.max(u.values))
    scale = max(abs(umax), 1e-300)
    h = u.mesh.mesh_size()
    beta = problem.beta
    ctx = _space_context(space, h=h, beta=beta)

    reports = []
    for t in np.atleast_1d(np.asarray(t_grid, dtype=float)):
        t = float(t)
        out_of_range = not (umin < t < umax) or t <= 0.0
        at_breakpoint = bool(np.any(np.abs(breaks - t) <= 1e-12 * scale))
        if out_of_range or at_breakpoint:
            reports.append(ComparisonReport(
                check_id="lemma_31", lhs=math.nan, rhs=math.nan, gap=math.nan,
                tolerance=10.0 * h, passed=True, skipped=True,
                context=dict(ctx, t=t)))
            continue
        mu = dist.evaluate(t)
        dmu = dist.derivative(t)
        exterior = 0.0
        for k in range(len(a)):
            seg = _superlevel_interval(a[k], b[k], t)
            if seg is not None:
                exterior += _edge_reciprocal(a[k], b[k], sig0[k], sig1[k],
                                             lengths[k], *seg)
        lhs = float(isoperimetric_profile(space, mu)) ** 2
        rhs = float(cumulative(mu)) * (-dmu + exterior / beta)
        tol = 10.0 * h
        reports.append(ComparisonReport(
            check_id="lemma_31", lhs=lhs, rhs=rhs, gap=rhs - lhs,
            tolerance=tol, passed=lhs <= rhs * (1.0 + 1e-6) + tol,
            context=dict(ctx, t=t)))
    return reports


def check_lemma_32(u: ScalarField, problem: RobinProblem, t: float) -> ComparisonReport:
    """Truncated boundary flux against the total source integral.

    The threshold integral collapses by Fubini to the exact per-edge
    integral of min(t, u)^2 / (2u) over the boundary.
    """
    if problem.mesh is not u.mesh:
        raise ValueError("problem and field live on different meshes")
    _check_boundary_positive(u)
    a, b, sig0, sig1, lengths = _boundary_arrays(u)
    beta = problem.beta

    lhs = 0.0
    for k in range(len(a)):
        ak, bk = float(a[k]), float(b[k])
        high = _superlevel_interval(ak, bk, t)
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
                lhs += 0.5 * t * t * _edge_reciprocal(
                    ak, bk, sig0[k], sig1[k], lengths[k], s0, s1)
            else:
                # integrand sigma * u / 2 is quadratic: 2-point Gauss exact
                for g in _GAUSS2:
                    s = s0 + (s1 - s0) * g
                    sig = sig0[k] + (sig1[k] - sig0[k]) * s
                    lhs += 0.5 * (s1 - s0) * lengths[k] * sig * (ak + (bk - ak) * s) / 2.0
    rhs = _integrate_field(problem.mesh, problem.source_values()) / (2.0 * beta)
    tol = 1e-8 * max(abs(rhs), 1.0)
    return ComparisonReport(
        check_id="lemma_32", lhs=lhs, rhs=rhs, gap=rhs - lhs, tolerance=tol,
        passed=lhs <= rhs + tol,
        context={"h": u.mesh.mesh_size(), "beta": beta, "t": t})


def check_measure_bound(u: ScalarField, v: RadialProfile, space: ModelSpace, *,
                        dist: DistributionData | None = None) -> ComparisonReport:
    """Distribution of u never exceeds the weighted radial distribution
    below the symmetrized minimum."""
    _require_match(u.mesh, v.ball)
    dist = distribution_function(u) if dist is None else dist
    rad = radial_distribution(v, space)
    v_m = float(v.values[-1])
    ts = np.linspace(0.0, v_m, 34)[1:-1]
    worst = float(np.max([dist.evaluate(t) - rad.evaluate(t) for t in ts]))
    tol = 1e-9 * max(dist.total, 1.0)
    return ComparisonReport(
        check_id="measure_bound", lhs=worst, rhs=0.0, gap=-worst,
        tolerance=tol, passed=worst <= tol,
        context=_space_context(space, h=u.mesh.mesh_size(), v_m=v_m))


# ---------------------------------------------------------------------------
# profile functions


@dataclass(frozen=True)
class ProfileFunctions:
    """Nested cumulative integrals of the rearranged source against the
    isoperimetric profile; F and H vanish at 0 and are non-decreasing."""

    space: ModelSpace
    p: float
    fstar: DecreasingRearrangement
    F: object
    H: object


def _singular_exponent(space: ModelSpace, p: float) -> float:
    # the integrand factor w^{1/p} G(w)^{-2} behaves like this power at 0
    return 1.0 / p - 2.0 * (space.n - 1) / space.n


def _clamped_pchip(grid: np.ndarray, values: np.ndarray, lmax: float):
    interp = PchipInterpolator(np.concatenate([[0.0], grid]),
                               np.concatenate([[0.0], values]))
    def handle(l):
        return interp(np.clip(l, 0.0, lmax))
    return handle


def profile_functions(space: ModelSpace, p: float,
                      fstar: DecreasingRearrangement) -> ProfileFunctions:
    """Build the two nested profile integrals on a log-uniform grid."""
    if not (p > 0.0) or not math.isfinite(p):
        raise ValueError(f"p must be positive and finite, got {p}")
    sing = _singular_exponent(space, p)
    if sing <= -1.0:
        raise ProfileDivergenceError(
            f"profile integrand has exponent {sing} <= -1 at w=0 (p={p})")
    lmax = fstar.total
    grid = np.geomspace(lmax * 1e-9, lmax, 4096)
    G2 = np.asarray(isoperimetric_profile(space, grid), dtype=float) ** 2
    Phi = np.asarray(fstar.cumulative(grid), dtype=float)

    f_integrand = grid ** (1.0 / p) * Phi / G2
    eF = sing + 1.0  # the cumulative source contributes one power of w
    headF = f_integrand[0] * grid[0] / (eF + 1.0)
    F_vals = headF + cumulative_simpson(f_integrand, x=grid, initial=0.0)

    h_integrand = F_vals * Phi / G2
    eH = eF + 2.0 - 2.0 * (space.n - 1) / space.n
    headH = h_integrand[0] * grid[0] / (eH + 1.0)
    H_vals = headH + cumulative_simpson(h_integrand, x=grid, initial=0.0)

    return ProfileFunctions(
        space=space, p=p, fstar=fstar,
        F=_clamped_pchip(grid, F_vals, lmax),
        H=_clamped_pchip(grid, H_vals, lmax),
    )


_MONOTONE_CLAIMS = ("A", "B", "C", "D")


def check_profile_monotonicity(space: ModelSpace, p: float,
                               which: str) -> ComparisonReport:
    """Pairwise non-decrease of one profile quantity on a log grid.

    A: l^{1/p} G^{-2};  B: F G^{-2};  C: l^{1/p+1} G^{-2};  D: l F G^{-2},
    with F built for the unit source. Out-of-range parameters are reported
    as failures, not errors, to document where the claims stop holding.
    """
    if which not in _MONOTONE_CLAIMS:
        raise ValueError(f"unknown claim {which!r}, expected one of A-D")
    if not (p > 0.0) or not math.isfinite(p):
        raise ValueError(f"p must be positive and finite, got {p}")
    if space.kappa == 1:
        lmax = space.total_volume * (1.0 - 1e-6)
    else:
        lmax = 1.0
    grid = np.geomspace(lmax * 1e-6, lmax, 2048)
    G2 = np.asarray(isoperimetric_profile(space, grid), dtype=float) ** 2

    if which in ("B", "D"):
        sing = _singular_exponent(space, p)
        if sing <= -1.0:
            raise ProfileDivergenceError(
                f"profile integrand has exponent {sing} <= -1 at w=0 (p={p})")
        integrand = grid ** (1.0 / p) * grid / G2  # unit source: Phi(w) = w
        head = integrand[0] * grid[0] / (sing + 2.0)
        F_vals = head + cumulative_simpson(integrand, x=grid, initial=0.0)

    if which == "A":
        vals = grid ** (1.0 / p) / G2
    elif which == "B":
        vals = F_vals / G2
    elif which == "C":
        vals = grid ** (1.0 / p + 1.0) / G2
    else:
        vals = grid * F_vals / G2

    scale = np.maximum(np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])), 1e-300)
    worst = float(np.max((vals[:-1] - vals[1:]) / scale))
    return ComparisonReport(
        check_id=f"profile_monotone_{which}",
        lhs=max(worst, 0.0), rhs=0.0, gap=-worst, tolerance=1e-9,
        passed=worst <= 1e-9,
        context=_space_context(space, p=p, which=which))


# ---------------------------------------------------------------------------
# main comparison theorems


def _norm_params(p: float, q: int) -> LorentzParams:
    if q == 1:
        return LorentzParams(p, 1.0)
    return LorentzParams(2.0 * p, 2.0)


def _main1_range(space: ModelSpace, p: float, q: int):
    n = space.n
    if q not in (1, 2):
        raise HypothesisRangeError(f"q must be 1 or 2, got {q}")
    if not (p > 0.0):
        raise HypothesisRangeError(f"p must be positive, got {p}")
    if q == 1:
        limit = n / (2.0 * n - 2.0)
    elif space.kappa == 0:
        limit = n / (3.0 * n - 4.0)
    elif n == 2:
        limit = 1.0
    else:
        limit = n / (3.0 * n - 3.0)
    if p > limit * (1.0 + 1e-12):
        raise HypothesisRangeError(
            f"p={p} outside the stated range (0, {limit}] for "
            f"q={q}, kappa={space.kappa}, n={n}")


def _main2_range(space: ModelSpace, p: float, q: int):
    n = space.n
    if q not in (1, 2):
        raise HypothesisRangeError(f"q must be 1 or 2, got {q}")
    if not (p > 0.0):
        raise HypothesisRangeError(f"p must be positive, got {p}")
    if q == 2 and space.kappa != 0:
        raise HypothesisRangeError("q=2 torsion comparison is stated for kappa=0 only")
    if n > 2:
        limit = n / (n - 2.0)
        if p > limit * (1.0 + 1e-12):
            raise HypothesisRangeError(
                f"p={p} outside the stated range (0, {limit}] for n={n}")


def _norm_comparison(check_id: str, u: ScalarField, v: RadialProfile,
                     space: ModelSpace, p: float, q: int,
                     dist: DistributionData | None) -> ComparisonReport:
    _require_match(u.mesh, v.ball)
    params = _norm_params(p, q)
    lhs = lorentz_norm(distribution_function(u) if dist is None else dist, params)
    # the weighted radial distribution already carries the alpha factor that
    # the comparison puts in front of the unweighted ball norm
    rhs = lorentz_norm(radial_distribution(v, space), params)
    h = u.mesh.mesh_size()
    tol = 5.0 * h * rhs
    return ComparisonReport(
        check_id=check_id, lhs=lhs, rhs=rhs, gap=rhs - lhs, tolerance=tol,
        passed=lhs <= rhs * (1.0 + 5.0 * h),
        context=_space_context(space, h=h, p=p, q=q))


def check_theorem_main1(u: ScalarField, v: RadialProfile, space: ModelSpace,
                        p: float, q: int, *,
                        dist: DistributionData | None = None) -> ComparisonReport:
    """Lorentz-norm comparison for general non-negative sources."""
    _main1_range(space, p, q)
    return _norm_comparison("theorem_main1", u, v, space, p, q, dist)


def check_theorem_main2(u: ScalarField, v: RadialProfile, space: ModelSpace,
                        p: float = 1.0, q: int = 1, pointwise: bool = False, *,
                        dist: DistributionData | None = None) -> ComparisonReport:
    """Torsion comparison: wider norm ranges, plus the pointwise mode."""
    if pointwise:
        if space.n != 2 or space.kappa != 0:
            raise HypothesisRangeError(
                "pointwise comparison is stated for n=2, kappa=0")
        _require_match(u.mesh, v.ball)
        dist = distribution_function(u) if dist is None else dist
        ustar = schwarz_rearrangement(dist, space)
        v_at = np.interp(ustar.grid, v.grid, v.values)
        worst = float(np.max(ustar.values - v_at))
        h = u.mesh.mesh_size()
        tol = 10.0 * h
        return ComparisonReport(
            check_id="theorem_main2_pointwise",
            lhs=worst, rhs=0.0, gap=-worst, tolerance=tol,
            passed=worst <= tol,
            context=_space_context(space, h=h, p=p, q=q))
    _main2_range(space, p, q)
    return _norm_comparison("theorem_main2", u, v, space, p, q, dist)


# ---------------------------------------------------------------------------
# rigidity functionals


@dataclass(frozen=True)
class SolveRecord:
    """One Robin problem solved once, with everything the checks read: the
    solution u and its distribution, the matched ball and its radial twin
    v, and the first eigenpair when one was asked for."""

    problem: RobinProblem
    u: ScalarField
    dist: DistributionData
    ball: GeodesicBall
    v: RadialProfile
    # (lambda, ground state); lambda is nan when the ground state changed sign
    eigen: tuple | None = None


def solve_record(problem: RobinProblem, space: ModelSpace,
                 eigen: bool = False) -> SolveRecord:
    """Assemble and factor the problem once: the Poisson solve and, with
    ``eigen``, the inverse iteration share the factor, freed before the rest
    is built.  The twin's source is the Schwarz rearrangement of the
    problem's."""
    mesh, beta = problem.mesh, problem.beta
    system = fem.assemble(problem)
    lu = fem.factor_robin(system.robin_matrix(beta))
    u = fem.solve_robin_poisson(problem, system, lu)
    pair = None
    if eigen:
        try:
            pair = fem.solve_robin_eigen(mesh, beta, system, lu)
        except fem.EigenSignError:
            pair = (math.nan, None)
    del system, lu  # the largest allocations; they set the peak memory
    ball = GeodesicBall(space, radius_for_volume(space, mesh.total_measure()))
    if problem.source is None:
        src = constant_source(ball)
    else:
        src = source_from_profile(schwarz_rearrangement(
            distribution_function(problem.source), space))
    return SolveRecord(problem=problem, u=u, dist=distribution_function(u),
                       ball=ball, v=solve_symmetrized_poisson(ball, beta, src),
                       eigen=pair)


def _refined_record(rec: SolveRecord, eigen: bool = False) -> SolveRecord:
    problem = RobinProblem(mesh=refine(rec.problem.mesh), beta=rec.problem.beta)
    return solve_record(problem, rec.ball.space, eigen)


def _saint_venant_once(rec: SolveRecord, retried: bool) -> ComparisonReport:
    space, mesh, beta = rec.ball.space, rec.u.mesh, rec.problem.beta
    lhs = _integrate_field(mesh, rec.u.values)
    # sphere_area carries no cone-angle weight; the ball's measure does
    rhs = float(space.alpha * simpson(rec.v.values * sphere_area(space, rec.v.grid),
                                      x=rec.v.grid))
    h = mesh.mesh_size()
    return ComparisonReport(
        check_id="saint_venant",
        lhs=lhs, rhs=rhs, gap=rhs - lhs, tolerance=5.0 * h * rhs,
        passed=lhs <= rhs * (1.0 + 5.0 * h),
        context=_space_context(space, h=h, beta=beta, retried=retried))


def check_saint_venant(rec: SolveRecord) -> ComparisonReport:
    """Torsional rigidity of the mesh against the matched ball, from a
    unit-source record; a failure retries once on the refined mesh."""
    if rec.problem.source is not None:
        raise ValueError("torsional rigidity needs the unit-source record")
    report = _saint_venant_once(rec, retried=False)
    if not report.passed:
        report = _saint_venant_once(_refined_record(rec), retried=True)
    return report


def _bossel_daners_once(rec: SolveRecord, retried: bool) -> ComparisonReport:
    lhs = rec.eigen[0]
    rhs, _ = solve_radial_eigen(rec.ball, rec.problem.beta)
    h = rec.u.mesh.mesh_size()
    return ComparisonReport(
        check_id="bossel_daners",
        lhs=lhs, rhs=rhs, gap=lhs - rhs, tolerance=5.0 * h * rhs,
        passed=lhs >= rhs * (1.0 - 5.0 * h),
        context=_space_context(rec.ball.space, h=h, beta=rec.problem.beta,
                               retried=retried))


def check_bossel_daners(rec: SolveRecord) -> ComparisonReport:
    """First Robin eigenvalue of the mesh against the matched ball, from a
    record solved with ``eigen``.  A failed comparison, or a sign-changed
    ground state (a coarseness symptom too), retries once on the refined
    mesh."""
    if rec.eigen is None:
        raise ValueError("the record holds no eigenpair; solve it with eigen=True")
    report = _bossel_daners_once(rec, retried=False)
    if not report.passed:
        fine = _refined_record(rec, eigen=True)
        if math.isnan(fine.eigen[0]):
            raise fem.EigenSignError("computed ground state changes sign")
        report = _bossel_daners_once(fine, retried=True)
    return report


# ---------------------------------------------------------------------------
# level-set functional


def eigen_test_field(u: ScalarField, beta: float) -> ScalarField:
    """Per-vertex |grad u|_g / u from the piecewise-constant gradient,
    clamped into the admissible class (non-negative, at most beta on the
    boundary); clamping is logged, not an error."""
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
        from .mesh import warped_metric_tensors
        W = warped_metric_tensors(mesh.warp, np.mean(p, axis=1))
        quad = (W[:, 0, 0] * gx * gx + 2.0 * W[:, 0, 1] * gx * gy
                + W[:, 1, 1] * gy * gy)
    else:
        quad = gx * gx + gy * gy
    grad_norm = np.sqrt(np.maximum(quad / rho, 0.0))

    areas = area * rho
    num = np.zeros(len(mesh.vertices))
    den = np.zeros(len(mesh.vertices))
    np.add.at(num, mesh.triangles.ravel(),
              np.repeat(areas * grad_norm, 3))
    np.add.at(den, mesh.triangles.ravel(), np.repeat(areas, 3))
    floor = 1e-12 * float(np.max(u.values))
    phi = (num / den) / np.maximum(u.values, floor)

    clamped = int(np.sum(phi < 0.0))
    phi = np.maximum(phi, 0.0)
    boundary = mesh.boundary_vertices
    over = phi[boundary] > beta
    clamped += int(np.sum(over))
    phi[boundary] = np.minimum(phi[boundary], beta)
    if clamped:
        _LOG.info("eigen test field: clamped %d vertices into the admissible class",
                  clamped)
    return ScalarField(mesh=mesh, values=phi)


def _barycentric_interp(p_tri, vertex_values, points):
    """P1 interpolation at chart points inside one triangle."""
    T = np.array([[p_tri[1, 0] - p_tri[0, 0], p_tri[2, 0] - p_tri[0, 0]],
                  [p_tri[1, 1] - p_tri[0, 1], p_tri[2, 1] - p_tri[0, 1]]])
    lam12 = np.linalg.solve(T, (points - p_tri[0]).T).T
    lam0 = 1.0 - lam12[:, 0] - lam12[:, 1]
    return (lam0 * vertex_values[0] + lam12[:, 0] * vertex_values[1]
            + lam12[:, 1] * vertex_values[2])


def bossel_functional(u: ScalarField, phi: ScalarField, beta: float,
                      t: float) -> float:
    """Level-set Rayleigh-type functional of the superlevel set {u > t}.

    Combines the weighted superlevel volume, the exterior boundary length,
    the test-function integral along the interior level polyline, and the
    volume integral of the squared test function over the clipped triangles.
    """
    mesh = u.mesh
    if phi.mesh is not mesh:
        raise ValueError("test function lives on a different mesh")
    umax = float(np.max(u.values))
    if abs(umax - 1.0) > 1e-12:
        raise ValueError(f"field must be normalized to max 1, got {umax!r}")
    umin = float(np.min(u.values))
    if not (umin < t < 1.0):
        raise ValueError(f"threshold {t} outside ({umin!r}, 1)")
    if float(np.min(phi.values)) < -1e-9:
        raise AdmissibilityError("test function must be non-negative")
    bvals = phi.values[mesh.boundary_vertices]
    if float(np.max(bvals)) > beta + 1e-9:
        raise AdmissibilityError(
            f"test function exceeds beta={beta} on the boundary")

    volume = distribution_function(u).evaluate(t)

    # exterior boundary portion of the superlevel set
    a, b, sig0, sig1, lengths = _boundary_arrays(u)
    exterior = 0.0
    for k in range(len(a)):
        seg = _superlevel_interval(float(a[k]), float(b[k]), t)
        if seg is not None:
            exterior += _edge_weighted_length(sig0[k], sig1[k], lengths[k], *seg)

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
                pts = np.array([crossings[0] + g * seg for g in _GAUSS2])
                factors = length_factor(mesh.geometry, mesh.warp, pts,
                                        np.tile(direction, (2, 1)))
                phis = _barycentric_interp(p_tri, pvals[k], pts)
                interior += chord * 0.5 * float(np.sum(phis * factors))

        # fan-triangulate the clipped polygon; edge-midpoint rule per piece
        for i in range(1, len(poly) - 1):
            q0, q1, q2 = poly[0], poly[i], poly[i + 1]
            area = 0.5 * abs((q1[0] - q0[0]) * (q2[1] - q0[1])
                             - (q1[1] - q0[1]) * (q2[0] - q0[0]))
            if area <= 0.0:
                continue
            mids = np.array([0.5 * (q0 + q1), 0.5 * (q1 + q2), 0.5 * (q2 + q0)])
            phis = _barycentric_interp(p_tri, pvals[k], mids)
            rhos = _barycentric_interp(p_tri, dens[k], mids)
            volume_term += area / 3.0 * float(np.sum(phis * phis * rhos))

    return (beta * exterior + interior - volume_term) / volume
