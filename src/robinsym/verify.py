"""Pass/fail checks of the symmetrization comparisons.

Each check pairs a discrete solution on a measured mesh with its matched
radial problem (same weighted volume, rearranged source) and reports the
two sides of one inequality.  Tolerances scale with the mesh size h: norm
comparisons use 5h relative, pointwise and level-set comparisons 10h
absolute, because the FEM data carries first-order constants at corners
even where the interior error is O(h^2).  Every report keeps its raw gap
so a refinement study can confirm convergence instead of trusting a single
pass.

Every check that compares u with its twin reads one :class:`SolveRecord`:
u, its distribution, the decreasing rearrangement of the source, the
matched ball, the twin v and, for the eigenvalue check, the ball's first
Robin eigenvalue.  :func:`solve_records` builds a level's records from
:func:`solve_level`'s solutions, one assembly for every beta, freed
before any distribution function is built.
The record checks on construction that u lives on the problem's mesh and
that the ball matches the mesh measure, so no check repeats either guard.
The twin is read on its own grid, from its values and its exact slope.
Checks that own their mesh (isoperimetric, torsional rigidity, eigenvalue)
retry once on a uniformly refined mesh before finalizing a failure; that
separates discretization artifacts from genuine violations.

Mesh integrals read the P1 element kernel of the mesh module (chart areas,
``basis_gradients``, ``dirichlet_weighted``, ``edge_midpoints``).  The
level-set quantities clip the superlevel set {u >= t} as arrays: every
boundary edge at once (and every threshold at once in the level-set
chain), and every triangle at once in the Bossel functional.
"""

import csv
import functools
import json
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import _GAUSS2, RobinProblem
from .mesh import MeasuredMesh, ScalarField, _blocks, edge_midpoints, length_factor, refine
from .model_geometry import (
    GeodesicBall,
    ModelSpace,
    isoperimetric_profile,
    radius_for_volume,
    sphere_area,
    volume_profile,
)
from .radial import RadialProfile, solve_radial_eigen, solve_symmetrized_poisson
from .rearrange import (
    DecreasingRearrangement,
    DistributionData,
    LorentzDivergenceError,
    LorentzParams,
    decreasing_rearrangement,
    distribution_function,
    lorentz_norm,
    schwarz_rearrangement,
)

_LOG = logging.getLogger(__name__)


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
    if isinstance(value, (float, np.floating)):
        # repr of a numpy scalar names its type
        return "" if math.isnan(value) else repr(float(value))
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
    """Weighted integral of a P1 field by the edge-midpoint rule: each
    triangle's term formed a block of triangles at a time, then one sum."""
    tri = mesh.triangles
    terms = np.empty(len(tri))
    for rows in _blocks(len(tri)):
        mid = edge_midpoints(values[tri[rows]]) * edge_midpoints(mesh.density[tri[rows]])
        np.multiply(mesh.chart_areas()[rows] / 3.0, np.sum(mid, axis=1), out=terms[rows])
    return float(np.sum(terms))


def _grid_simpson(grid: np.ndarray, y: np.ndarray, weight: float = 1.0) -> float:
    """weight times the composite Simpson sum of y on a uniform radial grid
    with an even number of cells, such as the twin's 32,769 radii."""
    dx = grid[-1] / (len(y) - 1)
    return float(weight * dx / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2])
                                      + 2.0 * np.sum(y[2:-1:2])))


def _boundary_arrays(field: ScalarField):
    """Per boundary edge: endpoint values, length factors, chart length."""
    mesh = field.mesh
    edges = mesh.boundary_edges
    a = field.values[edges[:, 0]]
    b = field.values[edges[:, 1]]
    sig = mesh.boundary_density
    return a, b, sig[:, 0], sig[:, 1], mesh.boundary_chart_lengths()


def _superlevel_clip(a, b, t):
    """Per boundary edge, the interval [s0, s1] of [0, 1] on which the linear
    value a + (b - a) s is >= t, with s0 = s1 = 0 where it is empty.  t
    broadcasts: a column of thresholds clips every edge at every threshold."""
    up_a, up_b = a >= t, b >= t
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (t - a) / (b - a)
    return (np.where(up_a | ~up_b, 0.0, s),
            np.where(up_b, 1.0, np.where(up_a, s, 0.0)))


def _edge_reciprocal(a, b, sig0, sig1, length, s0, s1):
    """Closed form of the length integral of 1/u over the sub-edges [s0, s1]
    (u linear, length factor linear), elementwise; u must stay positive on
    them, and an empty sub-edge gives 0."""
    d = b - a
    mid = 0.5 * (s0 + s1)
    with np.errstate(divide="ignore", invalid="ignore"):
        level = length * (sig0 + (sig1 - sig0) * mid) * (s1 - s0) / (a + d * mid)
        c1 = (sig1 - sig0) / d
        c0 = sig0 - a * c1
        sloped = length * (c1 * (s1 - s0)
                           + (c0 / d) * np.log((a + d * s1) / (a + d * s0)))
    return np.where(np.abs(d) <= 1e-13 * np.maximum(np.abs(a), np.abs(b)),
                    level, sloped)


# ---------------------------------------------------------------------------
# the solve record every comparison reads


@dataclass(frozen=True)
class SolveRecord:
    """One Robin problem solved once, with everything the checks read: the
    solution u and its distribution, the decreasing rearrangement f* of the
    source (None for the unit source), the radial twin v on the matched ball
    with v's exact slope, and, when one was asked for, the first eigenpair
    with the first Robin eigenvalue of the matched ball.

    The record checks itself on construction: u must live on the problem's
    mesh and the twin's ball must hold the mesh measure."""

    problem: RobinProblem
    u: ScalarField
    dist: DistributionData
    fstar: DecreasingRearrangement | None
    v: RadialProfile
    # (lambda, ground state); lambda is nan when the ground state changed sign
    eigen: tuple | None = None
    # the first Robin eigenvalue of the matched ball, set with ``eigen``
    ball_eigenvalue: float | None = None

    def __post_init__(self):
        if self.problem.mesh is not self.u.mesh:
            raise ValueError("problem and field live on different meshes")
        if (self.eigen is None) != (self.ball_eigenvalue is None):
            raise ValueError("the eigenpair and the ball eigenvalue come together")
        lhs = self.u.mesh.total_measure()
        rhs = volume_profile(self.ball.space, self.ball.radius)
        if abs(lhs - rhs) > 1e-6 * max(abs(rhs), 1e-300):
            raise MatchMismatchError(
                f"mesh measure {lhs!r} does not match ball volume {rhs!r}")

    @property
    def ball(self) -> GeodesicBall:
        """The matched ball, the twin's domain."""
        return self.v.ball

    @functools.cached_property
    def ustar(self) -> RadialProfile:
        """u's Schwarz rearrangement in the ball's space, built on first
        read and kept: the pointwise check and the run's plots read the
        same one."""
        return schwarz_rearrangement(self.dist, self.ball.space)


def _level_mesh(problems: Sequence[RobinProblem]) -> MeasuredMesh:
    mesh, source = problems[0].mesh, problems[0].source
    if any(p.mesh is not mesh or p.source is not source for p in problems):
        raise ValueError("the problems of one solve need one mesh and one source")
    return mesh


def solve_level(problems: Sequence[RobinProblem], eigen: bool = False,
                coarse: dict | None = None, solvers: dict | None = None) -> list:
    """The Poisson solution u of each problem of a level, problems on one
    mesh with one source that differ in beta alone, with its eigenpair
    when ``eigen`` asks for it: a list of (u, (lambda, ground state) or
    None).

    The level is assembled once.  Per beta, one :func:`fem.robin_solver`
    serves the eigen solve and the Poisson solve: the direct factor on a
    mesh that no refinement made, the multilevel hierarchy on a refined
    one.  On a refined mesh the last beta's hierarchy takes over the
    stiffness's buffer for its K + beta B (:meth:`fem.AssembledSystem.hand_over`),
    and the last Poisson solve reads the load alone, so the assembly's
    matrices and pattern are freed before it.  The last eigen solve gets
    its mass matrix built here and the assembly cut to what its mat-vecs
    read (:meth:`fem.AssembledSystem.products_only`), so the pattern's
    slot arrays are freed before LOBPCG.  ``coarse`` maps beta to the
    solver on the mesh this one refined, taken out as it is used; without
    it a refined mesh's solver assembles the coarser meshes again.  Each
    beta's solver is freed before the next beta's unless ``solvers`` is
    given: it is then kept there under its beta, for the next finer level.
    """
    mesh = _level_mesh(problems)
    system = fem.assemble(problems[0])
    solved = []
    for problem in problems:
        below = None if coarse is None else coarse.pop(problem.beta, None)
        given, system = (system.hand_over() if problem is problems[-1] and mesh.coarse is not None
                         else (system, system))
        solver = fem.robin_solver(mesh, given, problem.beta, below)
        del given
        pair = None
        if eigen:
            mass = fem.mass_matrix(mesh, system.pattern)
            if problem is problems[-1]:
                system = system.products_only()
            try:
                pair = fem.solve_robin_eigen(mesh, problem.beta, system, solver, mass)
            except fem.EigenSignError:
                pair = (math.nan, None)
            del mass
        if problem is problems[-1]:
            system = system.load_only()
        u = fem.solve_robin_poisson(problem, system, solver)
        solved.append((u, pair))
        if solvers is not None:
            solvers[problem.beta] = solver
        del solver
    return solved


def solve_records(problems: Sequence[RobinProblem], space: ModelSpace,
                  eigen: bool = False, twins: dict | None = None,
                  solved: list | None = None) -> list:
    """One record per problem of a level: problems on one mesh with one
    source, which differ in beta alone.

    The problems are solved by :func:`solve_level`, unless the caller
    passes its list as ``solved``.  Then the source is rearranged once and
    each record built: u's distribution, the matched ball and the twin v,
    with the ball's first Robin eigenvalue when ``eigen`` asks for it.

    ``twins`` maps (ball, beta) to the unit source's (v, ball eigenvalue or
    None).  A caller that passes one dict to several levels solves each
    twin, and each ball eigenvalue, once: both depend on nothing else.  A
    field source's twin depends on its level's rearrangement and is not
    shared."""
    mesh, source = _level_mesh(problems), problems[0].source
    if solved is None:
        solved = solve_level(problems, eigen)
    if len(solved) != len(problems):
        raise ValueError(f"{len(problems)} problems take {len(problems)} solutions, "
                         f"got {len(solved)}")
    fstar = None if source is None else decreasing_rearrangement(distribution_function(source))
    if twins is None or source is not None:
        twins = {}
    ball = GeodesicBall(space, radius_for_volume(space, mesh.total_measure()))
    records = []
    for problem, (u, pair) in zip(problems, solved):
        v, lam = twins.get((ball, problem.beta), (None, None))
        if v is None:
            v = solve_symmetrized_poisson(ball, problem.beta, fstar)
        if eigen and lam is None:
            lam = solve_radial_eigen(ball, problem.beta)
        twins[ball, problem.beta] = v, lam
        records.append(SolveRecord(problem=problem, u=u, dist=distribution_function(u),
                                   fstar=fstar, v=v, eigen=pair,
                                   ball_eigenvalue=lam if eigen else None))
    return records


def solve_record(problem: RobinProblem, space: ModelSpace,
                 eigen: bool = False) -> SolveRecord:
    """The record of one problem, solved as a level of its own."""
    return solve_records([problem], space, eigen)[0]


def _refined_record(rec: SolveRecord, eigen: bool = False) -> SolveRecord:
    problem = RobinProblem(mesh=refine(rec.problem.mesh), beta=rec.problem.beta)
    return solve_record(problem, rec.ball.space, eigen)


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


def check_min_comparison(rec: SolveRecord) -> ComparisonReport:
    """Minimum of the solution against the symmetrized boundary value."""
    lhs = float(np.min(rec.u.values))
    rhs = float(rec.v.values[-1])
    h = rec.u.mesh.mesh_size()
    tol = 10.0 * h * abs(rhs)
    return ComparisonReport(
        check_id="min_comparison",
        lhs=lhs, rhs=rhs, gap=rhs - lhs, tolerance=tol,
        passed=lhs <= rhs + tol,
        context=_space_context(rec.ball.space, h=h, radius=rec.ball.radius),
    )


# ---------------------------------------------------------------------------
# level-set inequalities


def _reciprocal_above(u: ScalarField, ts: np.ndarray) -> np.ndarray:
    """Per threshold t of the 1-D ``ts``, the boundary integral of 1/u over
    {u >= t}: every edge at every threshold in one clip."""
    a, b, sig0, sig1, lengths = _boundary_arrays(u)
    s0, s1 = _superlevel_clip(a, b, ts[:, None])
    return np.sum(_edge_reciprocal(a, b, sig0, sig1, lengths, s0, s1), axis=1)


def _check_boundary_positive(u: ScalarField):
    bmin = float(np.min(u.values[u.mesh.boundary_vertices]))
    if bmin <= 0.0:
        raise ValueError(
            f"boundary values must be positive for the 1/u integral, min {bmin!r}")


def check_lemma_31(rec: SolveRecord, t_grid) -> list:
    """Level-set differential inequality: isoperimetric term against the
    derivative of the distribution plus the exterior boundary term."""
    u, dist = rec.u, rec.dist
    _check_boundary_positive(u)
    breaks = np.asarray(dist.breakpoints, dtype=float)
    # w -> integral of the source's decreasing rearrangement on [0, w]
    cumulative = (lambda w: w) if rec.fstar is None else rec.fstar.cumulative
    umin = float(np.min(u.values))
    umax = float(np.max(u.values))
    scale = max(abs(umax), 1e-300)
    h = u.mesh.mesh_size()
    space, beta = rec.ball.space, rec.problem.beta
    ctx = _space_context(space, h=h, beta=beta)

    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    skipped = [not (umin < t < umax) or t <= 0.0
               or bool(np.any(np.abs(breaks - t) <= 1e-12 * scale)) for t in ts.tolist()]
    # mu, G(mu), mu' and cum(mu) once, on the thresholds that are checked
    kept = ts[~np.array(skipped, dtype=bool)]
    mu = dist.evaluate(kept)
    columns = zip(isoperimetric_profile(space, mu).tolist(),
                  cumulative(mu).tolist(), dist.derivative(kept).tolist())
    tol = 10.0 * h
    reports = []
    for t, exterior, skip in zip(ts.tolist(), _reciprocal_above(u, ts).tolist(), skipped):
        if skip:
            reports.append(ComparisonReport(
                check_id="lemma_31", lhs=math.nan, rhs=math.nan, gap=math.nan,
                tolerance=tol, passed=True, skipped=True, context=dict(ctx, t=t)))
            continue
        profile, cum, dmu = next(columns)
        lhs = profile**2
        rhs = cum * (-dmu + exterior / beta)
        reports.append(ComparisonReport(
            check_id="lemma_31", lhs=lhs, rhs=rhs, gap=rhs - lhs,
            tolerance=tol, passed=lhs <= rhs * (1.0 + 1e-6) + tol,
            context=dict(ctx, t=t)))
    return reports


def check_lemma_32(rec: SolveRecord, t: float) -> ComparisonReport:
    """Truncated boundary flux against the total source integral.

    The threshold integral collapses by Fubini to the exact per-edge
    integral of min(t, u)^2 / (2u) over the boundary.
    """
    u, problem = rec.u, rec.problem
    _check_boundary_positive(u)
    a, b, sig0, sig1, lengths = _boundary_arrays(u)
    beta = problem.beta

    # where u >= t the integrand is t^2 / (2u); masked, since t may be inf
    s0, s1 = _superlevel_clip(a, b, t)
    high = s1 > s0
    lhs = float(np.sum(0.5 * t * t * _edge_reciprocal(
        a[high], b[high], sig0[high], sig1[high], lengths[high], s0[high], s1[high])))
    # the rest of each edge, where u < t: sigma * u / 2 is quadratic there,
    # so the 2-point Gauss rule is exact
    l0 = np.where(s0 == 0.0, s1, 0.0)
    l1 = np.where(s0 == 0.0, 1.0, s0)
    for g in _GAUSS2:
        s = l0 + (l1 - l0) * g
        sig = sig0 + (sig1 - sig0) * s
        lhs += float(np.sum(0.5 * (l1 - l0) * lengths * sig * (a + (b - a) * s) / 2.0))
    rhs = _integrate_field(problem.mesh, problem.source_values()) / (2.0 * beta)
    tol = 1e-8 * max(abs(rhs), 1.0)
    return ComparisonReport(
        check_id="lemma_32", lhs=lhs, rhs=rhs, gap=rhs - lhs, tolerance=tol,
        passed=lhs <= rhs + tol,
        context={"h": u.mesh.mesh_size(), "beta": beta, "t": t})


def check_measure_bound(rec: SolveRecord) -> ComparisonReport:
    """Distribution of u never exceeds the weighted radial distribution
    below the symmetrized minimum, where every superlevel set of v is the
    whole ball."""
    space, dist = rec.ball.space, rec.dist
    v_m = float(rec.v.values[-1])
    ts = np.linspace(0.0, v_m, 34)[1:-1]
    worst = float(np.max(dist.evaluate(ts) - volume_profile(space, rec.ball.radius)))
    tol = 1e-9 * max(dist.total, 1.0)
    return ComparisonReport(
        check_id="measure_bound", lhs=worst, rhs=0.0, gap=-worst,
        tolerance=tol, passed=worst <= tol,
        context=_space_context(space, h=rec.u.mesh.mesh_size(), v_m=v_m))


# ---------------------------------------------------------------------------
# profile monotonicity


def _singular_exponent(space: ModelSpace, p: float) -> float:
    # the integrand factor w^{1/p} G(w)^{-2} behaves like this power at 0
    return 1.0 / p - 2.0 * (space.n - 1) / space.n


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
        # no CLI check runs this, so scipy.integrate stays out of a run's start-up
        from scipy.integrate import cumulative_simpson
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


def _pointwise_range(space: ModelSpace):
    if space.n != 2 or space.kappa != 0:
        raise HypothesisRangeError("pointwise comparison is stated for n=2, kappa=0")


def _twin_lorentz_norm(v: RadialProfile, params: LorentzParams) -> float:
    """Lorentz functional (p * int_0^inf t^(q-1) mu_v(t)^(q/p) dt)^(1/q) of
    the radial twin v, for finite q, read on v's own grid.

    mu_v(t) = V(r) at t = v(r) and V(R) below v(R), with V the weighted ball
    volume, so the substitution t = v(r) with the exact slope -v' gives

        v(R)^q / q * V(R)^(q/p) + int_0^R v^(q-1) V^(q/p) (-v') dr,

    the integral by composite Simpson on the grid.  A value that overflows
    double precision raises LorentzDivergenceError, as lorentz_norm does.
    """
    if v.slope is None:
        raise ValueError("the profile carries no slope; the twin from "
                         "solve_symmetrized_poisson does")
    p, q = params.p, params.q
    space, R = v.ball.space, v.ball.radius
    with np.errstate(over="ignore", invalid="ignore"):
        y = v.values ** (q - 1.0) * volume_profile(space, v.grid) ** (q / p) * v.slope
        head = v.values[-1] ** q / q * np.float64(volume_profile(space, R)) ** (q / p)
        value = float((p * (head + _grid_simpson(v.grid, y))) ** (1.0 / q))
    if not math.isfinite(value):
        raise LorentzDivergenceError(
            f"Lorentz integral for (p={p}, q={q}) did not converge")
    return value


def _norm_comparison(check_id: str, rec: SolveRecord, p: float,
                     q: int) -> ComparisonReport:
    params = _norm_params(p, q)
    lhs = lorentz_norm(rec.dist, params)
    # V is the weighted volume, so the twin's norm already carries the alpha
    # factor that the comparison puts in front of the unweighted ball norm
    rhs = _twin_lorentz_norm(rec.v, params)
    h = rec.u.mesh.mesh_size()
    tol = 5.0 * h * rhs
    return ComparisonReport(
        check_id=check_id, lhs=lhs, rhs=rhs, gap=rhs - lhs, tolerance=tol,
        passed=lhs <= rhs * (1.0 + 5.0 * h),
        context=_space_context(rec.ball.space, h=h, p=p, q=q))


def check_theorem_main1(rec: SolveRecord, p: float, q: int) -> ComparisonReport:
    """Lorentz-norm comparison for general non-negative sources."""
    _main1_range(rec.ball.space, p, q)
    return _norm_comparison("theorem_main1", rec, p, q)


def check_theorem_main2(rec: SolveRecord, p: float = 1.0, q: int = 1,
                        pointwise: bool = False) -> ComparisonReport:
    """Torsion comparison: wider norm ranges, plus the pointwise mode."""
    space = rec.ball.space
    if pointwise:
        _pointwise_range(space)
        ustar = rec.ustar
        v_at = np.interp(ustar.grid, rec.v.grid, rec.v.values)
        worst = float(np.max(ustar.values - v_at))
        h = rec.u.mesh.mesh_size()
        tol = 10.0 * h
        return ComparisonReport(
            check_id="theorem_main2_pointwise",
            lhs=worst, rhs=0.0, gap=-worst, tolerance=tol,
            passed=worst <= tol,
            context=_space_context(space, h=h, p=p, q=q))
    _main2_range(space, p, q)
    return _norm_comparison("theorem_main2", rec, p, q)


# ---------------------------------------------------------------------------
# rigidity functionals


def _saint_venant_once(rec: SolveRecord, retried: bool) -> ComparisonReport:
    space, mesh, beta = rec.ball.space, rec.u.mesh, rec.problem.beta
    lhs = _integrate_field(mesh, rec.u.values)
    # composite Simpson on the twin's uniform grid, 32,769 radii; sphere_area
    # carries no cone-angle weight, the ball's measure does
    rhs = _grid_simpson(rec.v.grid, rec.v.values * sphere_area(space, rec.v.grid),
                        space.alpha)
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
    lhs, rhs = rec.eigen[0], rec.ball_eigenvalue
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
    grad = np.einsum("ti,tia->ta", u.values[mesh.triangles], mesh.basis_gradients())
    quad = np.sum(grad * mesh.dirichlet_weighted(grad), axis=1)
    rho = mesh.centroid_density()
    grad_norm = np.sqrt(np.maximum(quad / rho, 0.0))

    areas = mesh.chart_areas() * rho
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


def _along_edges(corners, rows, edge, s):
    """Linear interpolation of the (M, 3) corner values at parameter s along
    the edges (edge, edge + 1 mod 3) of the triangles ``rows``."""
    start = corners[rows, edge]
    return start + s * (corners[rows, (edge + 1) % 3] - start)


def bossel_functional(u: ScalarField, phi: ScalarField, beta: float,
                      t: float, *, dist: DistributionData | None = None) -> float:
    """Level-set Rayleigh-type functional of the superlevel set {u > t}.

    Combines the weighted superlevel volume, the exterior boundary length,
    the test-function integral along the interior level polyline, and the
    volume integral of the squared test function over the clipped triangles.
    A sweep over thresholds passes u's distribution as ``dist``.
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

    volume = (distribution_function(u) if dist is None else dist).evaluate(t)

    # exterior boundary portion of the superlevel set
    a, b, sig0, sig1, lengths = _boundary_arrays(u)
    s0, s1 = _superlevel_clip(a, b, t)
    exterior = float(np.sum(
        lengths * (s1 - s0) * (sig0 + (sig1 - sig0) * (0.5 * (s0 + s1)))))

    # triangles wholly inside {u >= t}: the element kernel's midpoint rule
    tris = mesh.triangles
    up = u.values[tris] >= t
    full = np.all(up, axis=1)
    mids = (edge_midpoints(phi.values[tris[full]]) ** 2
            * edge_midpoints(mesh.density[tris[full]]))
    volume_term = float(np.sum(mesh.chart_areas()[full] / 3.0 * np.sum(mids, axis=1)))

    # Clip the cut triangles.  Walking corners i = 0, 1, 2, the polygon takes
    # slot 2i, corner i, when u_i >= t, and slot 2i + 1, the point at s along
    # edge (i, i+1), when that edge crosses the level; exactly two edges do.
    cut = np.any(up, axis=1) & ~full
    tri, up = tris[cut], up[cut]
    uv = u.values[tri]
    crossed = up != np.roll(up, -1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_cross = np.where(crossed, (t - uv) / (np.roll(uv, -1, axis=1) - uv), 0.0)
    rows = np.arange(len(tri))[:, None]
    # x, y, the test function and the density, all linear on a triangle
    corners = [f[tri] for f in (mesh.vertices[:, 0], mesh.vertices[:, 1],
                                phi.values, mesh.density)]

    # the interior level line: the chord between the two crossings,
    # 2-point Gauss on the length factor times phi
    edge = np.argsort(~crossed, axis=1, kind="stable")[:, :2]
    ex, ey, ephi = (_along_edges(c, rows, edge, s_cross[rows, edge]) for c in corners[:3])
    seg = np.stack([ex[:, 1] - ex[:, 0], ey[:, 1] - ey[:, 0]], axis=1)
    chord = np.hypot(seg[:, 0], seg[:, 1])
    keep = chord > 0.0
    seg, chord, ephi = seg[keep], chord[keep], ephi[keep]
    start = np.stack([ex[keep, 0], ey[keep, 0]], axis=1)
    g = np.array(_GAUSS2)
    pts = start[:, None, :] + g[None, :, None] * seg[:, None, :]
    factors = length_factor(mesh.geometry, mesh.warp, pts.reshape(-1, 2),
                            np.repeat(seg / chord[:, None], 2, axis=0))
    phis = ephi[:, :1] + g * (ephi[:, 1:] - ephi[:, :1])
    interior = float(np.sum(chord * 0.5 * np.sum(phis * factors.reshape(-1, 2), axis=1)))

    # the clipped polygon, its 3 or 4 slots in walk order, fanned from the
    # first point; the midpoint rule on each piece
    slots = np.stack([up, crossed], axis=2).reshape(-1, 6)
    slot_s = np.stack([np.zeros_like(s_cross), s_cross], axis=2).reshape(-1, 6)
    take = np.argsort(~slots, axis=1, kind="stable")[:, :4]
    poly = [_along_edges(c, rows, take // 2, np.take_along_axis(slot_s, take, axis=1))
            for c in corners]
    quad = np.nonzero(np.sum(slots, axis=1) == 4)[0]
    owner = np.concatenate([rows[:, 0], quad])[:, None]
    fan = np.concatenate([np.tile([0, 1, 2], (len(tri), 1)),
                          np.tile([0, 2, 3], (len(quad), 1))])
    x, y, phis, rhos = (v[owner, fan] for v in poly)
    area = 0.5 * np.abs((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                        - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    volume_term += float(np.sum(area / 3.0 * np.sum(
        edge_midpoints(phis) ** 2 * edge_midpoints(rhos), axis=1)))

    return (beta * exterior + interior - volume_term) / volume
