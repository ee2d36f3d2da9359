"""Rearrangement tests: exact distribution functions against independent
oracles (Monte Carlo, polygon clipping, mesh quadrature) and the Lorentz
norm identities, against a per-triangle mpmath oracle and closed forms.
"""

import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn
from scipy.special import betainc

from robinsym import verify
from robinsym.fem import RobinProblem, solve_robin_poisson
from robinsym.mesh import ScalarField, generate_domain, refine, warped_profile
from robinsym.model_geometry import GeodesicBall, ModelSpace, volume_profile
from robinsym.radial import solve_symmetrized_poisson
from robinsym.rearrange import (
    DistributionData,
    LorentzDivergenceError,
    LorentzParams,
    MeshMismatchError,
    RearrangeDomainError,
    SphereOverflowError,
    decreasing_rearrangement,
    distribution_function,
    hardy_littlewood_check,
    lorentz_norm,
    schwarz_rearrangement,
)

from radial_oracles import flat_torsion_profile, profile_distribution
from rearrange_oracles import corner_sort_distribution

FLAT2 = ModelSpace(kappa=0, n=2, alpha=1.0)
SPHERE2 = ModelSpace(kappa=1, n=2, alpha=1.0)

# 6-point Dunavant rule, exact through degree 4; barycentric points and weights
_DUN = [
    (0.108103018168070, 0.445948490915965, 0.445948490915965, 0.223381589678011),
    (0.445948490915965, 0.108103018168070, 0.445948490915965, 0.223381589678011),
    (0.445948490915965, 0.445948490915965, 0.108103018168070, 0.223381589678011),
    (0.816847572980459, 0.091576213509771, 0.091576213509771, 0.109951743655322),
    (0.091576213509771, 0.816847572980459, 0.091576213509771, 0.109951743655322),
    (0.091576213509771, 0.091576213509771, 0.816847572980459, 0.109951743655322),
]


def _mesh_lp_integral(field: ScalarField, p: float) -> float:
    """integral of |field|^p dV with the per-triangle centroid density."""
    mesh = field.mesh
    w = mesh.chart_areas() * mesh.centroid_density()
    tv = field.values[mesh.triangles]
    acc = np.zeros(len(w))
    for b1, b2, b3, wt in _DUN:
        vals = b1 * tv[:, 0] + b2 * tv[:, 1] + b3 * tv[:, 2]
        acc += wt * np.abs(vals) ** p
    return float(np.sum(w * acc))


def _square_mesh(h=0.15):
    return generate_domain("square", target_h=h, side=1.0)


_TORSION_SQUARE = _square_mesh(0.05)  # 900 vertices


def _strip_field(mesh):
    return ScalarField(mesh=mesh, values=mesh.vertices[:, 0].copy())


def _random_field(mesh, seed, positive=False):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=len(mesh.vertices))
    if positive:
        vals = np.exp(0.8 * vals)
    return ScalarField(mesh=mesh, values=vals)


# ---------------------------------------------------------------------------
# distribution function


def test_strip_distribution_exact():
    dist = distribution_function(_strip_field(_square_mesh()))
    ts = np.linspace(0.0, 1.0, 41)[:-1]
    assert float(np.max(np.abs(dist.evaluate(ts) - (1.0 - ts)))) < 1e-12
    assert abs(dist.derivative(0.37) + 1.0) < 1e-12
    assert dist.evaluate(1.0) == 0.0
    assert dist.evaluate(2.0) == 0.0
    assert abs(dist.total - 1.0) < 1e-12


def test_constant_field_distribution():
    mesh = _square_mesh()
    c = 0.7
    dist = distribution_function(ScalarField(mesh=mesh, values=np.full(len(mesh.vertices), c)))
    area = mesh.total_measure()
    assert dist.evaluate(0.0) == pytest.approx(area, rel=1e-14)
    assert dist.evaluate(c - 1e-9) == pytest.approx(area, rel=1e-9)
    assert dist.evaluate(c) == 0.0


def test_distribution_monte_carlo_oracle():
    mesh = generate_domain("disk", target_h=0.2, radius=1.0)
    field = _random_field(mesh, seed=3)
    dist = distribution_function(field)

    rng = np.random.default_rng(7)
    w = mesh.chart_areas() * mesh.centroid_density()
    W = float(np.sum(w))
    N = 1_000_000
    tri_idx = rng.choice(len(w), size=N, p=w / W)
    u1, u2 = rng.random(N), rng.random(N)
    s = np.sqrt(u1)
    bary = np.stack([1.0 - s, s * (1.0 - u2), s * u2], axis=1)
    samples = np.abs(np.sum(bary * field.values[mesh.triangles[tri_idx]], axis=1))

    for lvl in np.linspace(0.05, 0.95, 20):
        t = float(np.quantile(samples, lvl))
        phat = float(np.mean(samples > t))
        se = W * math.sqrt(phat * (1.0 - phat) / N)
        assert abs(dist.evaluate(t) - phat * W) <= 3.0 * se


def _clip_superlevel_area(tri_xy, vals, t):
    # chart area of {linear > t} inside one triangle (Sutherland-Hodgman)
    pts = []
    for i in range(3):
        p, q = tri_xy[i], tri_xy[(i + 1) % 3]
        vp, vq = vals[i], vals[(i + 1) % 3]
        if vp > t:
            pts.append(p)
        if (vp > t) != (vq > t):
            lam = (t - vp) / (vq - vp)
            pts.append(p + lam * (q - p))
    if len(pts) < 3:
        return 0.0
    arr = np.asarray(pts)
    x, y = arr[:, 0], arr[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def test_distribution_polygon_clipping_oracle():
    mesh = generate_domain("spherical_cap", target_h=0.4, theta=1.0)
    field = _random_field(mesh, seed=11)
    dist = distribution_function(field)

    rho = mesh.centroid_density()
    xy = mesh.vertices[mesh.triangles]
    tv = field.values[mesh.triangles]
    rng = np.random.default_rng(19)
    scale = float(np.max(np.abs(field.values)))
    for t in rng.uniform(0.0, scale, size=1000):
        brute = 0.0
        for k in range(len(tv)):
            # |h| > t is the union of {h > t} and {-h > t}
            brute += rho[k] * (_clip_superlevel_area(xy[k], tv[k], t)
                               + _clip_superlevel_area(xy[k], -tv[k], t))
        assert abs(dist.evaluate(float(t)) - brute) < 1e-12 * dist.total


def test_layer_cake():
    mesh = generate_domain("spherical_cap", target_h=0.3, theta=1.2)
    field = _random_field(mesh, seed=5, positive=True)
    dist = distribution_function(field)
    direct = _mesh_lp_integral(field, 1.0)
    assert abs(dist.moment(0.0, 1) - direct) < 1e-9 * direct
    # the torsion square's slot coefficients are large enough that an
    # antiderivative of them took the p = q = 1 norm 2.3e-6 off the integral
    for beta in (0.1, 1.0, 10.0):
        rec = verify.solve_record(RobinProblem(mesh=_TORSION_SQUARE, beta=beta), FLAT2)
        direct = verify._integrate_field(_TORSION_SQUARE, rec.u.values)
        assert lorentz_norm(rec.dist, LorentzParams(1.0, 1.0)) == pytest.approx(
            direct, rel=1e-10)


# ---------------------------------------------------------------------------
# decreasing rearrangement


def test_decreasing_rearrangement_linear():
    dist = distribution_function(_strip_field(_square_mesh()))
    h = decreasing_rearrangement(dist)
    ss = np.linspace(0.0, 1.0, 33)
    assert float(np.max(np.abs(h(ss) - (1.0 - ss)))) < 1e-12
    assert abs(h.sup_value - 1.0) < 1e-12
    # cumulative integral of 1 - s is s - s^2/2
    for w in (0.25, 0.6, 1.0):
        assert abs(h.cumulative(w) - (w - w * w / 2.0)) < 1e-12


def test_equimeasurability():
    mesh = generate_domain("spherical_cap", target_h=0.3, theta=1.0)
    field = _random_field(mesh, seed=23, positive=True)
    dist = distribution_function(field)
    for p in (1, 2, 3):
        lhs = p * dist.moment(p - 1.0, 1)  # = integral of (h*)^p ds
        rhs = _mesh_lp_integral(field, p)
        assert abs(lhs - rhs) < 1e-10 * rhs


_PROPERTY_DOMAINS = {
    "square": {"side": 1.0},
    "disk": {"radius": 1.0},
    "annulus_sector": {"r_inner": 0.5, "r_outer": 1.5, "angle0": 0.0, "angle1": 2.5},
}


def _property_field(kind, h, seed):
    """A noisy positive source with values in [1, 2], like the saved fields
    the radial twin is built from.  A spread of about 200 (exp of a normal
    sample) takes cumulative(total) 1.2e-10 off the mesh integral on a
    547-vertex disk: the cancellation of the monomial slots, ROADMAP F."""
    mesh = generate_domain(kind, target_h=h, **_PROPERTY_DOMAINS[kind])
    assert len(mesh.vertices) < 700
    values = 1.0 + np.random.default_rng(seed).random(len(mesh.vertices))
    return ScalarField(mesh=mesh, values=values)


_PROPERTY_INPUTS = dict(kind=st.sampled_from(sorted(_PROPERTY_DOMAINS)),
                        h=st.floats(0.12, 0.35), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None, database=None)
@given(**_PROPERTY_INPUTS)
def test_cumulative_matches_mesh_integral(kind, h, seed):
    # the radial twin's whole source is f*.cumulative(total)
    field = _property_field(kind, h, seed)
    fstar = decreasing_rearrangement(distribution_function(field))
    exact = verify._integrate_field(field.mesh, field.values)
    assert abs(fstar.cumulative(fstar.total) - exact) < 1e-10 * exact


@settings(max_examples=25, deadline=None, database=None)
@given(**_PROPERTY_INPUTS)
# the draw that fails on every run, 3.7e-10 against the bound of 1e-10.
# Hypothesis's xfail is strict: once ROADMAP item F (the cancellation of the
# monomial slots) is repaired the example passes, the test fails, and the
# xfail goes
@example(kind="square", h=0.1875, seed=308).xfail(
    raises=AssertionError, reason="ROADMAP F: slot cancellation in mu")
def test_schwarz_rearrangement_is_equimeasurable(kind, h, seed):
    dist = distribution_function(_property_field(kind, h, seed))
    rad = profile_distribution(schwarz_rearrangement(dist, FLAT2), FLAT2)
    t = dist.breakpoints[1:-1]
    assert float(np.max(np.abs(rad.evaluate(t) - dist.evaluate(t)))) < 1e-10 * dist.total


def test_plateau_field():
    mesh = _square_mesh()
    x = mesh.vertices[:, 0]
    assert np.any(x == 0.5)  # the plateau needs vertices on its edge
    field = ScalarField(mesh=mesh, values=np.maximum(x, 0.5))
    h = decreasing_rearrangement(distribution_function(field))
    # constant 0.5 on half the square: flat segment of length 1/2
    assert float(h(np.array([0.5]))[0]) == pytest.approx(0.5, abs=1e-12)
    for s in (0.55, 0.7, 0.99):
        assert float(h(np.array([s]))[0]) == pytest.approx(0.5, abs=1e-12)
    assert float(h(np.array([0.3]))[0]) == pytest.approx(0.7, abs=1e-12)


_BIT_MESHES = {
    "square": generate_domain("square", target_h=0.1, side=1.0),
    "disk": generate_domain("disk", target_h=0.15, radius=1.0),
    "cap": generate_domain("spherical_cap", target_h=0.15, theta=1.0),
    "cone": generate_domain("disk", target_h=0.2, radius=1.0, geometry="warped",
                            warp=warped_profile("cone", 0.5)),
}


def _bits(x):
    return x.dtype, x.shape, x.view(np.uint64).tolist()


@settings(max_examples=80, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_BIT_MESHES)), seed=st.integers(0, 2**32 - 1),
       form=st.sampled_from(["signed", "negative", "positive"]),
       shift=st.floats(-1.0, 1.0), decimals=st.sampled_from([None, 0, 1, 2]),
       jitter=st.booleans(), zeros=st.floats(0.0, 1.0),
       scale=st.sampled_from([1.0, 1e-300, 1e12]))
def test_from_field_matches_corner_sort_bit_for_bit(name, seed, form, shift, decimals,
                                                    jitter, zeros, scale):
    # vertex values ranked once give the corner-sort build's breakpoints and
    # coefficients to the bit, sign bits included: ties (rounded values),
    # copies within the merge tolerance (jitter), zeros, sign changes and
    # fields of one sign
    mesh = _BIT_MESHES[name]
    rng = np.random.default_rng(seed)
    values = rng.normal(size=len(mesh.vertices)) + shift
    if decimals is not None:
        values = np.round(values, decimals)
    if jitter:
        values += rng.uniform(-3e-15, 3e-15, len(values))
    values[rng.random(len(values)) < zeros] = 0.0
    if form != "signed":
        values = np.abs(values) if form == "positive" else -np.abs(values)
    field = ScalarField(mesh=mesh, values=scale * values)
    new, old = distribution_function(field), corner_sort_distribution(field)
    for attr in ("_breaks", "_A", "_B", "_C"):
        assert _bits(getattr(new, attr)) == _bits(getattr(old, attr)), attr
    assert new.total == old.total


@pytest.mark.parametrize("scale", [0.0, 1e-300])
def test_a_field_below_the_merge_tolerance_keeps_the_total_below_zero(scale):
    # every value merges into the breakpoint 0, so no piece is added: mu is
    # the total measure below t = 0, not that measure cut to an integer
    mesh = _BIT_MESHES["cap"]
    values = scale * np.random.default_rng(0).normal(size=len(mesh.vertices))
    dist = distribution_function(ScalarField(mesh=mesh, values=values))
    assert dist.total == pytest.approx(2.0 * math.pi * (1.0 - math.cos(1.0)), rel=0.05)
    assert dist.evaluate(-1.0) == dist.total
    assert dist.evaluate(0.0) == 0.0


def test_square_21k_distribution_function_memory():
    m = refine(refine(generate_domain("square", target_h=0.04, side=1.0)))
    assert len(m.vertices) == 21_025
    u = solve_robin_poisson(RobinProblem(mesh=m, beta=1.0))
    tracemalloc.start()
    try:
        dist = distribution_function(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.total == m.total_measure() == pytest.approx(1.0)
    # 2.5 MB measured with each kind of piece formed a block of triangles
    # at a time; 4.9 MB with the pieces over all triangles at once, 15.9 MB
    # with int64 corner ranks and every piece's index and term concatenated
    # for one bincount
    assert peak < 3.5e6


def test_an_exact_snapping_tie_goes_down():
    # 0.5 + s merges into the breakpoint 0.5, and 0.5 + 2 s lies exactly
    # halfway between 0.5 and the next breakpoint 0.5 + 4 s: it snaps down,
    # as in the corner-sort build
    mesh = _square_mesh()
    step = 2.0**-47  # under the 1e-14 merge tolerance; two steps are over it
    values = np.full(len(mesh.vertices), 0.25)
    values[:4] = 0.5 + step * np.array([0.0, 1.0, 2.0, 4.0])
    field = ScalarField(mesh=mesh, values=values)
    new, old = distribution_function(field), corner_sort_distribution(field)
    assert new._breaks.tolist() == [0.0, 0.25, 0.5, 0.5 + 4.0 * step]
    for attr in ("_breaks", "_A", "_B", "_C"):
        assert _bits(getattr(new, attr)) == _bits(getattr(old, attr)), attr


def test_roundoff_copies_of_a_value_merge_into_one_breakpoint():
    # five levels held by many vertices each, every copy moved by up to
    # 3e-15, below the 1e-14 merge tolerance: each level's copies snap onto
    # one breakpoint, and mu is the unperturbed field's
    mesh = _square_mesh()
    clean = 0.25 + np.round(4.0 * mesh.vertices[:, 0]) / 4.0
    jitter = np.random.default_rng(7).uniform(-3e-15, 3e-15, len(clean))
    exact = distribution_function(ScalarField(mesh=mesh, values=clean))
    noisy = distribution_function(ScalarField(mesh=mesh, values=clean + jitter))
    assert len(noisy.breakpoints) == len(exact.breakpoints)
    assert np.allclose(noisy.breakpoints, exact.breakpoints, rtol=0.0, atol=1e-14)
    t = np.linspace(0.0, 1.3, 53)
    assert np.allclose(noisy.evaluate(t), exact.evaluate(t), rtol=1e-12, atol=0.0)


def test_essential_infimum_survives_roundoff():
    # mu = plateau on [0, 1), linear down to 0 on [1, 2), total measure 3: a
    # field with values in [1, 2] when the plateau is the total
    def infimum(plateau):
        dist = DistributionData([0.0, 1.0, 2.0], [3.0, plateau, 2.0 * plateau, 0.0],
                                [0.0, 0.0, -plateau, 0.0], [0.0] * 4, 3.0)
        value = decreasing_rearrangement(dist).left_limit(3.0)
        assert schwarz_rearrangement(dist, FLAT2).values[-1] == value
        return value

    assert infimum(3.0) == 1.0
    # a plateau short of the total by roundoff is still the total
    assert infimum(np.nextafter(3.0, 0.0)) == 1.0
    # a field vanishing on a set of measure 1 has infimum 0
    assert infimum(2.0) == 0.0


def test_rearrangement_domain_error():
    dist = distribution_function(_strip_field(_square_mesh()))
    h = decreasing_rearrangement(dist)
    with pytest.raises(RearrangeDomainError):
        h(-0.1)
    with pytest.raises(RearrangeDomainError):
        h(dist.total * 1.1)


# ---------------------------------------------------------------------------
# Schwarz rearrangement


def test_schwarz_square_closed_form():
    dist = distribution_function(_strip_field(_square_mesh()))
    prof = schwarz_rearrangement(dist, FLAT2)
    exact = 1.0 - math.pi * prof.grid**2
    assert float(np.max(np.abs(prof.values - exact))) < 1e-12
    assert abs(prof.ball.radius - 1.0 / math.sqrt(math.pi)) < 1e-14


def test_schwarz_fixes_radial_decreasing_profiles():
    ball_prof = flat_torsion_profile(GeodesicBall(space=FLAT2, radius=1.0), beta=2.0)
    dist = profile_distribution(ball_prof, FLAT2)
    prof = schwarz_rearrangement(dist, FLAT2)
    assert abs(prof.ball.radius - 1.0) < 1e-12
    probe = ball_prof.grid
    assert float(np.max(np.abs(prof(probe) - ball_prof.values))) < 1e-6


def test_schwarz_measure_relation_weighted():
    # cone chart: constant density c, so the space weight is alpha = c
    alpha = 0.6
    mesh = generate_domain("disk", target_h=0.25, radius=1.0,
                           geometry="warped", warp=warped_profile("cone", alpha))
    field = _random_field(mesh, seed=31, positive=True)
    dist = distribution_function(field)
    cone = ModelSpace(kappa=0, n=2, alpha=alpha)
    prof = schwarz_rearrangement(dist, cone)
    unweighted = profile_distribution(prof, ModelSpace(kappa=0, n=2, alpha=1.0))
    # 50 thresholds taken at sampled profile levels, where both sides are exact
    idx = np.linspace(1, len(prof.values) - 2, 50).astype(int)
    for t in prof.values[idx]:
        lhs = dist.evaluate(float(t))
        rhs = alpha * unweighted.evaluate(float(t))
        assert abs(lhs - rhs) < 1e-9 * dist.total


def test_schwarz_preserves_lp_norms():
    alpha = 0.6
    mesh = generate_domain("disk", target_h=0.25, radius=1.0,
                           geometry="warped", warp=warped_profile("cone", alpha))
    field = _random_field(mesh, seed=37, positive=True)
    dist = distribution_function(field)
    cone = ModelSpace(kappa=0, n=2, alpha=alpha)
    prof = schwarz_rearrangement(dist, cone)
    for p in (1, 2, 4):
        mesh_norm = _mesh_lp_integral(field, p) ** (1.0 / p)
        star_norm = (p * dist.moment(p - 1.0, 1)) ** (1.0 / p)
        assert abs(mesh_norm - star_norm) < 1e-8 * mesh_norm
        # alpha^(1/p) * ||h_sharp||: the profile integral, per-cell Gauss
        # quadrature exact for the piecewise-linear samples
        x2, w2 = np.polynomial.legendre.leggauss(4)
        g, v = prof.grid, prof.values
        mid, half = 0.5 * (g[1:] + g[:-1]), 0.5 * (g[1:] - g[:-1])
        nodes = mid[:, None] + half[:, None] * x2[None, :]
        vals = np.interp(nodes, g, v)
        integ = float(np.sum(half[:, None] * w2[None, :]
                             * vals**p * 2.0 * math.pi * nodes))
        sharp_norm = alpha ** (1.0 / p) * integ ** (1.0 / p)
        # the sampled profile carries interpolation error between its kinks
        assert abs(sharp_norm - star_norm) < 2e-4 * star_norm


def test_schwarz_sphere_overflow():
    # mu = 20 below t = 1, then 40 - 20 t down to 0 at t = 2
    dist = DistributionData([0.0, 1.0, 2.0], [20.0, 20.0, 40.0, 0.0],
                            [0.0, 0.0, -20.0, 0.0], [0.0] * 4, 20.0)
    with pytest.raises(SphereOverflowError):
        schwarz_rearrangement(dist, SPHERE2)
    # the same data fits on the flat cone
    prof = schwarz_rearrangement(dist, FLAT2)
    assert abs(volume_profile(FLAT2, prof.ball.radius) - 20.0) < 1e-9


# ---------------------------------------------------------------------------
# Lorentz norms


def test_lorentz_equals_lp_when_p_is_q():
    mesh = generate_domain("spherical_cap", target_h=0.3, theta=1.0)
    field = _random_field(mesh, seed=41, positive=True)
    dist = distribution_function(field)
    for p in (2.0, 3.0):
        direct = _mesh_lp_integral(field, p) ** (1.0 / p)
        assert abs(lorentz_norm(dist, LorentzParams(p=p, q=p)) - direct) < 1e-8 * direct


def test_lorentz_constant_field_identities():
    mesh = _square_mesh()
    c = 0.8
    dist = distribution_function(
        ScalarField(mesh=mesh, values=np.full(len(mesh.vertices), c)))
    A = dist.total
    p = 2.5
    assert lorentz_norm(dist, LorentzParams(p=p, q=1.0)) == pytest.approx(
        p * c * A ** (1.0 / p), rel=1e-12)
    assert lorentz_norm(dist, LorentzParams(p=1.7, q=math.inf)) == pytest.approx(
        c**1.7 * A, rel=1e-12)


def test_lorentz_adaptive_branch_beta_oracle():
    # mu(t) = 1 - t gives norm^q = p * B(q, q/p + 1)
    dist = distribution_function(_strip_field(_square_mesh()))
    for p, q in ((2.0, 3.0), (1.5, 2.7)):
        exact = (p * beta_fn(q, q / p + 1.0)) ** (1.0 / q)
        got = lorentz_norm(dist, LorentzParams(p=p, q=q))
        assert abs(got - exact) < 1e-9 * exact


def test_lorentz_monotone_in_field():
    mesh = generate_domain("disk", target_h=0.3, radius=1.0)
    rng = np.random.default_rng(43)
    params = [LorentzParams(p=2.0, q=1.0), LorentzParams(p=2.0, q=math.inf),
              LorentzParams(p=1.5, q=2.7)]
    for _ in range(10):
        base = np.abs(rng.normal(size=len(mesh.vertices)))
        bump = rng.normal(size=len(mesh.vertices)) ** 2
        d1 = distribution_function(ScalarField(mesh=mesh, values=base))
        d2 = distribution_function(ScalarField(mesh=mesh, values=base + bump))
        for prm in params:
            assert lorentz_norm(d1, prm) <= lorentz_norm(d2, prm) + 1e-9


def test_lorentz_divergence_reported():
    # measure > 1 makes mu^(q/p) overflow for tiny p
    mesh = generate_domain("disk", target_h=0.3, radius=2.0)
    dist = distribution_function(_random_field(mesh, seed=2, positive=True))
    with pytest.raises(LorentzDivergenceError):
        lorentz_norm(dist, LorentzParams(p=1e-3, q=1.0))


def test_lorentz_reads_mu_clipped_at_zero():
    # a coefficient set whose mu dips below zero reads as the clipped mu, so
    # the Lorentz integral is a sum of non-negative terms
    dist = DistributionData([0.0, 1.0], [1.0, -1.0, 0.0], [0, 0, 0], [0, 0, 0], 1.0)
    assert lorentz_norm(dist, LorentzParams(2.0, 2.0)) == 0.0
    assert lorentz_norm(dist, LorentzParams(1.5, 1.0)) == 0.0


def test_lorentz_params_validation():
    with pytest.raises(ValueError):
        LorentzParams(p=0.0, q=1.0)
    with pytest.raises(ValueError):
        LorentzParams(p=1.0, q=-2.0)
    with pytest.raises(ValueError):
        LorentzParams(p=1.0, q=math.nan)


# (p, q) pairs for the oracles; q/p = 1 or 2 (the last four) makes the
# integrand a polynomial on each interior slot
_QUAD_PQ = ((1.5, 1.0), (1.5, 2.0), (1.5, 2.7), (3.0, 1.0), (0.6, 1.0),
            (1.0, 1.0), (1.0, 2.0), (0.5, 1.0), (2.0, 2.0))


def _superlevel_measure(field: ScalarField):
    """t -> mu(t) of a positive P1 field for an array of levels t, summed
    from the per-triangle superlevel area fractions."""
    mesh = field.mesh
    w = mesh.chart_areas() * mesh.centroid_density()
    a, b, c = np.sort(field.values[mesh.triangles], axis=1).T

    def mu(t):
        t = np.asarray(t, dtype=float)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(t < a, 1.0,
                            np.where(t < b, 1.0 - (t - a) ** 2 / ((b - a) * (c - a)),
                                     np.where(t < c, (c - t) ** 2 / ((c - b) * (c - a)),
                                              0.0)))
        return np.sum(w * frac, axis=1)

    return mu


def _oracle_lorentz(field: ScalarField, p: float, q: float) -> float:
    """Lorentz norm of a positive P1 field from the per-triangle superlevel
    area fractions, integrated by mpmath between the vertex values."""
    mu = _superlevel_measure(field)

    def integrand(t):
        t = float(t)
        return t ** (q - 1.0) * float(mu([t])[0]) ** (q / p)

    levels = np.unique(np.concatenate([[0.0], field.values]))
    return float((p * mpmath.quad(integrand, list(levels))) ** (1.0 / q))


_GL3 = np.polynomial.legendre.leggauss(3)


def _gauss_lorentz(field: ScalarField, p: float, q: float) -> float:
    """The oracle of :func:`_oracle_lorentz` for q/p in {1, 2} and q <= 2:
    mu is quadratic on each slot between vertex values, so the integrand
    t^(q-1) mu^(q/p) is a polynomial of degree <= 5 there, which 3-point
    Gauss-Legendre integrates exactly."""
    assert q / p in (1.0, 2.0) and q in (1.0, 2.0)
    levels = np.unique(np.concatenate([[0.0], field.values]))
    half = 0.5 * np.diff(levels)
    mid = 0.5 * (levels[1:] + levels[:-1])
    t = (mid[:, None] + half[:, None] * _GL3[0]).ravel()
    mu = _superlevel_measure(field)
    # a few hundred levels at a time: mu's fractions are (levels, triangles)
    mu_t = np.concatenate([mu(part) for part in np.split(t, range(256, len(t), 256))])
    values = (t ** (q - 1.0) * mu_t ** (q / p)).reshape(-1, 3)
    return float((p * math.fsum(half * (values @ _GL3[1]))) ** (1.0 / q))


@pytest.mark.parametrize("kind", ["random-disk", "strip", "torsion-square"])
def test_lorentz_matches_triangle_oracle(kind):
    # a random field has isolated maxima, where mu vanishes like (c - t)^2;
    # the strip attains its maximum along an edge, where mu vanishes like c - t;
    # on the torsion square an antiderivative of the large slot coefficients
    # took the q/p = 2 pairs 55 and 1.7e3 relative off
    pairs, oracle = _QUAD_PQ, _oracle_lorentz
    if kind == "random-disk":
        field = _random_field(generate_domain("disk", target_h=0.4, radius=1.0),
                              seed=7, positive=True)
    elif kind == "strip":
        field = _strip_field(_square_mesh())
    else:
        field = verify.solve_record(RobinProblem(mesh=_TORSION_SQUARE, beta=1.0), FLAT2).u
        # q/p = 1 or 2: the polynomial integrands, exact by Gauss-Legendre
        pairs, oracle = _QUAD_PQ[-4:], _gauss_lorentz
    dist = distribution_function(field)
    for p, q in pairs:
        exact = oracle(field, p, q)
        assert lorentz_norm(dist, LorentzParams(p, q)) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("radius,beta", [(1.0, 1.0), (0.7, 0.3), (1.3, 10.0)])
def test_lorentz_flat_torsion_closed_form(radius, beta):
    # the twin's norm, the thm1.1/thm1.2 rhs: v = (R^2 - r^2)/4 + R/(2 beta),
    # so mu = pi R^2 below v(R) and 4 pi (v(0) - t) above
    v = solve_symmetrized_poisson(GeodesicBall(space=FLAT2, radius=radius), beta)
    v0, vr = radius**2 / 4.0 + radius / (2.0 * beta), radius / (2.0 * beta)
    for p, q in _QUAD_PQ:
        r = q / p
        integral = ((math.pi * radius**2) ** r * vr**q / q
                    + (4.0 * math.pi) ** r * v0 ** (q + r) * beta_fn(q, r + 1.0)
                    * (1.0 - betainc(q, r + 1.0, vr / v0)))
        exact = (p * integral) ** (1.0 / q)
        assert verify._twin_lorentz_norm(v, LorentzParams(p, q)) == pytest.approx(
            exact, rel=1e-13)


def test_lorentz_fine_square_in_budget():
    # the 5,184-vertex torsion square: its top slot is 4e-9 wide and mu there
    # is roundoff noise, which a fixed rule integrates at fixed cost
    mesh = generate_domain("square", target_h=0.02, side=1.0)
    assert len(mesh.vertices) == 5184
    rec = verify.solve_record(RobinProblem(mesh=mesh, beta=1.0), FLAT2)
    for p, q in ((1.5, 1.0), (1.5, 2.0)):
        start = time.perf_counter()
        value = lorentz_norm(rec.dist, LorentzParams(p, q))
        assert time.perf_counter() - start < 5.0
        assert math.isfinite(value) and value > 0.0


def test_lorentz_underflow_is_refused():
    # the 5,184-vertex torsion square, max u = 0.33: t^999 underflows to 0
    # for every t up to max u, and the norm read exactly 0.0
    mesh = generate_domain("square", target_h=0.02, side=1.0)
    dist = verify.solve_record(RobinProblem(mesh=mesh, beta=1.0), FLAT2).dist
    assert lorentz_norm(dist, LorentzParams(1.0, 300.0)) == pytest.approx(0.231, abs=1e-3)
    with pytest.raises(LorentzDivergenceError, match="underflowed"):
        lorentz_norm(dist, LorentzParams(1.0, 1000.0))


_SMALL_DISK = generate_domain("disk", target_h=0.4, radius=1.0)


@settings(max_examples=25, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(0.3, 4.0),
       q=st.floats(0.3, 4.0), scale=st.floats(1e-3, 10.0))
def test_lorentz_monotone_under_pointwise_order(seed, p, q, scale):
    rng = np.random.default_rng(seed)
    base = np.abs(rng.normal(size=len(_SMALL_DISK.vertices)))
    bump = scale * rng.random(len(_SMALL_DISK.vertices))
    small = lorentz_norm(distribution_function(
        ScalarField(mesh=_SMALL_DISK, values=base)), LorentzParams(p, q))
    large = lorentz_norm(distribution_function(
        ScalarField(mesh=_SMALL_DISK, values=base + bump)), LorentzParams(p, q))
    assert small <= large * (1.0 + 1e-9)


@settings(max_examples=20, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.floats(1e-4, 3e-3), q=st.floats(0.5, 2.0))
def test_lorentz_divergence_raises_without_warnings(seed, p, q):
    # the case of test_lorentz_divergence_reported: the norm is about the
    # measure, 4 pi, to the power 1/p >= 333, so the integrand or the norm
    # overflows
    mesh = generate_domain("disk", target_h=0.3, radius=2.0)
    dist = distribution_function(_random_field(mesh, seed=seed, positive=True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LorentzDivergenceError):
            lorentz_norm(dist, LorentzParams(p=p, q=q))


# ---------------------------------------------------------------------------
# Hardy-Littlewood


def test_hardy_littlewood_indicator_refinement():
    mesh = generate_domain("disk", target_h=0.25, radius=1.0)
    f1 = _random_field(mesh, seed=47, positive=True)
    t = float(np.median(f1.values))
    chi = ScalarField(mesh=mesh, values=(f1.values > t).astype(float))
    lhs, rhs = hardy_littlewood_check(f1, chi)
    assert rhs - lhs >= -1e-9


def test_hardy_littlewood_equality_for_equal_fields():
    mesh = generate_domain("spherical_cap", target_h=0.35, theta=1.0)
    f = _random_field(mesh, seed=53, positive=True)
    lhs, rhs = hardy_littlewood_check(f, f)
    assert abs(lhs - rhs) < 1e-8 * lhs


def test_hardy_littlewood_property():
    mesh = generate_domain("disk", target_h=0.35, radius=1.0)
    rng = np.random.default_rng(59)
    for _ in range(100):
        a = np.abs(rng.normal(size=len(mesh.vertices)))
        b = np.abs(rng.normal(size=len(mesh.vertices)))
        lhs, rhs = hardy_littlewood_check(ScalarField(mesh=mesh, values=a),
                                          ScalarField(mesh=mesh, values=b))
        assert lhs <= rhs + 1e-9


def test_hardy_littlewood_monte_carlo_cross_check():
    mesh = generate_domain("disk", target_h=0.3, radius=1.0)
    rng = np.random.default_rng(61)
    w = mesh.chart_areas() * mesh.centroid_density()
    W = float(np.sum(w))
    N = 200_000
    for seed in range(5):
        # positive pairs keep the edge-midpoint lhs exact for the comparison
        f1 = _random_field(mesh, seed=100 + seed, positive=True)
        f2 = _random_field(mesh, seed=200 + seed, positive=True)
        lhs, rhs = hardy_littlewood_check(f1, f2)
        tri_idx = rng.choice(len(w), size=N, p=w / W)
        u1, u2 = rng.random(N), rng.random(N)
        s = np.sqrt(u1)
        bary = np.stack([1.0 - s, s * (1.0 - u2), s * u2], axis=1)
        tv1 = np.sum(bary * f1.values[mesh.triangles[tri_idx]], axis=1)
        tv2 = np.sum(bary * f2.values[mesh.triangles[tri_idx]], axis=1)
        prod = np.abs(tv1 * tv2)
        est = float(np.mean(prod)) * W
        se = W * float(np.std(prod)) / math.sqrt(N)
        assert abs(lhs - est) <= 4.0 * se
        assert lhs <= rhs + 1e-9


def test_hardy_littlewood_mesh_mismatch():
    m1 = generate_domain("disk", target_h=0.3, radius=1.0)
    m2 = generate_domain("disk", target_h=0.4, radius=1.0)
    f1 = ScalarField(mesh=m1, values=np.ones(len(m1.vertices)))
    f2 = ScalarField(mesh=m2, values=np.ones(len(m2.vertices)))
    with pytest.raises(MeshMismatchError):
        hardy_littlewood_check(f1, f2)
