import math

import numpy as np
import pytest
from scipy.integrate import quad

from robinsym.model_geometry import (
    DomainRangeError,
    GeodesicBall,
    ModelSpace,
    isoperimetric_profile,
    profile_convexity_margin,
    radii_for_volumes,
    radius_for_volume,
    sn_kappa,
    sphere_area,
    unit_ball_volume,
    volume_profile,
    volume_profile_derivative,
)


def oracle_volume(kappa, n, alpha, r):
    # direct adaptive quadrature of the defining integrand, independent of the
    # closed forms used inside the module
    integrand = (lambda s: s ** (n - 1)) if kappa == 0 else (lambda s: math.sin(s) ** (n - 1))
    return n * unit_ball_volume(n) * alpha * quad(integrand, 0.0, r, epsabs=1e-13, epsrel=1e-13)[0]


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.1887902047863905, rel=1e-15)
    assert unit_ball_volume(4) == pytest.approx(4.934802200544679, rel=1e-15)
    assert unit_ball_volume(5) == pytest.approx(5.263789013914325, rel=1e-15)


def test_sn_kappa_basics():
    assert sn_kappa(0, 0.7) == 0.7
    assert sn_kappa(1, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(sn_kappa(1, np.array([0.0, math.pi])), [0.0, 0.0], atol=1e-15)


def test_space_validation():
    with pytest.raises(DomainRangeError):
        ModelSpace(kappa=2, n=2, alpha=1.0)
    with pytest.raises(DomainRangeError):
        ModelSpace(kappa=0, n=1, alpha=1.0)
    with pytest.raises(DomainRangeError):
        ModelSpace(kappa=0, n=2, alpha=0.0)
    with pytest.raises(DomainRangeError):
        ModelSpace(kappa=0, n=2, alpha=1.5)
    ModelSpace(kappa=1, n=3, alpha=1.0)  # fine


# frozen values from the quadrature oracle above
FROZEN_VOLUMES = [
    (0, 2, 1.0, 1.0, 3.141592653589793),
    (0, 3, 0.5, 1.7, 10.28976313805777),
    (1, 2, 1.0, math.pi, 12.566370614359172),
    (1, 2, 0.8, 1.1, 2.746525457315801),
    (1, 3, 1.0, 2.0, 14.943935773836984),
    (1, 5, 0.7, 2.0, 17.87273891893263),
    (1, 4, 1.0, 0.9, 2.4697667515857504),
]


@pytest.mark.parametrize("kappa,n,alpha,r,expected", FROZEN_VOLUMES)
def test_volume_profile_frozen(kappa, n, alpha, r, expected):
    space = ModelSpace(kappa=kappa, n=n, alpha=alpha)
    assert volume_profile(space, r) == pytest.approx(expected, rel=1e-11)


def test_volume_profile_small_radius_stable():
    # on S^3 the sine-power recursion, (r - sin r cos r) / 2, cancels near
    # zero; its series branch must not
    space = ModelSpace(kappa=1, n=3, alpha=1.0)
    for r in [1e-6, 1e-4, 1e-2, 0.19]:
        assert volume_profile(space, r) == pytest.approx(oracle_volume(1, 3, 1.0, r), rel=1e-11)


def test_volume_profile_matches_quadrature_random():
    rng = np.random.default_rng(42)
    for kappa in (0, 1):
        for n in (2, 3, 4):
            space = ModelSpace(kappa=kappa, n=n, alpha=0.63)
            hi = math.pi if kappa == 1 else 3.0
            for r in rng.uniform(0.05, hi - 0.05, size=4):
                assert volume_profile(space, float(r)) == pytest.approx(
                    oracle_volume(kappa, n, 0.63, float(r)), rel=1e-10
                )


def test_volume_profile_array_and_domain():
    space = ModelSpace(kappa=1, n=2, alpha=1.0)
    r = np.linspace(0.0, math.pi, 7)
    vals = volume_profile(space, r)
    assert vals.shape == (7,)
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(DomainRangeError):
        volume_profile(space, 3.5)
    with pytest.raises(DomainRangeError):
        volume_profile(space, -0.1)


def test_geodesic_ball():
    space = ModelSpace(kappa=0, n=2, alpha=1.0)
    ball = GeodesicBall(space, 2.0)
    assert ball.weighted_volume == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert ball.volume == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert ball.boundary_area == pytest.approx(4.0 * math.pi, rel=1e-14)
    half = ModelSpace(kappa=0, n=2, alpha=0.5)
    assert GeodesicBall(half, 2.0).volume == pytest.approx(4.0 * math.pi, rel=1e-14)
    with pytest.raises(DomainRangeError):
        GeodesicBall(space, 0.0)
    with pytest.raises(DomainRangeError):
        GeodesicBall(ModelSpace(kappa=1, n=2, alpha=1.0), 3.5)


def test_sphere_area_values():
    space = ModelSpace(kappa=1, n=2, alpha=1.0)
    assert sphere_area(space, math.pi / 2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    flat3 = ModelSpace(kappa=0, n=3, alpha=1.0)
    assert sphere_area(flat3, 2.0) == pytest.approx(16.0 * math.pi, rel=1e-14)


def test_round_trip_inversion():
    # radii drawn away from the antipode, where d(vol)/dr -> 0 makes the
    # r-space round trip ill-conditioned beyond what float volumes encode
    rng = np.random.default_rng(7)
    for kappa in (0, 1):
        for n in (2, 3, 5):
            space = ModelSpace(kappa=kappa, n=n, alpha=0.9)
            hi = math.pi - 0.15 if kappa == 1 else 4.0
            radii = rng.uniform(0.02, hi, size=50)
            for r in radii:
                v = volume_profile(space, float(r))
                assert radius_for_volume(space, v) == pytest.approx(float(r), rel=1e-12)
    # one array call mixing zero, interior volumes, a volume within 1e-8 of
    # full measure and the total, each held to the scalar bounds
    for n in (3, 5):
        space = ModelSpace(kappa=1, n=n, alpha=0.9)
        total = volume_profile(space, math.pi)
        radii = rng.uniform(0.02, math.pi - 0.15, size=50)
        near = total * (1.0 - 1e-8)
        vols = np.concatenate([[0.0], volume_profile(space, radii), [near, total]])
        out = radii_for_volumes(space, vols)
        assert out[0] == 0.0
        for r, rr in zip(radii, out[1:-2]):
            assert rr == pytest.approx(float(r), rel=1e-12)
        assert volume_profile(space, out[-2]) == pytest.approx(near, rel=1e-9)
        assert out[-1] == math.pi


def test_round_trip_near_antipode_value_space():
    # near full measure only the value-space residual is meaningful: the
    # profile is flat to float noise over the last ~1e-3 of radius
    space = ModelSpace(kappa=1, n=5, alpha=0.9)
    total = volume_profile(space, math.pi)
    for r in [math.pi - 0.1, math.pi - 0.01]:
        v = volume_profile(space, r)
        rr = radius_for_volume(space, v)
        assert volume_profile(space, rr) == pytest.approx(v, rel=1e-12)
    assert radius_for_volume(space, total) == math.pi
    sp3 = ModelSpace(kappa=1, n=3, alpha=1.0)
    t3 = volume_profile(sp3, math.pi)
    assert radius_for_volume(sp3, t3 * (1.0 - 1e-8)) == pytest.approx(math.pi, abs=1e-2)


def test_radius_for_volume_near_full_sphere():
    space = ModelSpace(kappa=1, n=3, alpha=1.0)
    total = volume_profile(space, math.pi)
    r = radius_for_volume(space, total * (1.0 - 1e-8))
    assert volume_profile(space, r) == pytest.approx(total * (1.0 - 1e-8), rel=1e-9)
    assert radius_for_volume(space, total) == pytest.approx(math.pi, abs=1e-6)


def test_radius_for_volume_errors():
    space = ModelSpace(kappa=1, n=2, alpha=1.0)
    with pytest.raises(DomainRangeError):
        radius_for_volume(space, -1.0)
    with pytest.raises(DomainRangeError):
        radius_for_volume(space, 4.0 * math.pi + 1.0)
    flat = ModelSpace(kappa=0, n=2, alpha=1.0)
    assert radius_for_volume(flat, math.pi) == pytest.approx(1.0, rel=1e-14)


def test_isoperimetric_profile_flat_closed_form():
    space = ModelSpace(kappa=0, n=2, alpha=1.0)
    assert isoperimetric_profile(space, math.pi) == pytest.approx(2.0 * math.pi, rel=1e-13)
    for alpha in (1.0, 0.5):
        sp = ModelSpace(kappa=0, n=2, alpha=alpha)
        for l in (0.3, 1.0, 7.5):
            assert isoperimetric_profile(sp, l) == pytest.approx(
                2.0 * math.sqrt(math.pi * alpha * l), rel=1e-13
            )


def test_isoperimetric_profile_frozen_sphere_values():
    # hemisphere of the unit round sphere: boundary is the equator
    sp2 = ModelSpace(kappa=1, n=2, alpha=1.0)
    assert isoperimetric_profile(sp2, 2.0 * math.pi) == pytest.approx(
        6.283185307179586, rel=1e-11
    )
    sp3 = ModelSpace(kappa=1, n=3, alpha=0.6)
    assert isoperimetric_profile(sp3, 2.0) == pytest.approx(5.266093637414209, rel=1e-11)
    assert isoperimetric_profile(sp2, 0.0) == 0.0
    assert isoperimetric_profile(sp2, 4.0 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_isoperimetric_profile_is_profile_derivative():
    # G(I(r)) must equal I'(r); differentiate I by Richardson-extrapolated
    # central differences as the independent route
    for kappa, n, alpha in [(0, 2, 1.0), (0, 3, 0.7), (1, 2, 1.0), (1, 3, 0.8)]:
        space = ModelSpace(kappa=kappa, n=n, alpha=alpha)
        # stay clear of the antipode: the FD oracle's roundoff floor
        # (eps*I/h) swamps rel 1e-10 once I' flattens out
        hi = math.pi - 0.3 if kappa == 1 else 3.0
        radii = np.linspace(0.05, hi, 1000)
        h = 1e-4
        i_p = volume_profile(space, radii + h)
        i_m = volume_profile(space, radii - h)
        i_p2 = volume_profile(space, radii + 0.5 * h)
        i_m2 = volume_profile(space, radii - 0.5 * h)
        d_h = (i_p - i_m) / (2.0 * h)
        d_h2 = (i_p2 - i_m2) / h
        deriv = (4.0 * d_h2 - d_h) / 3.0
        g = isoperimetric_profile(space, volume_profile(space, radii))
        assert np.max(np.abs(g - deriv) / np.abs(deriv)) < 1e-10


def test_volume_profile_derivative_consistency():
    space = ModelSpace(kappa=1, n=4, alpha=0.9)
    r = np.linspace(0.1, 3.0, 25)
    d1 = volume_profile_derivative(space, r, order=1)
    assert np.allclose(d1, sphere_area(space, r) * 0.9, rtol=1e-13)
    h = 1e-5
    d2_fd = (
        volume_profile_derivative(space, r + h) - volume_profile_derivative(space, r - h)
    ) / (2.0 * h)
    d2 = volume_profile_derivative(space, r, order=2)
    assert np.allclose(d2, d2_fd, rtol=1e-7, atol=1e-8)
    with pytest.raises(ValueError):
        volume_profile_derivative(space, 1.0, order=3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_level_ratio_monotone_at_threshold(n):
    # l -> l^(1/p) / G(l)^2 must be non-decreasing at the threshold exponent
    space = ModelSpace(kappa=1, n=n, alpha=1.0)
    p = n / (2.0 * n - 2.0)
    total = volume_profile(space, math.pi)
    grid = total * np.arange(1, 2049) / 2049.0
    vals = grid ** (1.0 / p) / isoperimetric_profile(space, grid) ** 2
    assert np.all(np.diff(vals) >= -1e-9 * np.abs(vals[:-1]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_profile_convexity_margin_nonnegative(n):
    space = ModelSpace(kappa=1, n=n, alpha=1.0)
    p = n / (2.0 * n - 2.0)
    r = np.linspace(0.0, math.pi - 1e-3, 4001)
    k = profile_convexity_margin(space, p, r)
    assert np.min(k) >= -1e-9


def test_profile_convexity_margin_detects_out_of_range():
    # beyond the threshold exponent the margin goes negative somewhere
    space = ModelSpace(kappa=1, n=3, alpha=1.0)
    r = np.linspace(1e-3, math.pi - 1e-3, 4001)
    k = profile_convexity_margin(space, 0.9, r)
    assert np.min(k) < 0.0
    with pytest.raises(DomainRangeError):
        profile_convexity_margin(space, -1.0, 1.0)
