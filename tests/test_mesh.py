"""Mesh generation, measures, serialization, validation."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robinsym import mesh as mesh_module
from robinsym.mesh import (
    CHART_RADIUS_CAP,
    DegenerateGeometryError,
    MeasuredMesh,
    MeshFormatError,
    MeshInvariantError,
    ScalarField,
    area_density,
    generate_domain,
    load_mesh,
    refine,
    save_mesh,
    warped_metric_tensors,
    warped_profile,
)

from mesh_oracles import (
    annulus_sector_build_loop,
    disk_build_loop,
    edge_table_by_unique,
    pattern_by_unique,
    square_build_loop,
)

L_SHAPE = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)]


def boundary_of(verts, tris):
    return mesh_module._extract_boundary(mesh_module._edge_table(tris, len(verts)))


def shoelace_of_boundary(mesh):
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    return 0.5 * float(np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]))


def test_square_measures_exact():
    m = generate_domain("square", target_h=0.2, side=1.0)
    assert m.total_measure() == pytest.approx(1.0, abs=1e-12)
    assert m.boundary_measure() == pytest.approx(4.0, abs=1e-12)
    assert m.chart_mesh_size() <= 0.2
    assert m.mesh_size() == m.chart_mesh_size()  # flat metric


def test_disk_measures_converge():
    # inscribed polygon: deficit O(h^2), from below
    for h in (0.2, 0.1, 0.05):
        m = generate_domain("disk", target_h=h, radius=1.0)
        assert m.chart_mesh_size() <= h * (1.0 + 1e-12)
        assert 0.0 < math.pi - m.total_measure() < 5.0 * h * h
        assert 0.0 < 2.0 * math.pi - m.boundary_measure() < 5.0 * h * h


def test_disk_frozen_regression():
    # values generated by this code and checked against the closed forms above
    m = generate_domain("disk", target_h=0.2, radius=1.0)
    assert len(m.vertices) == 271
    assert m.total_measure() == pytest.approx(3.134508681381216, rel=1e-14)
    assert m.boundary_measure() == pytest.approx(6.279641522331391, rel=1e-14)


def test_disk_refinement_order():
    deficits = []
    for h in (0.2, 0.1, 0.05):
        m = generate_domain("disk", target_h=h, radius=1.0)
        deficits.append(math.pi - m.total_measure())
    assert deficits[0] / deficits[1] > 3.0
    assert deficits[1] / deficits[2] > 3.0


def test_disk_boundary_segment_override():
    m = generate_domain("disk", target_h=0.3, radius=1.0, n_boundary=12)
    assert len(m.boundary_edges) == 12
    assert len(m.vertices) == 38


def test_disk_refuses_a_rim_of_fewer_than_three_segments():
    # such a rim was built with 3 segments, against the exact count promised
    for n_boundary in (2, 1, 0, -5, 2.5, 12.0, True):
        with pytest.raises(DegenerateGeometryError, match="n_boundary"):
            generate_domain("disk", target_h=0.3, radius=1.0, n_boundary=n_boundary)
    assert len(generate_domain("disk", target_h=0.3, radius=1.0,
                               n_boundary=np.int64(3)).boundary_edges) == 3


def test_pinned_rims_refuse_rings_that_do_not_nest():
    # at h = 0.1 the fourth ring (3 vertices) reaches past a chord of the
    # fifth (4 vertices), which folded a triangle of the band
    for h in (0.1, 0.05):
        with pytest.raises(DegenerateGeometryError, match="do not nest"):
            generate_domain("disk", target_h=h, radius=1.0, n_boundary=12)


@pytest.mark.parametrize("radius", [1.0, 0.3])
def test_ring_nesting_refuses_exactly_the_folded_disks(radius):
    # the loop build of every (ring count, rim) pair here validates unless
    # the vectorized build refuses it
    for m in range(1, 13):
        for n_boundary in [None] + list(range(3, 25)):
            verts, tris = disk_build_loop(radius, m, n_boundary)
            try:
                mesh_module._disk_build(radius, m, n_boundary)
            except DegenerateGeometryError:
                with pytest.raises(MeshInvariantError, match="orientation"):
                    MeasuredMesh(verts, tris, boundary_of(verts, tris))
            else:
                MeasuredMesh(verts, tris, boundary_of(verts, tris))


@pytest.mark.parametrize("radius, m, n_boundary", [
    (1.0, 1, None), (1.0, 5, 12), (1.0, 15, None), (0.5463024898437905, 23, None),
    (2.7, 40, None), (0.3, 7, 45), (1.0, 4, 3), (1.0, 150, None),
])
def test_disk_build_matches_the_loop_oracle(radius, m, n_boundary):
    verts, tris = mesh_module._disk_build(radius, m, n_boundary)
    ref_verts, ref_tris = disk_build_loop(radius, m, n_boundary)
    assert verts.dtype == ref_verts.dtype and tris.dtype == ref_tris.dtype
    assert np.array_equal(verts, ref_verts) and verts.tobytes() == ref_verts.tobytes()
    assert np.array_equal(tris, ref_tris)


@pytest.mark.parametrize("side, target_h", [(1.0, 2.0), (1.0, 0.3), (1.0, 0.05),
                                            (2.5, 0.04), (0.3, 0.01)])
def test_square_points_match_the_loop_oracle(side, target_h):
    verts, tris = mesh_module._square_points(side, target_h)
    k = max(1, math.ceil(side * math.sqrt(2.0) / target_h))
    ref_verts, ref_tris = square_build_loop(side, k)
    assert verts.tobytes() == ref_verts.tobytes()
    assert tris.dtype == ref_tris.dtype and np.array_equal(tris, ref_tris)


@pytest.mark.parametrize("r_inner, r_outer, angle0, angle1, target_h", [
    (1.0, 2.0, 0.0, 1.0, 0.2),
    (0.3, 0.35, -2.5, 3.0, 0.013),
    (0.05, 4.0, 1.0, 1.0 + 0.5 * math.pi, 0.37),
])
def test_annulus_sector_points_match_the_loop_oracle(r_inner, r_outer, angle0, angle1,
                                                     target_h):
    verts, tris = mesh_module._annulus_sector_points(r_inner, r_outer, angle0, angle1,
                                                     target_h)
    step = mesh_module._H_SAFETY * target_h
    kr = max(1, math.ceil((r_outer - r_inner) / step))
    ka = max(1, math.ceil((angle1 - angle0) * r_outer / step))
    ref_verts, ref_tris = annulus_sector_build_loop(r_inner, r_outer, angle0, angle1, kr, ka)
    assert verts.tobytes() == ref_verts.tobytes()
    assert tris.dtype == ref_tris.dtype and np.array_equal(tris, ref_tris)


def test_total_measure_matches_boundary_shoelace():
    # flat meshes: triangle area sum must equal the boundary polygon area
    for m in (
        generate_domain("square", target_h=0.3, side=1.0),
        generate_domain("disk", target_h=0.3, radius=1.0),
        generate_domain("polygon", target_h=0.3, points=L_SHAPE),
    ):
        assert m.total_measure() == pytest.approx(shoelace_of_boundary(m), rel=1e-12)


def test_spherical_cap_measures():
    # area 2*pi*(1 - cos(theta)), boundary 2*pi*sin(theta) on the unit sphere
    for theta, h in ((math.pi / 2, 0.05), (2.0, 0.1)):
        m = generate_domain("spherical_cap", target_h=h, theta=theta)
        assert m.geometry == "sphere_stereographic"
        area = 2.0 * math.pi * (1.0 - math.cos(theta))
        perim = 2.0 * math.pi * math.sin(theta)
        assert abs(m.total_measure() - area) < 5.0 * h * h * area
        assert abs(m.boundary_measure() - perim) < 5.0 * h * h * perim


def test_spherical_cap_frozen_regression():
    m = generate_domain("spherical_cap", target_h=0.1, theta=2.0)
    assert len(m.vertices) == 2107
    assert m.total_measure() == pytest.approx(8.896008966413941, rel=1e-14)
    assert m.boundary_measure() == pytest.approx(5.712898064052375, rel=1e-14)


def test_spherical_cap_chart_cap():
    limit = 2.0 * math.atan(CHART_RADIUS_CAP)
    with pytest.raises(DegenerateGeometryError, match="cap angle"):
        generate_domain("spherical_cap", target_h=1.0, theta=limit + 0.01)
    m = generate_domain("spherical_cap", target_h=5.0, theta=2.9)
    r = np.hypot(m.vertices[:, 0], m.vertices[:, 1])
    assert np.max(r) <= CHART_RADIUS_CAP


def test_sphere_mesh_size_uses_metric():
    m = generate_domain("spherical_cap", target_h=0.1, theta=math.pi / 2)
    # conformal factor is 2 at the chart origin and 1 at the rim
    assert m.chart_mesh_size() < m.mesh_size() <= 2.0 * m.chart_mesh_size() + 1e-12


def test_warped_cone_measures():
    h = 0.05
    m = generate_domain("disk", target_h=h, radius=1.0, geometry="warped",
                        warp=warped_profile("cone", 0.5))
    assert abs(m.total_measure() - math.pi / 2) < 5.0 * h * h
    assert abs(m.boundary_measure() - math.pi) < 5.0 * h * h
    # tangential chords cost at most their chart length here
    assert m.mesh_size() <= m.chart_mesh_size() + 1e-12


def test_warped_smoothed_cone_measures():
    c, h = 0.5, 0.1
    w = warped_profile("smoothed_cone", c)
    m = generate_domain("disk", target_h=h, radius=1.0, geometry="warped", warp=w)
    area = 2.0 * math.pi * (c / 2.0 + (1.0 - c) * math.exp(-1.0))
    perim = 2.0 * math.pi * (c + (1.0 - c) * (1.0 - math.exp(-1.0)))
    assert abs(m.total_measure() - area) < 5.0 * h * h
    assert abs(m.boundary_measure() - perim) < 5.0 * h * h
    assert m.total_measure() == pytest.approx(2.7247068133636, rel=1e-13)


def test_warp_catalog_validation():
    with pytest.raises(DegenerateGeometryError):
        warped_profile("cone", 0.0)
    with pytest.raises(DegenerateGeometryError):
        warped_profile("cone", 1.5)
    with pytest.raises(DegenerateGeometryError):
        warped_profile("paraboloid", 0.5)
    assert warped_profile("smoothed_cone", 0.3).avr == 0.3


def test_warp_curvature_proxy_nonnegative():
    r = np.linspace(0.0, 20.0, 400)
    for c in (0.2, 0.5, 0.9, 1.0):
        w = warped_profile("smoothed_cone", c)
        assert np.min(w.curvature_proxy(r)) >= -1e-12
        assert np.all(warped_profile("cone", c).curvature_proxy(r) == 0.0)


def test_warp_density_small_radius_limit():
    w = warped_profile("smoothed_cone", 0.4)
    r = np.array([0.0, 1e-10, 1e-8, 1e-6, 1e-3])
    d = w.chart_area_density(r)
    assert d[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(d) < 0.0)  # decays toward c
    assert warped_profile("cone", 0.4).chart_area_density(0.0) == 0.4


def test_warped_metric_tensors():
    w = warped_profile("cone", 0.5)
    pts = np.array([[0.7, 0.0], [0.3, 0.4], [0.0, 0.0]])
    T = warped_metric_tensors(w, pts)
    assert np.linalg.det(T) == pytest.approx(np.ones(3), abs=1e-12)
    # on the x-axis the tensor is diag(psi/r, r/psi)
    assert T[0] == pytest.approx(np.diag([0.5, 2.0]), abs=1e-12)
    # elsewhere it is the rotation of that diagonal form
    phi = math.atan2(0.4, 0.3)
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    assert T[1] == pytest.approx(R @ np.diag([0.5, 2.0]) @ R.T, abs=1e-12)


def test_annulus_sector_measures():
    h = 0.05
    m = generate_domain("annulus_sector", target_h=h, r_inner=1.0, r_outer=2.0,
                        angle0=0.0, angle1=math.pi / 2)
    area = (math.pi / 4) * (4.0 - 1.0)
    perim = (math.pi / 2) * 3.0 + 2.0
    assert abs(m.total_measure() - area) < 5.0 * h * h
    assert abs(m.boundary_measure() - perim) < 5.0 * h * h


def test_annulus_sector_validation():
    with pytest.raises(DegenerateGeometryError):
        generate_domain("annulus_sector", target_h=0.1, r_inner=2.0, r_outer=1.0,
                        angle0=0.0, angle1=1.0)
    with pytest.raises(DegenerateGeometryError):
        generate_domain("annulus_sector", target_h=0.1, r_inner=0.0, r_outer=1.0,
                        angle0=0.0, angle1=1.0)
    with pytest.raises(DegenerateGeometryError):
        generate_domain("annulus_sector", target_h=0.1, r_inner=1.0, r_outer=2.0,
                        angle0=0.0, angle1=7.0)


def test_polygon_exact_measures():
    m = generate_domain("polygon", target_h=0.1, points=L_SHAPE)
    assert m.total_measure() == pytest.approx(3.0, abs=1e-12)
    assert m.boundary_measure() == pytest.approx(8.0, abs=1e-12)
    assert m.chart_mesh_size() <= 0.1
    # clockwise input is normalized
    m2 = generate_domain("polygon", target_h=0.5, points=L_SHAPE[::-1])
    assert m2.total_measure() == pytest.approx(3.0, abs=1e-12)


def test_polygon_rejects_bad_input():
    bowtie = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(DegenerateGeometryError, match="self-intersect"):
        generate_domain("polygon", target_h=0.5, points=bowtie)
    with pytest.raises(DegenerateGeometryError):
        generate_domain("polygon", target_h=0.5, points=[(0, 0), (1, 0)])
    with pytest.raises(DegenerateGeometryError, match="area"):
        generate_domain("polygon", target_h=0.5, points=[(0, 0), (1, 0), (2, 0)])
    # refused by name at once, not by the vertex ceiling after refining
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DegenerateGeometryError, match="point 2 is not finite"):
            generate_domain("polygon", target_h=0.1, points=[(0, 0), (1, 0), (bad, 1)])


def test_generate_domain_argument_errors():
    with pytest.raises(DegenerateGeometryError):
        generate_domain("hexagon", target_h=0.1)
    with pytest.raises(DegenerateGeometryError):
        generate_domain("disk", target_h=-0.1, radius=1.0)
    with pytest.raises(DegenerateGeometryError, match="unexpected"):
        generate_domain("disk", target_h=0.1, radius=1.0, sides=3)


def test_invariant_violations_are_named():
    m = generate_domain("square", target_h=0.5, side=1.0)
    t = m.triangles.copy()
    t[0, [0, 1]] = t[0, [1, 0]]
    with pytest.raises(MeshInvariantError, match="orientation: triangle 0"):
        MeasuredMesh(m.vertices, t, m.boundary_edges)

    b = m.boundary_edges.copy()
    b[0] = b[0][::-1]
    with pytest.raises(MeshInvariantError, match="boundary-match"):
        MeasuredMesh(m.vertices, m.triangles, b)

    d = np.ones(len(m.vertices))
    d[3] = -1.0
    with pytest.raises(MeshInvariantError, match="density-positive: vertex 3"):
        MeasuredMesh(m.vertices, m.triangles, m.boundary_edges, density=d)

    t2 = m.triangles.copy()
    t2[0, 0] = len(m.vertices)
    with pytest.raises(MeshInvariantError, match="index-range"):
        MeasuredMesh(m.vertices, t2, m.boundary_edges)

    # a point off every triangle: its row of the Robin matrix is empty, and a
    # run on the mesh stopped in the factor as exactly singular
    extra = np.vstack([m.vertices, [[0.5, 2.0]]])
    with pytest.raises(MeshInvariantError, match=f"vertex-used: vertex {len(m.vertices)} "):
        MeasuredMesh(extra, m.triangles, m.boundary_edges)


def test_directed_edge_repeat_is_named():
    # two overlapping triangles both run the edge 0 -> 1
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(MeshInvariantError, match=r"edge-conformity: directed edge \(0, 1\)"):
        MeasuredMesh(verts, tris, [[0, 1], [1, 2], [2, 0]])


def test_duplicate_boundary_edge_is_named():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshInvariantError, match="boundary-match: duplicate boundary edge"):
        MeasuredMesh(verts, [[0, 1, 2]], [[0, 1], [1, 2], [2, 0], [0, 1]])


def test_unchained_boundary_vertex_is_named():
    # a bowtie: two triangles touching only at vertex 0, whose boundary
    # leaves and enters vertex 0 twice
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]])
    tris = np.array([[0, 1, 2], [0, 3, 4]])
    bnd = [[0, 1], [1, 2], [2, 0], [0, 3], [3, 4], [4, 0]]
    with pytest.raises(MeshInvariantError, match="boundary-loops: vertex 0 does not chain"):
        MeasuredMesh(verts, tris, bnd)


def test_save_load_round_trip(tmp_path):
    w = warped_profile("smoothed_cone", 0.5)
    m = generate_domain("disk", target_h=0.3, radius=1.0, geometry="warped", warp=w)
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    save_mesh(m, p1)
    m2 = load_mesh(p1)
    save_mesh(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.array_equal(m.boundary_edges, m2.boundary_edges)
    assert np.array_equal(m.density, m2.density)
    assert m2.warp == w


def test_load_density_optional(tmp_path):
    m = generate_domain("spherical_cap", target_h=0.4, theta=1.0)
    path = tmp_path / "cap.json"
    save_mesh(m, path)
    obj = json.loads(path.read_text())
    del obj["density"]
    path.write_text(json.dumps(obj))
    m2 = load_mesh(path)
    assert np.array_equal(m2.density, m.density)


def test_load_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(MeshFormatError, match="JSON"):
        load_mesh(p)
    p.write_text(json.dumps({"geometry": "flat"}))
    with pytest.raises(MeshFormatError, match="missing field"):
        load_mesh(p)
    m = generate_domain("square", target_h=0.5, side=1.0)
    save_mesh(m, p)
    obj = json.loads(p.read_text())
    obj["geometry"] = "hyperbolic"
    p.write_text(json.dumps(obj))
    with pytest.raises(MeshFormatError, match="geometry"):
        load_mesh(p)


@pytest.mark.parametrize("index", [2**32 + 1, 2**31, -1, 2**64])
def test_load_mesh_refuses_triangle_indices_int32_cannot_hold(tmp_path, index):
    # the mesh keeps int32 triangles, where 2^32 + 1 would wrap to vertex 1:
    # an index outside [0, N) is refused before the cast, and 2^64 is no
    # int64 at all
    m = generate_domain("square", target_h=0.5, side=1.0)
    path = tmp_path / "m.json"
    save_mesh(m, path)
    obj = json.loads(path.read_text())
    obj["triangles"][0][0] = index
    path.write_text(json.dumps(obj))
    if index < 2**63:
        with pytest.raises(MeshInvariantError, match="index-range: triangle"):
            load_mesh(path)
    else:
        with pytest.raises(MeshFormatError, match="malformed content"):
            load_mesh(path)


def test_triangles_are_int32_and_refused_before_the_cast():
    m = generate_domain("square", target_h=0.5, side=1.0)
    for given in (m.triangles, m.triangles.astype(np.int64), m.triangles.tolist()):
        mesh = MeasuredMesh(m.vertices, given, m.boundary_edges)
        assert mesh.triangles.dtype == np.int32 and np.array_equal(mesh.triangles, m.triangles)
    for index in (2**32 + 1, 2**31, -(2**32) + 1):
        wide = m.triangles.astype(np.int64)
        wide[0, 0] = index
        with pytest.raises(MeshInvariantError, match="index-range: triangle"):
            MeasuredMesh(m.vertices, wide, m.boundary_edges)


def test_refine_preserves_and_halves():
    m = generate_domain("square", target_h=0.3, side=1.0)
    r = refine(m)
    assert r.total_measure() == pytest.approx(1.0, abs=1e-12)
    assert r.chart_mesh_size() == pytest.approx(0.5 * m.chart_mesh_size(), rel=1e-12)
    assert len(r.triangles) == 4 * len(m.triangles)
    # the refined mesh keeps its coarse mesh, and reads the parent pair of
    # each midpoint off the coarse mesh's edges; no other mesh has either
    assert r.coarse is m and m.coarse is None and m.parents is None
    n = len(m.vertices)
    assert r.parents.dtype == np.int32 and r.parents.shape == (len(r.vertices) - n, 2)
    def keys(pairs):  # each edge once, as lo * n + hi
        return np.sort(np.min(pairs, axis=1) * n + np.max(pairs, axis=1))

    np.testing.assert_array_equal(keys(r.parents), keys(m._edges.ends))
    np.testing.assert_array_equal(
        r.vertices[n:], 0.5 * (m.vertices[r.parents[:, 0]] + m.vertices[r.parents[:, 1]]))


def test_refine_refuses_a_mesh_past_the_ceiling_before_allocating(monkeypatch):
    m = generate_domain("square", target_h=0.3, side=1.0)
    fine = len(refine(m).vertices)
    split = []
    monkeypatch.setattr(mesh_module, "_refine4", lambda *args: split.append(args))
    monkeypatch.setattr(mesh_module, "MAX_VERTICES", fine - 1)
    with pytest.raises(DegenerateGeometryError,
                       match=f"would have {fine} vertices, more than the ceiling of {fine - 1}"):
        refine(m)
    assert split == []


def test_refine_interpolates_custom_density():
    m = generate_domain("square", target_h=0.3, side=1.0)
    dens = 1.0 + m.vertices[:, 0]
    m2 = MeasuredMesh(m.vertices, m.triangles, m.boundary_edges, density=dens)
    # the quadrature is exact for linear densities, before and after refining
    assert m2.total_measure() == pytest.approx(1.5, abs=1e-12)
    r = refine(m2)
    assert r.total_measure() == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(r.density, 1.0 + r.vertices[:, 0], atol=1e-12)


def test_refine_recomputes_geometric_density():
    m = generate_domain("spherical_cap", target_h=0.3, theta=1.0)
    r = refine(m)
    assert np.allclose(r.density, area_density("sphere_stereographic", None, r.vertices))


def test_scalar_field_validation():
    m = generate_domain("square", target_h=0.5, side=1.0)
    ScalarField(m, np.zeros(len(m.vertices)))
    with pytest.raises(MeshFormatError):
        ScalarField(m, np.zeros(3))
    bad = np.zeros(len(m.vertices))
    bad[0] = np.nan
    with pytest.raises(MeshFormatError):
        ScalarField(m, bad)


def test_geometry_warp_pairing():
    m = generate_domain("square", target_h=0.5, side=1.0)
    with pytest.raises(MeshFormatError, match="warp"):
        MeasuredMesh(m.vertices, m.triangles, m.boundary_edges, geometry="warped")
    with pytest.raises(MeshFormatError, match="warp"):
        MeasuredMesh(m.vertices, m.triangles, m.boundary_edges,
                     geometry="flat", warp=warped_profile("cone", 0.5))


# ---------------------------------------------------------------------------
# the dict-and-set topology walks the edge table replaced, kept as the oracle


def _oracle_extract_boundary(triangles):
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    seen = {(int(a), int(b)) for a, b in edges}
    remaining = {a: b for (a, b) in seen if (b, a) not in seen}
    loops = []
    while remaining:
        start = cur = min(remaining)
        while True:
            nb = remaining.pop(cur)
            loops.append((cur, nb))
            cur = nb
            if cur == start:
                break
    return np.array(loops, dtype=np.int64)


def _oracle_refine4(verts, tris, density):
    """Midpoint split numbering midpoints as edges are first met; the density
    (or None) is averaged onto the midpoints."""
    verts = list(map(tuple, verts))
    dens = None if density is None else list(density)
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            pa, pb = verts[a], verts[b]
            verts.append(((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0))
            if dens is not None:
                dens.append(0.5 * (dens[key[0]] + dens[key[1]]))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    out = []
    for a, b, c in tris:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return np.array(verts), np.array(out, dtype=np.int64), dens


def _oracle_longest_edge(verts, tris):
    seg = np.concatenate([verts[tris[:, j]] - verts[tris[:, i]]
                          for i, j in ((0, 1), (1, 2), (2, 0))])
    return float(np.max(np.hypot(seg[:, 0], seg[:, 1])))


def _oracle_polygon(points, target_h):
    pts = np.asarray(points, dtype=float)
    if mesh_module._polygon_signed_area(pts) < 0:
        pts = pts[::-1].copy()
    verts, tris = pts, mesh_module._ear_clip(pts)
    while _oracle_longest_edge(verts, tris) > target_h:
        verts, tris, _ = _oracle_refine4(verts, tris, None)
    return verts, tris


def _assert_same_arrays(m, verts, tris, bnd, density):
    assert np.array_equal(m.vertices, verts)
    assert np.array_equal(m.triangles, tris)
    assert np.array_equal(m.boundary_edges, bnd)
    if density is not None:
        assert np.array_equal(m.density, density)


ORACLE_DOMAINS = {
    "square": dict(kind="square", target_h=0.15, side=1.0),
    "disk": dict(kind="disk", target_h=0.2, radius=1.0),
    "polygon": dict(kind="polygon", target_h=0.3, points=L_SHAPE[::-1]),
    "cap": dict(kind="spherical_cap", target_h=0.2, theta=1.2),
    "annulus_sector": dict(kind="annulus_sector", target_h=0.2, r_inner=1.0, r_outer=2.0,
                           angle0=0.3, angle1=2.0),
    "warped": dict(kind="disk", target_h=0.25, radius=1.0, geometry="warped",
                   warp=warped_profile("smoothed_cone", 0.5)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_topology_matches_dict_oracle(name):
    params = dict(ORACLE_DOMAINS[name])
    m = generate_domain(params.pop("kind"), params.pop("target_h"), **params)
    if name == "polygon":
        verts, tris = _oracle_polygon(L_SHAPE[::-1], 0.3)
        assert np.array_equal(m.vertices, verts)
        assert np.array_equal(m.triangles, tris)
    assert np.array_equal(m.boundary_edges, _oracle_extract_boundary(m.triangles))
    for _ in range(2):
        verts, tris, _ = _oracle_refine4(m.vertices, m.triangles, None)
        m = refine(m)
        _assert_same_arrays(m, verts, tris, _oracle_extract_boundary(tris), None)


def test_custom_density_refine_matches_dict_oracle():
    m = generate_domain("disk", target_h=0.3, radius=1.0)
    dens = 1.0 + m.vertices[:, 0] ** 2 + 0.3 * m.vertices[:, 1]
    m = MeasuredMesh(m.vertices, m.triangles, m.boundary_edges, density=dens)
    for _ in range(2):
        verts, tris, dens = _oracle_refine4(m.vertices, m.triangles, m.density)
        m = refine(m)
        _assert_same_arrays(m, verts, tris, _oracle_extract_boundary(tris), np.array(dens))


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_edge_table_gathers_from_the_triangles(name):
    params = dict(ORACLE_DOMAINS[name])
    m = generate_domain(params.pop("kind"), params.pop("target_h"), **params)
    given = MeasuredMesh(m.vertices, m.triangles.copy(), m.boundary_edges, geometry=m.geometry,
                         warp=m.warp)
    for mesh in (m, refine(m), refine(refine(m)), given):
        table = mesh._edges
        # the arrays of np.unique, dtypes included
        for got, want in zip(table[1:], edge_table_by_unique(mesh.triangles,
                                                             len(mesh.vertices))):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        half = mesh_module._half_edges(mesh.triangles)
        assert np.array_equal(table.ends, half[table.first])
        assert np.array_equal(table.boundary, half[table.count[table.edge] == 1])
        # the mesh's own triangles, and no (3M, 2) copy of the half-edges
        assert table.triangles is mesh.triangles
        assert max(a.size for a in table) < 6 * len(mesh.triangles)


def test_refine_retains_no_half_edge_copy():
    m = refine(generate_domain("square", target_h=0.04, side=1.0))
    assert len(m.vertices) == 5_329
    tracemalloc.start()
    try:
        fine = refine(m)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(fine.vertices) == 21_025
    # 3.85 MB measured; a (3M, 2) int64 copy of the half-edges adds 2.0 MB
    assert retained < 4.5e6


def test_refine_transient_memory():
    m = refine(generate_domain("square", target_h=0.04, side=1.0))
    tracemalloc.start()
    try:
        fine = refine(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fine.vertices) == 21_025
    # 8.3 MB measured; 14.1 MB with int64 edge ids and the validate
    # temporaries alive through the length factors
    assert peak < 10e6


def test_edge_table_refuses_more_half_edges_than_int32_ids():
    # a broadcast view: the refusal comes before any array is built
    triangles = np.broadcast_to(np.array([[0, 1, 2]]), (2**31 // 3 + 1, 3))
    with pytest.raises(MeshInvariantError, match="index-range"):
        mesh_module._edge_table(triangles, 3)


def test_edge_table_and_pattern_past_int32_keys():
    # 47,961 vertices: the keys lo * N + hi pass 2^31, so an int32 key would
    # wrap and merge edges
    m = generate_domain("square", target_h=0.0065, side=1.0)
    n = len(m.vertices)
    assert n == 47_961 and (n - 2) * n + n - 1 > 2**31
    table = m._edges
    for got, want in zip(table[1:], edge_table_by_unique(m.triangles, n)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    pattern = m.matrix_pattern()
    indptr, indices, (lo, hi), boundary = pattern_by_unique(
        m.triangles, n, m.boundary_edges)
    assert np.array_equal(pattern.indptr, indptr)
    assert np.array_equal(pattern.indices, indices)
    column = np.searchsorted(pattern.indptr, np.arange(len(pattern.indices)), side="right") - 1
    assert np.array_equal(column[pattern.diag], np.arange(n))
    assert np.array_equal(pattern.indices[pattern.diag], np.arange(n))
    assert np.array_equal(column[pattern.upper], hi)
    assert np.array_equal(pattern.indices[pattern.upper], lo)
    assert np.array_equal(column[pattern.lower], lo)
    assert np.array_equal(pattern.indices[pattern.lower], hi)
    assert np.array_equal(pattern.boundary, boundary)


@pytest.mark.parametrize("name", sorted(ORACLE_DOMAINS))
def test_generators_bound_edges_by_target_h(name):
    # the premise of the vertex ceiling's area bound
    params = dict(ORACLE_DOMAINS[name])
    kind = params.pop("kind")
    params.pop("target_h")
    for h in (0.31, 0.13, 0.07, 0.03):
        m = generate_domain(kind, h, **params)
        assert m.chart_mesh_size() <= h
        area = float(np.sum(m.chart_areas()))
        assert len(m.vertices) > mesh_module._fewest_vertices(area, h)


CEILING_DOMAINS = [
    dict(kind="square", side=1.0),
    dict(kind="disk", radius=1.0),
    dict(kind="spherical_cap", theta=1.0),
    dict(kind="annulus_sector", r_inner=1.0, r_outer=2.0, angle0=0.0, angle1=1.0),
    dict(kind="polygon", points=L_SHAPE),
]


@pytest.mark.parametrize("params", CEILING_DOMAINS)
def test_generators_refuse_unknown_kinds_and_parameters_before_building(params, monkeypatch):
    params = dict(params)
    kind = params.pop("kind")
    built = []
    for name in ("_disk_points", "_square_points", "_polygon_points", "_annulus_sector_points"):
        monkeypatch.setattr(mesh_module, name, lambda *args, **kw: built.append(args))
    with pytest.raises(DegenerateGeometryError, match=r"unexpected parameters \['side2'\]"):
        generate_domain(kind, 0.05, side2=1.0, **params)
    with pytest.raises(DegenerateGeometryError, match="unknown domain kind 'ring'"):
        generate_domain("ring", 0.05, **params)
    assert built == []


@pytest.mark.parametrize("params", CEILING_DOMAINS)
def test_generators_refuse_meshes_beyond_the_ceiling(params):
    params = dict(params)
    kind = params.pop("kind")
    with pytest.raises(DegenerateGeometryError, match=str(mesh_module.MAX_VERTICES)):
        generate_domain(kind, 1e-7, **params)
    # a usual h is still built
    generate_domain(kind, 0.05, **params)


def test_ceiling_counts_pinned_rims_and_sliver_polygons(monkeypatch):
    # a pinned rim leaves the edges unbounded by h: the rings and the rim count
    for h, n_boundary in ((1e-7, 12), (0.1, 10**400)):
        with pytest.raises(DegenerateGeometryError, match="2097152"):
            generate_domain("disk", h, radius=1.0, n_boundary=n_boundary)
    # a sliver's long edge needs more splits than its area tells; every split
    # is counted before it is made (a low ceiling keeps the test small)
    sliver = [(0.0, 0.0), (1.0, 0.0), (0.5, 1e-6)]
    assert len(generate_domain("polygon", 1e-2, points=sliver).vertices) < 10_000
    monkeypatch.setattr(mesh_module, "MAX_VERTICES", 1_000)
    with pytest.raises(DegenerateGeometryError, match="1000"):
        generate_domain("polygon", 1e-2, points=sliver)


@st.composite
def flat_meshes(draw):
    kind = draw(st.sampled_from(["square", "disk", "polygon", "annulus_sector"]))
    h = draw(st.floats(0.2, 0.6))
    if kind == "square":
        return generate_domain("square", h, side=draw(st.floats(0.5, 2.0)))
    if kind == "disk":
        return generate_domain("disk", h, radius=draw(st.floats(0.3, 1.2)))
    if kind == "annulus_sector":
        r0 = draw(st.floats(0.2, 1.0))
        a0 = draw(st.floats(-3.0, 3.0))
        return generate_domain("annulus_sector", h, r_inner=r0,
                               r_outer=r0 + draw(st.floats(0.2, 1.0)),
                               angle0=a0, angle1=a0 + draw(st.floats(0.3, 6.0)))
    # star-shaped about the origin with angular gaps below pi, hence simple
    n = draw(st.integers(4, 8))
    jitter = draw(st.lists(st.floats(0.0, 0.4), min_size=n, max_size=n))
    radii = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    angles = [2.0 * math.pi * (k + j) / n for k, j in enumerate(jitter)]
    return generate_domain("polygon", h, points=[
        (r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)])


@settings(max_examples=25, deadline=None, database=None)
@given(flat_meshes())
def test_refine_properties(m):
    r = refine(m)
    n_edges = (3 * len(m.triangles) + len(m.boundary_edges)) // 2
    assert len(r.vertices) == len(m.vertices) + n_edges
    assert len(r.triangles) == 4 * len(m.triangles)
    assert r.total_measure() == pytest.approx(m.total_measure(), rel=1e-12)
    assert r.boundary_measure() == pytest.approx(m.boundary_measure(), rel=1e-12)
    assert r.chart_mesh_size() == pytest.approx(0.5 * m.chart_mesh_size(), rel=1e-12)
