"""Passes over triangles, edges and distribution slots run in blocks of
``mesh.BLOCK`` rows.  Whatever the block, every result equals one pass over
all rows, bit for bit, and a pass's scratch is a block, not a mesh."""

import math
import tracemalloc

import numpy as np
import pytest

from robinsym import fem, rearrange, verify
from robinsym import mesh as msh
from robinsym import model_geometry as mg
from robinsym.radial import _gauss_rule

from mesh_oracles import pattern_arrays_by_unique
from rearrange_oracles import corner_sort_distribution

_MOMENTS = [(0.0, 1.0), (1.0, 2.0), (0.0, 1.0 / 1.5), (-0.5, 2.0), (2.5, 0.7)]


def _meshes():
    """Small refined meshes on the three charts and of the five generated
    domains, of over three blocks of 64 triangles."""
    return {
        "square": msh.refine(msh.generate_domain("square", target_h=0.15, side=1.0)),
        "disk": msh.refine(msh.generate_domain("disk", target_h=0.25, radius=1.0)),
        "cap": msh.refine(msh.generate_domain("spherical_cap", target_h=0.3, theta=1.0)),
        "cone": msh.refine(msh.generate_domain(
            "disk", target_h=0.3, radius=1.0, geometry="warped",
            warp=msh.warped_profile("cone", 0.6))),
        "annulus": msh.refine(msh.generate_domain(
            "annulus_sector", target_h=0.2, r_inner=1.0, r_outer=2.0, angle0=0.0, angle1=1.0)),
    }


def _bits(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


def _everything(mesh):
    """The bits of every blocked pass on ``mesh``: refine's arrays and edge
    table, the mesh size and measure, the assembly, the mass matrix, the
    Robin matrix and its multilevel solves, the distribution function, its
    moments and the edge-midpoint integral."""
    fine = msh.refine(mesh)
    edges = fine._edges
    out = _bits(fine.vertices, fine.triangles, fine.boundary_edges, fine.parents,
                edges.edge, edges.first, edges.count, fine.chart_areas(),
                fine.centroid_density(), [fine.mesh_size(), fine.total_measure()])
    x, y = mesh.vertices.T
    source = msh.ScalarField(mesh=mesh, values=1.0 + x * x + 0.5 * y)
    problem = fem.RobinProblem(mesh=mesh, beta=2.0, source=source)
    system = fem.assemble(problem)
    out += _bits(system.stiffness, system.boundary_slots, system.boundary_values,
                 system.load, fem.mass_matrix(mesh, system.pattern),
                 *system.robin_matrix(2.0))
    solver = fem.robin_solver(mesh, system, 2.0)
    u = fem.solve_robin_poisson(problem, system, solver)
    lam, ground = fem.solve_robin_eigen(mesh, 2.0, system, solver)
    out += _bits(u.values, ground.values, [lam])
    for field in (u, msh.ScalarField(mesh=mesh, values=u.values - 0.5 * u.values.max())):
        dist = rearrange.distribution_function(field)
        out += _bits(dist._breaks, dist._A, dist._B, dist._C,
                     [dist.moment(e, k) for e, k in _MOMENTS])
    out += _bits([verify._integrate_field(mesh, u.values)])
    return out


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("name", ["square", "cap", "cone"])
def test_every_pass_is_the_same_in_any_block(name, block, monkeypatch):
    mesh = _meshes()[name]
    assert len(mesh.triangles) > 3 * block
    want = _everything(mesh)
    monkeypatch.setattr(msh, "BLOCK", block)
    got = _everything(_meshes()[name])
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, i


# ---------------------------------------------------------------------------
# one pass over all rows, the order every blocked pass keeps


def _one_pass_assembly(problem):
    """Stiffness, load and mass matrix from one pass over all triangles:
    each sum one ``np.bincount``, placed on the pattern's slots."""
    mesh = problem.mesh
    tris, nv = mesh.triangles, len(mesh.vertices)
    area = mesh.chart_areas()[:, None]
    pattern = mesh.matrix_pattern()

    def placed(diag, off):
        data = np.empty(len(pattern.indices))
        data[pattern.diag] = diag
        data[pattern.upper] = off
        data[pattern.lower] = off
        return data

    def per_vertex(local):
        return np.bincount(tris.ravel(), local.ravel(), nv)

    def per_edge(local):
        return np.bincount(pattern.half_edge, local.ravel(), len(pattern.upper))

    grads = mesh.basis_gradients()
    weighted = mesh.dirichlet_weighted(grads)
    nxt = [1, 2, 0]
    stiffness = placed(
        per_vertex((weighted[..., 0] * grads[..., 0] + weighted[..., 1] * grads[..., 1]) * area),
        per_edge((weighted[:, :, 0] * grads[:, nxt, 0]
                  + weighted[:, :, 1] * grads[:, nxt, 1]) * area))
    g_mid = (msh.edge_midpoints(problem.source_values()[tris])
             * msh.edge_midpoints(mesh.density[tris]))
    load = per_vertex((g_mid[:, [2, 0, 1]] + g_mid) * 0.5 * (area / 3.0))
    quarter = msh.edge_midpoints(mesh.density[tris]) * 0.25
    third = area / 3.0
    mass = placed(per_vertex((quarter[:, [2, 0, 1]] + quarter) * third),
                  per_edge(quarter * third))
    return stiffness, load, mass


def _one_pass_moment(dist, e, k):
    """DistributionData.moment with every interior slot's Gauss nodes at
    once."""
    n = min(int(e) // 2 + int(k) + 1, 16) if e >= 0 and e.is_integer() and k.is_integer() else 16
    br, K, q = dist._breaks, len(dist._breaks), e + 1.0
    w16 = _gauss_rule(16)[1]
    f = rearrange._mu_power(dist, 1, br[1] * rearrange._END_X ** (1.0 / q), k)
    integral = 0.0 + br[1] ** q / q * rearrange._quadrature(f, w16, rearrange._END_HALF)
    t = br[K - 2] + (br[K - 1] - br[K - 2]) * rearrange._END_X
    f = rearrange._mu_power(dist, K - 1, t, k) * t ** e
    integral += (br[K - 1] - br[K - 2]) * rearrange._quadrature(f, w16, rearrange._END_HALF)
    t, half = rearrange._gauss_nodes(br[1:K - 2], br[2:K - 1], n)
    f = rearrange._mu_power(dist, np.s_[2:K - 1, None], t, k)
    f *= t ** e
    return float(integral + rearrange._quadrature(f, _gauss_rule(n)[1], half))


@pytest.mark.parametrize("name", ["square", "cone"])
def test_blocked_passes_match_one_pass_on_a_mesh_of_several_blocks(name):
    mesh = {
        "square": lambda: msh.refine(msh.generate_domain("square", target_h=0.04, side=1.0)),
        "cone": lambda: msh.refine(msh.generate_domain(
            "disk", target_h=0.05, radius=1.0, geometry="warped",
            warp=msh.warped_profile("cone", 0.6))),
    }[name]()
    assert len(mesh.triangles) > msh.BLOCK
    x, y = mesh.vertices.T
    problem = fem.RobinProblem(mesh=mesh, beta=1.0,
                               source=msh.ScalarField(mesh=mesh, values=1.0 + x * x + 0.5 * y))
    system = fem.assemble(problem)
    stiffness, load, mass = _one_pass_assembly(problem)
    assert _bits(system.stiffness, system.load, fem.mass_matrix(mesh, system.pattern)) == \
        _bits(stiffness, load, mass)

    ln, at_tail, at_head = mesh._length_factors(mesh._edges.ends)
    assert mesh.mesh_size() == float(np.max(np.maximum(at_tail, at_head) * ln))
    assert mesh.total_measure() == math.fsum(
        (mesh.chart_areas() * mesh.centroid_density()).tolist())

    dist = rearrange.distribution_function(fem.solve_robin_poisson(problem, system))
    assert len(dist._breaks) > msh.BLOCK // 16 * 4
    for e, k in _MOMENTS:
        assert dist.moment(e, k) == _one_pass_moment(dist, e, k), (e, k)


@pytest.mark.parametrize("block", [7, 64, None])
@pytest.mark.parametrize("name", ["square", "disk", "cap", "cone", "annulus"])
def test_pattern_matches_one_pass_in_any_block(name, block, monkeypatch):
    # the blocked build, whose one int64 array of edge length is its sort
    # of the edges by hi, against the pattern of the edges np.unique finds
    if block is not None:
        monkeypatch.setattr(msh, "BLOCK", block)
    mesh = _meshes()[name]
    assert len(mesh._edges.first) > 3 * 64
    assert _bits(*mesh.matrix_pattern()) == _bits(*pattern_arrays_by_unique(mesh))


@pytest.mark.parametrize("name", ["square", "disk", "cap"])
def test_distribution_matches_one_pass_in_blocks(name, monkeypatch):
    # each kind of piece of mu in two passes over blocks of 64 triangles,
    # on fields of one sign, of both and with zeros, against the one-pass
    # bincount build
    mesh = _meshes()[name]
    assert len(mesh.triangles) > 3 * 64
    monkeypatch.setattr(msh, "BLOCK", 64)
    rng = np.random.default_rng(11)
    x, y = mesh.vertices.T
    smooth = 1.0 - x * x - 0.5 * y * y
    for values in (smooth - smooth.min() + 0.1, smooth - np.median(smooth),
                   np.where(rng.random(len(x)) < 0.1, 0.0, rng.normal(size=len(x)))):
        field = msh.ScalarField(mesh=mesh, values=values)
        new, old = rearrange.distribution_function(field), corner_sort_distribution(field)
        for attr in ("_breaks", "_A", "_B", "_C"):
            assert _bits(getattr(new, attr)) == _bits(getattr(old, attr)), attr


@pytest.mark.parametrize("beta", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("name", ["square", "cap", "cone"])
def test_level_in_the_stiffness_buffer_matches_a_copied_one(name, beta, monkeypatch):
    # K + beta B compacted in place over blocks of 32 columns against the
    # copy the earlier betas of a level build; the copy leaves K as it was
    monkeypatch.setattr(msh, "BLOCK", 32)
    mesh = _meshes()[name]
    assert len(mesh.vertices) > 3 * 32
    system = fem.assemble(fem.RobinProblem(mesh=mesh, beta=beta))
    stiffness = system.stiffness.copy()
    copied = fem._level(system, beta, mesh.parents)
    assert _bits(system.stiffness) == _bits(stiffness)
    handed, kept = system.hand_over()
    taken = fem._level(handed, beta, mesh.parents)
    assert _bits(*taken.matrix, taken.diagonal, taken.parents, taken.smoother) == \
        _bits(*copied.matrix, copied.diagonal, copied.parents, copied.smoother)
    # the level owns the stiffness's buffer; the assembly left in the
    # caller's hands has no K to read
    assert np.shares_memory(taken.matrix[0], system.stiffness)
    assert kept.stiffness is kept.boundary_slots is kept.boundary_values is None
    assert kept.pattern is system.pattern and kept.load is system.load


# ---------------------------------------------------------------------------
# scratch


def _scratch(call, *args):
    """(result, peak less what the call keeps, what it keeps), in bytes."""
    tracemalloc.start()
    try:
        result = call(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept, kept


def test_scratch_of_a_level_does_not_grow_with_the_mesh():
    # the square at 5,329 and 21,025 vertices.  Measured: assemble 0.82 and
    # 0.94 MB, the thm1.2 moment 0.35 and 0.42 MB, refine 0.58 and 0.69 MB
    # (keeping 0.55 and 2.17 MB).  One pass over all rows took assemble
    # from 0.99 to 3.96 MB, the moment from 0.54 to 3.69 MB and refine from
    # 1.29 to 5.12 MB; one stable sort of all the half-edges' int64 keys
    # took refine to 0.65 and 1.15 MB
    mesh = msh.generate_domain("square", target_h=0.04, side=1.0)
    scratch = []
    for size in (5_329, 21_025):
        mesh, refined, kept = _scratch(msh.refine, mesh)
        assert len(mesh.vertices) == size
        problem = fem.RobinProblem(mesh=mesh, beta=1.0)
        system, assembled, _ = _scratch(fem.assemble, problem)
        dist = rearrange.distribution_function(fem.solve_robin_poisson(problem, system))
        _, moment, _ = _scratch(dist.moment, 0.0, 1.0 / 1.5)
        scratch.append((refined, kept, assembled, moment))
    (refined5, _, assembled5, moment5), (refined21, kept21, assembled21, moment21) = scratch
    # a block's temporaries, whatever the mesh
    assert assembled21 - assembled5 < 0.25e6
    assert moment21 - moment5 < 0.25e6
    # refine's edge table orders every half-edge of the new mesh by its
    # lower end in one int32 array, which grows with it: it stays under
    # half of what the refined mesh keeps
    assert refined21 < 0.5 * kept21


def test_what_a_refined_mesh_keeps_per_vertex():
    # tracemalloc's count of what refine returns on the square at 5,329 and
    # 21,025 vertices.  Measured: 103 bytes per vertex at both, the
    # vertices 16, the int32 triangles 24, the density 8, the chart areas
    # 16 and the edge table 39 (each half-edge's edge 24, each edge's first
    # half-edge 12 and its byte count 3).  With int64 triangles, a cached
    # centroid density and int32 counts: 151 and 152
    mesh = msh.generate_domain("square", target_h=0.04, side=1.0)
    for size in (5_329, 21_025):
        mesh, _, kept = _scratch(msh.refine, mesh)
        assert len(mesh.vertices) == size
        assert kept < 110 * size


def test_edge_table_holds_no_int64_array_of_the_half_edges():
    # on the square at 80,656 vertices: the scratch of the bucketed sort is
    # its int32 order of the half-edges, 4 bytes each, two int32 arrays of
    # bucket starts and a block's temporaries, 2.8 MB measured; one int64
    # array of the half-edges alone is 3.8 MB, and the stable sort of all
    # keys held two of them, 7.3 MB
    mesh = msh.generate_domain("square", target_h=0.005, side=1.0)
    half_edges = 3 * len(mesh.triangles)
    assert len(mesh.vertices) == 80_656
    _, scratch, _ = _scratch(msh._edge_table, mesh.triangles, len(mesh.vertices))
    assert scratch < 8 * half_edges


def test_working_set_of_the_finest_level_per_vertex():
    # traced peak over the live meshes, in bytes per vertex of the level,
    # on the square at 5,329 and 21,025 vertices.  Measured: solve_level
    # 279 and 216, solve_records over the solutions 371 and 157.  With the
    # Robin matrix copied out of the stiffness and from_field's pieces
    # formed over all triangles at once: 306 and 269, 374 and 272.  At 5,329
    # vertices the radial twin, whose grid does not grow with the mesh,
    # sets solve_records' peak
    budget = {5_329: (300, 400), 21_025: (235, 180)}
    mesh = msh.refine(msh.generate_domain("square", target_h=0.04, side=1.0))
    for size, (level, records) in budget.items():
        assert len(mesh.vertices) == size
        problems = [fem.RobinProblem(mesh=mesh, beta=1.0)]
        tracemalloc.start()
        try:
            solved = verify.solve_level(problems)
            solving = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            kept = tracemalloc.get_traced_memory()[0]
            verify.solve_records(problems, mg.ModelSpace(kappa=0, n=2), solved=solved)
            recording = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        assert solving < level * size
        assert recording < records * size
        mesh = msh.refine(mesh)
