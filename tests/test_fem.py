"""Finite element assembly and Robin solvers."""

import io
import json
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from robinsym import cli, fem
from robinsym import mesh as msh
from robinsym import model_geometry as mg

from fem_oracles import lobpcg_allocating, multilevel_solve_allocating
from radial_oracles import flat_torsion_profile

# first Robin eigenvalue of the unit disk, beta = 1 (root of k J1(k) = J0(k),
# squared); independently pinned in the radial tests
_DISK_EIGEN_B1 = 1.5769927308134737
# Dirichlet limit: square of the first zero of J0
_J01_SQ = 2.404825557695773**2
# spherical cap theta = 1, beta = 1, from the radial solver
_CAP_EIGEN_B1 = 1.4459779225320972
# unit square at 21,025 vertices, beta = 1: the value of inverse power
# iteration whose solves ran Jacobi-CG to 1e-10 relative residual
_SQUARE_21K_EIGEN_B1 = 3.4141304266841193


def _unit_square():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    bed = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    return msh.MeasuredMesh(verts, tris, bed)


def _disk(h, **kw):
    return msh.generate_domain("disk", target_h=h, radius=1.0, **kw)


def _center_value(field):
    r = np.hypot(field.mesh.vertices[:, 0], field.mesh.vertices[:, 1])
    return float(field.values[np.argmin(r)])


def _perturbed_grid(nx, ny, pert, seed):
    """Structured grid with jittered interior vertices; the jitter makes
    obtuse triangles, so the discrete maximum principle can fail."""
    rng = np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.linspace(0, 1, nx), np.linspace(0, 1, ny),
                         indexing="ij")
    verts = np.column_stack([xs.ravel(), ys.ravel()])
    inner = np.all((verts > 0) & (verts < 1), axis=1)
    verts[inner] += rng.uniform(-pert, pert, (int(inner.sum()), 2))
    idx = lambda i, j: i * ny + j
    tris, bed = [], []
    for i in range(nx - 1):
        for j in range(ny - 1):
            tris.append([idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)])
            tris.append([idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)])
    for i in range(nx - 1):
        bed.append([idx(i, 0), idx(i + 1, 0)])
    for j in range(ny - 1):
        bed.append([idx(nx - 1, j), idx(nx - 1, j + 1)])
    for i in range(nx - 1, 0, -1):
        bed.append([idx(i, ny - 1), idx(i - 1, ny - 1)])
    for j in range(ny - 1, 0, -1):
        bed.append([idx(0, j), idx(0, j - 1)])
    return msh.MeasuredMesh(verts, np.array(tris), np.array(bed))


# ---------------------------------------------------------------------------
# assembly


def _csc(system, matrix):
    """A matrix of `system`, a data array on its pattern or a CSC triple
    (data, indices, indptr), as a scipy CSC matrix on the same arrays."""
    if isinstance(matrix, np.ndarray):
        matrix = (matrix, system.pattern.indices, system.pattern.indptr)
    n = len(system.load)
    return sp.csc_matrix(matrix, shape=(n, n))


def _full_boundary_mass(system):
    """The boundary mass as a data array on the whole pattern: its values
    at the boundary slots, zeros elsewhere."""
    full = np.zeros(len(system.pattern.indices))
    full[system.boundary_slots] = system.boundary_values
    return full


def _data_arrays(system, mesh):
    """Stiffness, mass (built as the eigen solve builds it) and boundary
    mass as data arrays on the pattern."""
    return (system.stiffness, fem.mass_matrix(mesh, system.pattern),
            _full_boundary_mass(system))


def _matrices(system, mesh):
    """Stiffness, mass and boundary mass as scipy CSC matrices."""
    return [_csc(system, data) for data in _data_arrays(system, mesh)]


def test_unit_square_mass_and_stiffness():
    m = _unit_square()
    system = fem.assemble(fem.RobinProblem(mesh=m, beta=1.0))
    stiffness, mass, boundary_mass = _matrices(system, m)
    assert abs(mass.sum() - 1.0) < 1e-12
    assert np.max(np.abs(stiffness @ np.ones(4))) < 1e-12
    # perimeter of the unit square
    assert abs(boundary_mass.sum() - 4.0) < 1e-12


def _coo_assembly(problem):
    """Reference assembly: the 3 x 3 element matrices of every triangle
    summed through COO triplets, each entry from its own dot product."""
    mesh = problem.mesh
    tris = mesh.triangles
    nv = len(mesh.vertices)
    area = mesh.chart_areas()
    grads = mesh.basis_gradients()
    weighted = mesh.dirichlet_weighted(grads)
    k_local = np.einsum("tia,tja->tij", weighted, grads) * area[:, None, None]
    rho_mid = msh.edge_midpoints(mesh.density[tris])
    quarter = 0.25 * rho_mid
    m_local = np.take(quarter, [[0, 0, 2], [0, 1, 1], [2, 1, 2]], axis=1)
    m_local[:, [0, 1, 2], [0, 1, 2]] += quarter[:, [2, 0, 1]]
    m_local *= (area / 3.0)[:, None, None]
    g_mid = msh.edge_midpoints(problem.source_values()[tris]) * rho_mid
    load_local = (area[:, None] / 3.0) * (0.5 * (g_mid + np.roll(g_mid, 1, axis=1)))
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    stiffness = sp.coo_matrix((k_local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    mass = sp.coo_matrix((m_local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    load = np.zeros(nv)
    np.add.at(load, tris.ravel(), load_local.ravel())
    edges = mesh.boundary_edges
    lengths = mesh.boundary_chart_lengths()
    sigma = mesh.boundary_density
    b_local = np.zeros((len(edges), 2, 2))
    for t in (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)):
        st = sigma[:, 0] * (1.0 - t) + sigma[:, 1] * t
        phi = np.array([1.0 - t, t])
        b_local += 0.5 * st[:, None, None] * phi[:, None] * phi[None, :]
    b_local *= lengths[:, None, None]
    br = np.repeat(edges, 2, axis=1).ravel()
    bc = np.tile(edges, (1, 2)).ravel()
    boundary_mass = sp.coo_matrix((b_local.ravel(), (br, bc)), shape=(nv, nv)).tocsr()
    return stiffness, mass, boundary_mass, load


_KERNEL_MESHES = {
    "flat-disk": lambda: _disk(0.15),
    "sphere-cap": lambda: msh.generate_domain("spherical_cap", target_h=0.15, theta=1.0),
    "cone-disk": lambda: _disk(0.15, geometry="warped",
                               warp=msh.warped_profile("cone", 0.6)),
}


def test_matrices_symmetric_and_positive():
    rng = np.random.default_rng(5)
    for make in _KERNEL_MESHES.values():
        m = make()
        system = fem.assemble(fem.RobinProblem(mesh=m, beta=1.0))
        stiffness, mass, boundary_mass = _matrices(system, m)
        A = _csc(system, system.robin_matrix(1.0))
        # one value per edge: exact symmetry, also for the warped weight,
        # whose (W g_i).g_j and (W g_j).g_i round apart
        for mat in (stiffness, mass, boundary_mass, A):
            assert (mat != mat.T).nnz == 0
        for _ in range(10):
            x = rng.normal(size=len(m.vertices))
            assert float(x @ (stiffness @ x)) > -1e-12 * float(x @ x)
            assert float(x @ (A @ x)) > 0.0


@pytest.mark.parametrize("name", sorted(_KERNEL_MESHES))
def test_assembly_matches_coo_reference(name):
    m = _KERNEL_MESHES[name]()
    vals = 1.0 + m.vertices[:, 0] ** 2
    problem = fem.RobinProblem(mesh=m, beta=2.0, source=msh.ScalarField(mesh=m, values=vals))
    system = fem.assemble(problem)
    # builds on the shared pattern, changing no matrix
    A = _csc(system, system.robin_matrix(2.0))
    stiffness, mass, boundary_mass = _matrices(system, m)
    ref_k, ref_m, ref_b, ref_load = _coo_assembly(problem)
    ref_a = ref_k + 2.0 * ref_b
    ref_a.eliminate_zeros()
    for got, ref in ((stiffness, ref_k), (mass, ref_m),
                     (boundary_mass, ref_b), (A, ref_a)):
        assert got.format == "csc"
        assert abs(got - ref).max() <= 1e-14 * abs(ref).max()
    assert np.max(np.abs(system.load - ref_load)) <= 1e-14 * np.max(np.abs(ref_load))
    # the Robin matrix stores no zero, and the boundary slots hold all of B
    assert np.count_nonzero(A.data) == A.nnz
    assert np.count_nonzero(boundary_mass.data) == len(system.boundary_slots)


def test_shared_pattern_is_read_only():
    m = _disk(0.3)
    system = fem.assemble(fem.RobinProblem(mesh=m, beta=1.0))
    stiffness, mass, boundary_mass = _matrices(system, m)
    indices = stiffness.indices
    for mat in (mass, boundary_mass):
        assert np.shares_memory(mat.indices, indices)
    # an in-place change of one matrix's pattern would corrupt the others
    with pytest.raises(ValueError):
        boundary_mass.eliminate_zeros()
    for slots in (system.pattern.indptr, system.pattern.indices):
        with pytest.raises(ValueError):
            slots[0] = 1


@pytest.mark.parametrize("name", sorted(_KERNEL_MESHES))
def test_matvec_matches_scipy_bit_for_bit(name):
    # the eigen solve's products are those of the scipy matrices
    m = _KERNEL_MESHES[name]()
    system = fem.assemble(fem.RobinProblem(mesh=m, beta=1.0))
    rng = np.random.default_rng(3)
    arrays = _data_arrays(system, m)
    for data, mat in zip(arrays, _matrices(system, m)):
        for x in (np.ones(len(m.vertices)), rng.normal(size=len(m.vertices))):
            assert np.array_equal(system.matvec(data, x), mat @ x)
    # the compiled loop reads unchecked: a wrong size is refused before it
    mass = arrays[1]
    with pytest.raises(ValueError):
        system.matvec(mass, np.ones(len(m.vertices) - 1))
    with pytest.raises(ValueError):
        system.matvec(mass[:-1], np.ones(len(m.vertices)))


def test_square_21k_robin_matrix_and_assembly_memory():
    m = msh.refine(msh.refine(msh.generate_domain("square", target_h=0.04, side=1.0)))
    assert len(m.vertices) == 21_025
    problem = fem.RobinProblem(mesh=m, beta=1.0)
    tracemalloc.start()
    try:
        system = fem.assemble(problem)
        A = system.robin_matrix(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    A = _csc(system, A)
    # the hypotenuse stiffness is exactly 0 and stays out of the factor's input
    assert A.format == "csc"
    assert np.count_nonzero(A.data) == A.nnz == 104_545
    # 5.0 MB measured with the element values a block of triangles at a
    # time and K + beta B a block of columns at a time (5.1 MB with the
    # pattern's edge-length int64 scratch); 6.6 MB over all
    # triangles and columns at once, 7.6 MB with the mass matrix
    # and a full boundary mass array, 12.5 MB with a fresh (M, 3) array per
    # step of the element formulas and int64 pattern slots; summing COO
    # triplets into CSR took 30.1 MB
    assert peak < 6.0e6


def test_square_21k_assembly_keeps_what_the_factor_reads():
    # what a level holds while its factor runs: the pattern, the stiffness,
    # the boundary mass on its boundary slots, the load and K + beta B.
    # 3.96 MB measured; 6.27 MB with the mass matrix and the boundary mass
    # as full data arrays on the pattern
    m = msh.refine(msh.refine(msh.generate_domain("square", target_h=0.04, side=1.0)))
    assert len(m.vertices) == 21_025
    problem = fem.RobinProblem(mesh=m, beta=1.0)
    tracemalloc.start()
    try:
        system = fem.assemble(problem)
        A = system.robin_matrix(1.0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(A) == 3
    # 576 boundary vertices and edges: 1,728 slots of the 146,017
    assert len(system.boundary_slots) == 1_728
    assert len(system.stiffness) == 146_017
    assert retained < 4.3e6


@pytest.mark.parametrize("beta", [0.0, -1.0, float("inf"), float("nan")])
def test_robin_matrix_refuses_a_beta_without_a_robin_problem(beta):
    # at 0 the matrix is the singular Neumann one, which SuperLU factors
    # without complaint into a solution of size 1e15; below 0 it is
    # indefinite; inf and nan make no matrix at all
    m = msh.generate_domain("square", target_h=0.1, side=1.0)
    problem = fem.RobinProblem(mesh=m, beta=1.0)
    system = fem.assemble(problem)
    lu = fem.factor_robin(system.robin_matrix(1.0))
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        system.robin_matrix(beta)
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        fem.solve_robin_eigen(m, beta, system, lu)


_BIT_MESHES = {
    "flat-square": lambda: msh.refine(msh.generate_domain("square", target_h=0.05, side=1.0)),
    "sphere-cap": lambda: msh.generate_domain("spherical_cap", target_h=0.07, theta=1.0),
    "cone-disk": lambda: _disk(0.08, geometry="warped", warp=msh.warped_profile("cone", 0.6)),
}


@pytest.mark.parametrize("name", sorted(_BIT_MESHES))
def test_boundary_slots_give_the_full_boundary_mass_bit_for_bit(name, monkeypatch):
    m = _BIT_MESHES[name]()
    beta = 2.5
    problem = fem.RobinProblem(mesh=m, beta=beta)
    system = fem.assemble(problem)
    full = _full_boundary_mass(system)
    # B x from the slots is the CSC mat-vec of B's full data array
    rng = np.random.default_rng(13)
    for x in (np.ones(len(m.vertices)), rng.normal(size=len(m.vertices))):
        assert np.array_equal(system.boundary_matvec(x), system.matvec(full, x))
    # K + beta B is what beta B + K on the full arrays gives, zeros dropped
    data = beta * full
    data += system.stiffness
    keep = data != 0.0
    reference = sp.csc_matrix((data.copy(), system.pattern.indices.copy(),
                               system.pattern.indptr.copy()))
    reference.eliminate_zeros()
    got = system.robin_matrix(beta)
    assert np.array_equal(got[0], data[keep])
    assert np.array_equal(got[1], reference.indices)
    assert np.array_equal(got[2], reference.indptr)
    # the eigenpair through the slots is the one through the full array
    lu = fem.factor_robin(got)
    lam, ground = fem.solve_robin_eigen(m, beta, system, lu)
    monkeypatch.setattr(fem.AssembledSystem, "boundary_matvec",
                        lambda self, x: self.matvec(full, x))
    lam_full, ground_full = fem.solve_robin_eigen(m, beta, system, lu)
    assert lam == lam_full
    assert np.array_equal(ground.values, ground_full.values)


_RUN_CHECKS = [{"id": "thm1.1", "p": 1.0, "q": 1}, {"id": "thm1.2-pointwise"},
               {"id": "saint-venant"}, {"id": "bossel-daners"}, {"id": "level-set-chain"},
               {"id": "flux-identity"}, {"id": "measure-bound"}, {"id": "isoperimetric"},
               {"id": "min-comparison"}]


def _run_config(tmp_path, checks):
    doc = {"space": {"kappa": 0, "n": 2}, "domain": {"kind": "square", "side": 1.0},
           "source": "torsion", "beta": [0.5, 2.0], "h": 0.2, "refine_levels": 1,
           "checks": checks, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return cli.load_config(str(path))


def test_run_builds_the_mass_matrix_only_for_the_eigen_solve(tmp_path, monkeypatch):
    real_mass, real_eigen = fem.mass_matrix, fem.solve_robin_eigen

    def refused(mesh, pattern):
        raise AssertionError("mass matrix built without an eigen solve")

    monkeypatch.setattr(fem, "mass_matrix", refused)
    config = _run_config(tmp_path, [c for c in _RUN_CHECKS if c["id"] != "bossel-daners"])
    assert cli.run(config, stream=io.StringIO()) == 0

    built, eigen = [], []

    def counted_mass(mesh, pattern):
        built.append(mesh)
        return real_mass(mesh, pattern)

    def counted_eigen(mesh, *args, **kwargs):
        eigen.append(mesh)
        return real_eigen(mesh, *args, **kwargs)

    monkeypatch.setattr(fem, "mass_matrix", counted_mass)
    monkeypatch.setattr(fem, "solve_robin_eigen", counted_eigen)
    config = _run_config(tmp_path, _RUN_CHECKS)
    assert cli.run(config, stream=io.StringIO()) == 0
    # two levels times two betas: one mass matrix per eigen solve
    assert len(eigen) == 4
    assert built == eigen


def _default_panel_factor(A):
    """Oracle: SuperLU as `factor_robin` calls it, with SuperLU's own
    panel size."""
    return scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                    options={"SymmetricMode": True})


def _factors(lu):
    """L and U of a factor from `fem.factor_robin`, which come as CSC
    triples, as scipy matrices: what `splu`'s factor holds."""
    return [sp.csc_array(triple, shape=lu.shape) for triple in (lu.L, lu.U)]


def _fill(lu):
    """L + U nnz of a factor from `fem.factor_robin`."""
    return sum(factor.nnz for factor in _factors(lu))


_PANEL_MESHES = {
    "square-21k": lambda: msh.refine(msh.refine(
        msh.generate_domain("square", target_h=0.04, side=1.0))),
    "sphere-cap": lambda: msh.refine(
        msh.generate_domain("spherical_cap", target_h=0.035, theta=1.0)),
    "cone-disk": lambda: _disk(0.04, geometry="warped", warp=msh.warped_profile("cone", 0.6)),
}


@pytest.mark.parametrize("name", sorted(_PANEL_MESHES))
def test_panel_size_keeps_ordering_fill_and_solution(name):
    m = _PANEL_MESHES[name]()
    problem = fem.RobinProblem(mesh=m, beta=1.0)
    system = fem.assemble(problem)
    A = system.robin_matrix(1.0)
    lu, ref = fem.factor_robin(A), _default_panel_factor(_csc(system, A))
    assert np.array_equal(lu.perm_c, ref.perm_c)
    assert _fill(lu) == ref.L.nnz + ref.U.nnz
    if name == "square-21k":
        assert _fill(lu) == 1_032_762
    # the panel changes only the order of the updates: roundoff
    u = fem.solve_robin_poisson(problem, system, lu).values
    u_ref = ref.solve(system.load)
    assert np.max(np.abs(u - u_ref)) <= 1e-13 * np.max(np.abs(u_ref))


@pytest.mark.parametrize("name", sorted(_PANEL_MESHES))
def test_factor_matches_public_splu(name):
    # oracle: scipy's public splu with the arguments `factor_robin` hands
    # to SuperLU's extension; the same factor bit for bit
    m = _PANEL_MESHES[name]()
    problem = fem.RobinProblem(mesh=m, beta=1.0)
    system = fem.assemble(problem)
    A = system.robin_matrix(1.0)
    lu = fem.factor_robin(A)
    ref = scipy.sparse.linalg.splu(_csc(system, A), permc_spec="MMD_AT_PLUS_A",
                                   diag_pivot_thresh=0.0, panel_size=2,
                                   options={"SymmetricMode": True})
    assert np.array_equal(lu.perm_c, ref.perm_c)
    assert np.array_equal(lu.perm_r, ref.perm_r)
    assert _fill(lu) == ref.L.nnz + ref.U.nnz
    if name == "square-21k":
        assert _fill(lu) == 1_032_762
    for got, want in zip(_factors(lu), (ref.L, ref.U)):
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert np.array_equal(a, b)
    rng = np.random.default_rng(7)
    for b in (system.load, rng.normal(size=len(m.vertices))):
        assert np.array_equal(lu.solve(b), ref.solve(b))


def test_missing_extension_names_the_path():
    with pytest.raises(ImportError, match=r"sparse.linalg._dsolve") as info:
        fem._scipy_extension("scipy.sparse.linalg._dsolve._missing")
    assert info.value.path.endswith(os.path.join("sparse", "linalg", "_dsolve"))


def test_singular_robin_matrix_is_a_solver_error():
    # a zero column: SuperLU's "exactly singular" becomes SingularSystemError
    data = np.array([1.0, 1.0])
    indices = np.array([0, 1], dtype=np.int32)
    indptr = np.array([0, 1, 2, 2], dtype=np.int32)
    with pytest.raises(fem.SingularSystemError, match="3 dof"):
        fem.factor_robin((data, indices, indptr))


def test_mass_total_matches_measure():
    cap = msh.generate_domain("spherical_cap", target_h=0.15, theta=1.0)
    system = fem.assemble(fem.RobinProblem(mesh=cap, beta=1.0))
    assert fem.mass_matrix(cap, system.pattern).sum() == pytest.approx(
        cap.total_measure(), rel=1e-12)
    assert system.boundary_values.sum() == pytest.approx(
        cap.boundary_measure(), rel=1e-12)


def test_load_sums_to_disk_area():
    system = fem.assemble(fem.RobinProblem(mesh=_disk(0.05), beta=1.0))
    assert system.load.sum() == pytest.approx(np.pi, abs=2e-3)


def test_singular_geometry_is_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    bed = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    m = msh.MeasuredMesh(verts, tris, bed, density=np.full(4, 1e-200))
    with pytest.raises(fem.SingularGeometryError):
        fem.assemble(fem.RobinProblem(mesh=m, beta=1.0))


def test_problem_validation():
    m = _unit_square()
    for beta in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            fem.RobinProblem(mesh=m, beta=beta)
    other = _unit_square()
    field = msh.ScalarField(mesh=other, values=np.ones(4))
    with pytest.raises(ValueError):
        fem.RobinProblem(mesh=m, beta=1.0, source=field)
    with pytest.raises(ValueError):
        fem.RobinProblem(mesh=m, beta=1.0,
                         source=msh.ScalarField(mesh=m, values=np.array(
                             [1.0, -0.5, 1.0, 1.0])))
    with pytest.raises(ValueError):
        fem.RobinProblem(mesh=m, beta=1.0,
                         source=msh.ScalarField(mesh=m, values=np.zeros(4)))


# ---------------------------------------------------------------------------
# Poisson solves


def test_disk_torsion_values():
    u = fem.solve_robin_poisson(fem.RobinProblem(mesh=_disk(0.02), beta=1.0))
    assert _center_value(u) == pytest.approx(0.75, abs=5e-3)
    boundary = sorted(u.mesh.boundary_vertices)
    assert float(np.min(u.values[boundary])) == pytest.approx(0.5, abs=5e-3)


def test_disk_torsion_stiff_limit():
    u = fem.solve_robin_poisson(fem.RobinProblem(mesh=_disk(0.02), beta=1e6))
    assert _center_value(u) == pytest.approx(0.25, abs=1e-2)


def test_weak_form_residual():
    m = _disk(0.05)
    problem = fem.RobinProblem(mesh=m, beta=1.0)
    system = fem.assemble(problem)
    u = fem.solve_robin_poisson(problem)
    res = _csc(system, system.robin_matrix(1.0)) @ u.values - system.load
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi = rng.normal(size=len(m.vertices))
        assert abs(float(phi @ res)) <= 1e-8 * float(np.linalg.norm(phi))


def test_flux_identity():
    # integrate the equation: beta * boundary integral of u = volume source
    for beta in (1.0, 7.5):
        m = _disk(0.07)
        problem = fem.RobinProblem(mesh=m, beta=beta)
        system = fem.assemble(problem)
        u = fem.solve_robin_poisson(problem)
        ones = np.ones(len(m.vertices))
        lhs = beta * float(u.values @ (_csc(system, _full_boundary_mass(system)) @ ones))
        rhs = float(system.load.sum())
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_torsion_matches_radial_at_order_two():
    ball = mg.GeodesicBall(mg.ModelSpace(kappa=0, n=2), radius=1.0)
    profile = flat_torsion_profile(ball, beta=1.0)
    errs = []
    for h in (0.1, 0.05):
        m = _disk(h)
        u = fem.solve_robin_poisson(fem.RobinProblem(mesh=m, beta=1.0))
        r = np.clip(np.hypot(m.vertices[:, 0], m.vertices[:, 1]), 0.0, 1.0)
        errs.append(float(np.max(np.abs(u.values - profile(r)))))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_nonpositive_solution_warns():
    # obtuse triangles break the discrete maximum principle; a point source
    # then produces a (slightly) negative vertex value
    m = _perturbed_grid(4, 4, pert=0.3, seed=0)
    vals = np.zeros(len(m.vertices))
    vals[6] = 1.0
    source = msh.ScalarField(mesh=m, values=vals)
    with pytest.warns(RuntimeWarning):
        u = fem.solve_robin_poisson(fem.RobinProblem(mesh=m, beta=30.0,
                                                     source=source))
    assert float(np.min(u.values)) <= 0.0


# ---------------------------------------------------------------------------
# eigenvalue solves


def test_disk_eigen_moderate_beta():
    lam, u = fem.solve_robin_eigen(_disk(0.02), beta=1.0)
    assert lam == pytest.approx(_DISK_EIGEN_B1, rel=1e-2)
    assert float(np.max(u.values)) == 1.0
    assert float(np.min(u.values)) >= 0.0


def test_disk_eigen_stiff_beta():
    lam, _ = fem.solve_robin_eigen(_disk(0.02), beta=1e6)
    assert lam == pytest.approx(_J01_SQ, abs=5e-2)


def test_tiny_beta_eigenvalue_matches_its_first_order_value():
    # at beta = 1e-8 the ground state is nearly constant, and to first
    # order in beta lambda is the boundary mass of the constants over their
    # mass, beta (1'B1) / (1'M1); LOBPCG on the direct factor lands 9e-9
    # relative from it on this disk
    m = _disk(0.05)
    assert len(m.vertices) == 3_367 and m.coarse is None
    beta = 1e-8
    system = fem.assemble(fem.RobinProblem(mesh=m, beta=beta))
    lam, u = fem.solve_robin_eigen(m, beta, system)
    ones = np.ones(len(m.vertices))
    first_order = beta * float(ones @ system.boundary_matvec(ones)) / float(
        ones @ system.matvec(fem.mass_matrix(m, system.pattern), ones))
    assert abs(lam - first_order) <= 1e-6 * first_order
    assert float(np.min(u.values)) > 0.99


def test_rayleigh_quotient_consistency():
    m = _disk(0.07)
    lam, u = fem.solve_robin_eigen(m, beta=1.0)
    system = fem.assemble(fem.RobinProblem(mesh=m, beta=1.0))
    x = u.values
    quotient = float(x @ (_csc(system, system.robin_matrix(1.0)) @ x)) / float(
        x @ (_csc(system, fem.mass_matrix(m, system.pattern)) @ x))
    assert quotient == pytest.approx(lam, rel=1e-8)


def test_eigenvalue_monotone_in_beta():
    m = _disk(0.05)
    lams = [fem.solve_robin_eigen(m, beta=b)[0] for b in (0.5, 1.0, 2.0)]
    assert lams[0] < lams[1] < lams[2]


def test_eigen_second_order_refinement():
    lams = [fem.solve_robin_eigen(_disk(h), beta=1.0)[0]
            for h in (0.2, 0.1, 0.05)]
    inc = [lams[0] - lams[1], lams[1] - lams[2]]
    assert inc[0] > 0 and inc[1] > 0
    assert 3.0 < inc[0] / inc[1] < 5.0


def test_spherical_cap_eigen_matches_radial():
    cap = msh.generate_domain("spherical_cap", target_h=0.05, theta=1.0)
    lam, _ = fem.solve_robin_eigen(cap, beta=1.0)
    assert lam == pytest.approx(_CAP_EIGEN_B1, rel=5e-3)


def test_cone_eigen_matches_flat_disk():
    # on the cone metric the radial operator reduces to the flat one, so the
    # full cone disk shares the flat disk's first eigenvalue; this exercises
    # the metric-weighted stiffness against an exact reference
    m = _disk(0.04, geometry="warped", warp=msh.warped_profile("cone", 0.6))
    lam, _ = fem.solve_robin_eigen(m, beta=1.0)
    assert lam == pytest.approx(_DISK_EIGEN_B1, rel=5e-3)


def test_cone_torsion_center_value():
    m = _disk(0.04, geometry="warped", warp=msh.warped_profile("cone", 0.6))
    u = fem.solve_robin_poisson(fem.RobinProblem(mesh=m, beta=1.0))
    assert _center_value(u) == pytest.approx(0.75, abs=5e-3)


_EIGEN_SCRIPT = """
from robinsym import fem, mesh as msh
m = msh.refine(msh.refine(msh.generate_domain("square", target_h=0.04, side=1.0)))
alone = msh.MeasuredMesh(m.vertices, m.triangles, m.boundary_edges)
print(len(m.vertices), repr(fem.solve_robin_eigen(m, 1.0)[0]),
      repr(fem.solve_robin_eigen(alone, 1.0)[0]))
"""


def test_eigen_value_ignores_the_blas_thread_count():
    # the dots of LOBPCG, on the refined square's hierarchy and on the
    # direct factor of the same mesh standing alone, run in numpy's own
    # loops: OpenBLAS splits a dot this long over its threads, and the sum
    # then depends on their number
    env = dict(os.environ, PYTHONPATH=str(Path(fem.__file__).parents[1]))
    runs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", _EIGEN_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        runs.append(done.stdout.split())
    assert int(runs[0][0]) > 10_000
    assert runs[0] == runs[1]


def test_eigen_above_20k_dof_on_the_shared_factor(monkeypatch):
    # the twice refined square as a mesh of its own, which the direct factor
    # solves
    m = msh.generate_domain("square", target_h=0.04, side=1.0)
    m = msh.refine(msh.refine(m))
    m = msh.MeasuredMesh(m.vertices, m.triangles, m.boundary_edges)
    assert len(m.vertices) > 20_000
    factored = []
    gstrf = fem.gstrf

    def counted(*args, **kwargs):
        factored.append(args[0])
        return gstrf(*args, **kwargs)

    monkeypatch.setattr(fem, "gstrf", counted)
    problem = fem.RobinProblem(mesh=m, beta=1.0)
    system = fem.assemble(problem)
    lu = fem.factor_robin(system.robin_matrix(1.0))
    u = fem.solve_robin_poisson(problem, system, lu)
    lam, ground = fem.solve_robin_eigen(m, 1.0, system, lu)
    assert len(factored) == 1
    assert lam == pytest.approx(_SQUARE_21K_EIGEN_B1, rel=1e-9)
    # the shared factor gives what a solver factoring on its own gives
    alone = fem.solve_robin_eigen(m, 1.0)
    assert alone[0] == lam and np.array_equal(alone[1].values, ground.values)
    assert np.array_equal(fem.solve_robin_poisson(problem).values, u.values)
    assert len(factored) == 3


def test_eigenfield_solves_generalized_problem():
    # A x = lambda M x in the algebraic sense, not just a small quotient
    m = _disk(0.1)
    lam, u = fem.solve_robin_eigen(m, beta=1.0)
    system = fem.assemble(fem.RobinProblem(mesh=m, beta=1.0))
    mass = _csc(system, fem.mass_matrix(m, system.pattern))
    res = _csc(system, system.robin_matrix(1.0)) @ u.values - lam * (mass @ u.values)
    scale = float(np.linalg.norm(mass @ u.values))
    # LOBPCG stops on the Ritz value's fall; the residual it leaves is
    # 8.6e-9 relative here
    assert float(np.linalg.norm(res)) <= 5e-8 * lam * scale


# ---------------------------------------------------------------------------
# field files


def test_field_round_trip(tmp_path):
    m = _disk(0.2)
    mesh_path = tmp_path / "disk.json"
    msh.save_mesh(m, str(mesh_path))
    u = fem.solve_robin_poisson(fem.RobinProblem(mesh=m, beta=1.0))
    field_path = tmp_path / "u.json"
    fem.save_field(u, str(field_path), mesh_ref="disk.json")
    back = fem.load_field(str(field_path))
    assert np.array_equal(back.values, u.values)
    assert np.array_equal(back.mesh.vertices, m.vertices)


def test_field_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(msh.MeshFormatError):
        fem.load_field(str(bad))
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"values": [1.0]}))
    with pytest.raises(msh.MeshFormatError):
        fem.load_field(str(partial))
    with pytest.raises(msh.MeshFormatError):
        fem.load_field(str(tmp_path / "missing.json"))
    # values that are not numbers, under the reader's guard
    msh.save_mesh(_disk(0.5), str(tmp_path / "disk.json"))
    for values in (["a"], {"v": 1.0}, [[1.0, 2.0], [3.0]], [10**400]):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps({"mesh_ref": "disk.json", "values": values}))
        with pytest.raises(msh.MeshFormatError, match="malformed content"):
            fem.load_field(str(malformed))


# ---------------------------------------------------------------------------
# the multilevel route on refined meshes


def _chains():
    """Three refinements of a square, a disk, an S^2 cap and a c = 0.6
    warped-cone disk: L1-L3, of 4,225 to 15,769 vertices at L3."""
    bases = {
        "square": msh.generate_domain("square", target_h=0.2, side=1.0),
        "disk": _disk(0.2),
        "cap": msh.generate_domain("spherical_cap", target_h=0.2, theta=1.0),
        "cone": _disk(0.2, geometry="warped", warp=msh.warped_profile("cone", 0.6)),
    }
    for name, mesh in bases.items():
        for level in (1, 2, 3):
            mesh = msh.refine(mesh)
            yield f"{name}-L{level}", mesh


def _steps(caplog):
    """{route: [steps, ...]} from the multilevel solves' DEBUG records."""
    steps = {}
    for record in caplog.records:
        route = record.msg.split()[1]
        steps.setdefault(route, []).append(
            record.args[1] + record.args[2] if route == "CG" else record.args[1])
    caplog.clear()
    return steps


# every solve's CG steps (both phases) and LOBPCG steps stay below this
_MAX_STEPS = 20


@pytest.mark.filterwarnings("ignore:solution is not strictly positive")
def test_multilevel_work_is_bounded_across_meshes_levels_and_beta(caplog):
    caplog.set_level(logging.DEBUG, logger="robinsym.fem")
    for name, mesh in _chains():
        for beta in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            problem = fem.RobinProblem(mesh=mesh, beta=beta)
            system = fem.assemble(problem)
            A = system.robin_matrix(beta)
            solver = fem.robin_solver(mesh, system, beta)
            u = fem.solve_robin_poisson(problem, system, solver).values
            fem.solve_robin_eigen(mesh, beta, system, solver)
            steps = _steps(caplog)
            assert len(steps["CG"]) == 1 and len(steps["LOBPCG"]) == 1, (name, beta)
            assert max(steps["CG"] + steps["LOBPCG"]) < _MAX_STEPS, (name, beta, steps)
            direct = fem.factor_robin(A).solve(system.load)
            if beta in (1e-8, 1e-4, 1e8):
                # the direct u is itself ill-conditioned here (at 1e-4 it is
                # up to 6e-10 off the solution refined in extended
                # precision, the multilevel u 1e-10): the multilevel u
                # leaves no larger a residual
                def residual(x):
                    return np.linalg.norm(system.load - fem._csc_matvec(A, x))

                assert residual(u) <= residual(direct), (name, beta)
            else:
                assert np.max(np.abs(u - direct)) <= 1e-10 * np.max(np.abs(direct)), (name, beta)


@pytest.mark.parametrize("name", ["fixed-L1", "fixed-L2", "disk", "cap", "cone"])
def test_multilevel_route_matches_the_direct_factor(name):
    base = {
        "fixed-L1": lambda: msh.generate_domain("square", target_h=0.05, side=1.0),
        "fixed-L2": lambda: msh.refine(msh.generate_domain("square", target_h=0.05, side=1.0)),
        "disk": lambda: _disk(0.1),
        "cap": lambda: msh.generate_domain("spherical_cap", target_h=0.1, theta=1.0),
        "cone": lambda: _disk(0.1, geometry="warped", warp=msh.warped_profile("cone", 0.6)),
    }[name]()
    mesh = msh.refine(base)
    for beta in (0.1, 1.0, 10.0):
        problem = fem.RobinProblem(mesh=mesh, beta=beta)
        system = fem.assemble(problem)
        lu = fem.factor_robin(system.robin_matrix(beta))
        u, u_direct = (fem.solve_robin_poisson(problem, system, s).values
                       for s in (None, lu))
        assert np.max(np.abs(u - u_direct)) <= 1e-10 * np.max(u_direct)
        lam = fem.solve_robin_eigen(mesh, beta, system)[0]
        lam_direct = fem.solve_robin_eigen(mesh, beta, system, lu)[0]
        assert abs(lam - lam_direct) <= 1e-10 * lam_direct


def _dense_eigenvalue(system, beta, mesh) -> float:
    """The least eigenvalue of (K + beta B) x = lambda M x in dense numpy: a
    Cholesky factor L of M, then the least eigenvalue of L^-1 A L^-T."""
    A = _csc(system, system.robin_matrix(beta)).toarray()
    inverse = np.linalg.inv(np.linalg.cholesky(
        _csc(system, fem.mass_matrix(mesh, system.pattern)).toarray()))
    return float(np.linalg.eigvalsh(inverse @ A @ inverse.T)[0])


@pytest.mark.parametrize("name", ["square", "disk", "cap", "cone"])
def test_eigenvalue_matches_a_dense_eigensolve(name):
    # meshes of 256 to 1,027 vertices, unrefined (the direct factor) and
    # refined once (the hierarchy, and the direct factor of the same matrix)
    base = {
        "square": lambda: msh.generate_domain("square", target_h=0.1, side=1.0),
        "disk": lambda: _disk(0.2),
        "cap": lambda: msh.generate_domain("spherical_cap", target_h=0.1, theta=1.0),
        "cone": lambda: _disk(0.2, geometry="warped", warp=msh.warped_profile("cone", 0.6)),
    }[name]()
    for mesh in (base, msh.refine(base)):
        assert len(mesh.vertices) <= 1_100
        for beta in (0.1, 1.0, 10.0):
            system = fem.assemble(fem.RobinProblem(mesh=mesh, beta=beta))
            oracle = _dense_eigenvalue(system, beta, mesh)
            solvers = [None]
            if mesh.coarse is not None:
                solvers.append(fem.factor_robin(system.robin_matrix(beta)))
            for solver in solvers:
                lam = fem.solve_robin_eigen(mesh, beta, system, solver)[0]
                assert abs(lam - oracle) <= 1e-10 * oracle, (len(mesh.vertices), beta, solver)


def test_multilevel_solves_log_at_debug_only(caplog):
    mesh = msh.refine(msh.generate_domain("square", target_h=0.2, side=1.0))
    caplog.set_level(logging.DEBUG, logger="robinsym.fem")
    fem.solve_robin_eigen(mesh, 1.0)
    fem.solve_robin_poisson(fem.RobinProblem(mesh=mesh, beta=1.0))
    # the eigen solve's LOBPCG and the Poisson solve's CG
    messages = [r.getMessage() for r in caplog.records]
    assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 2
    assert [m.split(" on ")[0] for m in messages] == [
        "multilevel LOBPCG", "multilevel CG"]
    for message in messages:
        assert f"on {len(mesh.vertices)} dof: " in message
        assert "iterations, relative residual " in message
    # the direct route's Poisson solve logs nothing and its eigen solve its
    # LOBPCG, and a process that configures no logging prints nothing
    caplog.clear()
    fem.solve_robin_poisson(fem.RobinProblem(mesh=mesh.coarse, beta=1.0))
    assert caplog.records == []
    fem.solve_robin_eigen(mesh.coarse, 1.0)
    assert [r.getMessage().split(" on ")[0] for r in caplog.records] == ["direct LOBPCG"]
    script = ("from robinsym import fem, mesh as msh\n"
              "m = msh.refine(msh.generate_domain('square', target_h=0.2, side=1.0))\n"
              "fem.solve_robin_eigen(m, 1.0)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fem.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "" and done.stderr == ""


def test_hierarchy_refuses_a_vector_of_another_size():
    # the compiled mat-vec reads its vector unchecked
    mesh = msh.refine(msh.generate_domain("square", target_h=0.2, side=1.0))
    system = fem.assemble(fem.RobinProblem(mesh=mesh, beta=1.0))
    hierarchy = fem.robin_solver(mesh, system, 1.0)
    for size in (1, len(mesh.vertices) - 1):
        with pytest.raises(ValueError, match="takes a vector of"):
            hierarchy.solve(np.ones(size))
        with pytest.raises(ValueError, match="takes a vector of"):
            hierarchy.matvec(np.ones(size))


def test_ritz_step_matches_lapack_and_lobpcg_calls_none(monkeypatch):
    # the 3 x 3 Rayleigh-Ritz step in scalar Python against numpy's LAPACK,
    # on pencils whose Gram matrix of A spans ten orders of magnitude
    rng = np.random.default_rng(7)
    for k in (2, 3) * 50:
        B, C = rng.standard_normal((2, k, k))
        scale = np.sqrt(10.0 ** rng.uniform(-4, 6, k))
        gram_a = (B @ B.T + 0.1 * np.eye(k)) * np.outer(scale, scale)
        gram_m = C @ C.T + 0.1 * np.eye(k)
        inverse = np.linalg.inv(np.linalg.cholesky(gram_m))
        values = np.linalg.eigvalsh(inverse @ gram_a @ inverse.T)
        coef = np.array(fem._ritz(gram_a.tolist(), gram_m.tolist()))
        assert coef[0] >= 0.0
        # both are backward stable: they agree to the rounding of the top
        ritz = (coef @ gram_a @ coef) / (coef @ gram_m @ coef)
        assert abs(ritz - values[0]) <= 1e-13 * values[-1]
    assert fem._ritz([[1.0, 0.0], [0.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]]) is None

    # so the multilevel eigen solve loads no LAPACK code
    def refused(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("cholesky", "inv", "eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(fem.np.linalg, name, refused)
    mesh = msh.refine(msh.generate_domain("square", target_h=0.2, side=1.0))
    assert fem.solve_robin_eigen(mesh, 1.0)[0] > 0.0


def test_lobpcg_drops_a_dependent_step_and_refuses_a_collapsed_basis(monkeypatch):
    mesh = msh.refine(msh.generate_domain("square", target_h=0.2, side=1.0))
    lam = fem.solve_robin_eigen(mesh, 1.0)[0]
    cholesky = fem._cholesky

    def dependent_above(size):
        def factor(gram):
            return None if len(gram) > size else cholesky(gram)
        return factor

    # without the last step p, LOBPCG is preconditioned steepest descent
    monkeypatch.setattr(fem, "_cholesky", dependent_above(2))
    assert fem.solve_robin_eigen(mesh, 1.0)[0] == pytest.approx(lam, rel=1e-10)
    monkeypatch.setattr(fem, "_cholesky", dependent_above(1))
    with pytest.raises(fem.SolverConvergenceError, match="basis collapsed"):
        fem.solve_robin_eigen(mesh, 1.0)


def _bits(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


@pytest.mark.parametrize("route", ["multilevel", "direct"])
@pytest.mark.parametrize("beta", [1e-8, 1.0, 1e8])
def test_in_place_solver_updates_match_fresh_arrays(route, beta, monkeypatch):
    # LOBPCG's p = c1 w + c2 p and x = c0 x + p in place, and the refinement
    # step's residual in CG's vectors, against the same sums into new
    # arrays: the same eigenpair and solution bit for bit, also through a
    # step whose basis drops p
    mesh = msh.refine(msh.generate_domain("square", target_h=0.15, side=1.0))
    if route == "direct":
        mesh = msh.MeasuredMesh(mesh.vertices, mesh.triangles, mesh.boundary_edges)
    system = fem.assemble(fem.RobinProblem(mesh=mesh, beta=beta))
    lu = fem.robin_solver(mesh, system, beta)
    name, A, precondition = fem._eigen_route(system, beta, lu)
    assert name == route
    M = fem.mass_matrix(mesh, system.pattern)

    def mass(y):
        return system.matvec(M, y)

    start = precondition(mass(np.ones(len(mesh.vertices)))).copy()
    cholesky = fem._cholesky

    def dropping(at):
        # _cholesky, taking the at-th 3 x 3 Gram matrix as dependent
        def factor(gram):
            sizes.append(len(gram))
            return None if len(gram) == 3 and sizes.count(3) == at else cholesky(gram)
        sizes = []
        return factor, sizes

    for at in (None, 1):
        factor, sizes = dropping(at)
        monkeypatch.setattr(fem, "_cholesky", factor)
        got = fem._lobpcg(route, A, precondition, mass, start.copy())
        # the second step drops p, and from beta = 1 on later steps take it
        # up again; the direct route's exact solve stops in one step at 1e-8
        assert at is None or sizes[1:3] == [3, 2] or (route, beta) == ("direct", 1e-8)
        monkeypatch.setattr(fem, "_cholesky", dropping(at)[0])
        assert _bits(*got) == _bits(*lobpcg_allocating(A, precondition, mass, start.copy()))
    if route == "multilevel":
        b = system.load
        assert _bits(lu.solve(b)) == _bits(multilevel_solve_allocating(lu, b))
