"""Finite element assembly and Robin solvers."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from robinsym import fem
from robinsym import mesh as msh
from robinsym import model_geometry as mg

from radial_oracles import flat_torsion_profile

# first Robin eigenvalue of the unit disk, beta = 1 (root of k J1(k) = J0(k),
# squared); independently pinned in the radial tests
_DISK_EIGEN_B1 = 1.5769927308134737
# Dirichlet limit: square of the first zero of J0
_J01_SQ = 2.404825557695773**2
# spherical cap theta = 1, beta = 1, from the radial solver
_CAP_EIGEN_B1 = 1.4459779225320972
# unit square at 21,025 vertices, beta = 1: the inverse iteration's value
# when its solves ran Jacobi-CG to 1e-10 relative residual
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


def test_unit_square_mass_and_stiffness():
    system = fem.assemble(fem.RobinProblem(mesh=_unit_square(), beta=1.0))
    assert abs(system.mass.sum() - 1.0) < 1e-12
    assert np.max(np.abs(system.stiffness @ np.ones(4))) < 1e-12
    # perimeter of the unit square
    assert abs(system.boundary_mass.sum() - 4.0) < 1e-12


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
        A = system.robin_matrix(1.0)
        # one value per edge: exact symmetry, also for the warped weight,
        # whose (W g_i).g_j and (W g_j).g_i round apart
        for mat in (system.stiffness, system.mass, system.boundary_mass, A):
            assert (mat != mat.T).nnz == 0
        for _ in range(10):
            x = rng.normal(size=len(m.vertices))
            assert float(x @ (system.stiffness @ x)) > -1e-12 * float(x @ x)
            assert float(x @ (A @ x)) > 0.0


@pytest.mark.parametrize("name", sorted(_KERNEL_MESHES))
def test_assembly_matches_coo_reference(name):
    m = _KERNEL_MESHES[name]()
    vals = 1.0 + m.vertices[:, 0] ** 2
    problem = fem.RobinProblem(mesh=m, beta=2.0, source=msh.ScalarField(mesh=m, values=vals))
    system = fem.assemble(problem)
    A = system.robin_matrix(2.0)  # builds on the shared pattern, changing no matrix
    ref_k, ref_m, ref_b, ref_load = _coo_assembly(problem)
    for got, ref in ((system.stiffness, ref_k), (system.mass, ref_m),
                     (system.boundary_mass, ref_b), (A, ref_k + 2.0 * ref_b)):
        assert got.format == "csc"
        assert abs(got - ref).max() <= 1e-14 * abs(ref).max()
    assert np.max(np.abs(system.load - ref_load)) <= 1e-14 * np.max(np.abs(ref_load))


def test_shared_pattern_is_read_only():
    system = fem.assemble(fem.RobinProblem(mesh=_disk(0.3), beta=1.0))
    indices = system.stiffness.indices
    for mat in (system.mass, system.boundary_mass):
        assert np.shares_memory(mat.indices, indices)
    # an in-place change of one matrix's pattern would corrupt the others
    with pytest.raises(ValueError):
        system.boundary_mass.eliminate_zeros()


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
    # the hypotenuse stiffness is exactly 0 and stays out of the factor's input
    assert A.format == "csc"
    assert np.count_nonzero(A.data) == A.nnz == 104_545
    # 11.6 MB measured; summing COO triplets into CSR took 30.1 MB
    assert peak < 16e6


def test_mass_total_matches_measure():
    cap = msh.generate_domain("spherical_cap", target_h=0.15, theta=1.0)
    system = fem.assemble(fem.RobinProblem(mesh=cap, beta=1.0))
    assert system.mass.sum() == pytest.approx(cap.total_measure(), rel=1e-12)
    assert system.boundary_mass.sum() == pytest.approx(
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
    res = system.robin_matrix(1.0) @ u.values - system.load
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
        lhs = beta * float(u.values @ (system.boundary_mass @ ones))
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


def test_rayleigh_quotient_consistency():
    m = _disk(0.07)
    lam, u = fem.solve_robin_eigen(m, beta=1.0)
    system = fem.assemble(fem.RobinProblem(mesh=m, beta=1.0))
    x = u.values
    quotient = float(x @ (system.robin_matrix(1.0) @ x)) / float(
        x @ (system.mass @ x))
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


def test_eigen_above_20k_dof_on_the_shared_factor(monkeypatch):
    m = msh.generate_domain("square", target_h=0.04, side=1.0)
    m = msh.refine(msh.refine(m))
    assert len(m.vertices) > 20_000
    factored = []
    splu = fem.splu

    def counted(*args, **kwargs):
        factored.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(fem, "splu", counted)
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
    res = system.robin_matrix(1.0) @ u.values - lam * (system.mass @ u.values)
    scale = float(np.linalg.norm(system.mass @ u.values))
    # the 1e-9 eigenvalue stop bounds the vector residual only to its root
    assert float(np.linalg.norm(res)) <= 1e-4 * lam * scale


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
