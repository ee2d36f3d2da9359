"""P1 finite elements for the Robin problems on a measured mesh.

Assembly produces the stiffness, boundary mass, and load of the weak Robin
formulation from the P1 element kernel of the mesh module (chart areas,
``basis_gradients``, ``dirichlet_weighted``, ``edge_midpoints``); the
interior mass matrix, which only the eigen solve reads, is built there by
:func:`mass_matrix`.  In two dimensions the Dirichlet integrand is
conformally invariant, so for the flat and stereographic charts the
stiffness is the plain chart stiffness; warped charts carry the full
sqrt(det g) g^{-1} weight, frozen per triangle at the centroid.  Mass and
load use the density-weighted edge-midpoint rule, the boundary mass a
2-point Gauss rule per edge; both are exact for linear fields with linear
densities.

Each triangle's contributions are summed per vertex and per edge of the
mesh's edge table, and the sums fill one CSC pattern
(``MeasuredMesh.matrix_pattern``) that the matrices share.  One value per
edge makes every matrix exactly symmetric.  The boundary mass is nonzero
only on the slots where boundary vertices and edges couple, and it is kept
as its values on those slots.

Both solvers use one direct factorization of the SPD Robin matrix
K + beta B at every mesh size, a sparse LU without pivoting.  K + beta B is
K with beta B added at the boundary slots, and it goes to SuperLU as built,
with a panel of 2 columns in place of SuperLU's 20: the panel's workspace
grows with rows x panel size, and a 2-D P1 matrix has supernodes too narrow
to use a wide one.  The Poisson solve is one back-substitution, inverse
power iteration one per round, and a caller needing both passes them the
same assembly and factor.

The matrices are numpy data arrays on the pattern, and a matrix handed to
SuperLU is its CSC triple (data, indices, indptr).  Of scipy this module
uses two compiled functions, SuperLU's ``gstrf`` and the CSC mat-vec, and
it loads their extension modules from their files in the installed scipy.
Importing them through ``scipy.sparse`` would load scipy's array-API layer,
which imports ``numpy.f2py``, ``numpy.testing``, ``numpy.ma`` and
``numpy.random`` besides: about 0.3 s and 30 MB a process.  So a run
imports no scipy subpackage.
"""

import ctypes
import importlib.machinery
import importlib.util
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .mesh import (
    MatrixPattern,
    MeasuredMesh,
    MeshFormatError,
    ScalarField,
    edge_midpoints,
    load_mesh,
    read_json_object,
)

_EIGEN_MAX_ITERS = 400

# the 2-point Gauss nodes on [0, 1]
_GAUSS2 = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))

# SuperLU's panel: the columns one update sweeps together, whose dense
# workspace takes rows x panel size.  Wide panels pay off for the wide
# supernodes of 3-D problems; the narrow supernodes of a 2-D P1 matrix gain
# nothing from them.  Against SuperLU's default of 20, measured on squares,
# disks and S^2 caps of 5k-80k vertices: the same ordering and fill, a
# factor up to a third faster (the 79k disk unchanged), and 6 MB (21k) to
# 22 MB (80k) less workspace.  A panel of 1 saves under 1 MB more, but it
# factored the 79k disk, whose separators make wide supernodes, slower than
# the default.
_PANEL_SIZE = 2

# what scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A",
# diag_pivot_thresh=0.0, panel_size=_PANEL_SIZE,
# options={"SymmetricMode": True}) hands to SuperLU
_SUPERLU_OPTIONS = {"DiagPivotThresh": 0.0, "ColPerm": "MMD_AT_PLUS_A",
                    "PanelSize": _PANEL_SIZE, "Relax": None, "SymmetricMode": True}


def _scipy_extension(name):
    """The compiled module ``name`` of the installed scipy, found by its file
    location: the finder reads one directory and imports none of scipy's
    packages.  The module registers under its own name, so a later public
    import of it shares it."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError(f"robinsym needs scipy for {name}", name="scipy")
    where = os.path.join(scipy_spec.submodule_search_locations[0],
                         *name.split(".")[1:-1])
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"no extension module {name} in {where}", name=name, path=where)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stop_blas_pool(extension):
    """Stop the thread pool of the OpenBLAS that ``extension`` links, if it
    links one.  OpenBLAS starts its pool when it loads, and an idle worker
    spins a core for about 0.1 s before it sleeps, which would overlap the
    start of a run on a 2-core machine.  SuperLU's BLAS calls here, up to
    80k vertices, never use the pool; OpenBLAS restarts it on its first
    threaded call, so no result depends on this."""
    stop = getattr(ctypes.CDLL(extension.__file__), "blas_thread_shutdown_", None)
    if stop is not None:
        stop()


_superlu = _scipy_extension("scipy.sparse.linalg._dsolve._superlu")
_sparsetools = _scipy_extension("scipy.sparse._sparsetools")
_stop_blas_pool(_superlu)
gstrf = _superlu.gstrf


class SingularGeometryError(ValueError):
    """A triangle's metric determinant underflows; the chart is unusable."""


class SolverConvergenceError(RuntimeError):
    """Inverse power iteration missed its tolerance within the round cap."""


class SingularSystemError(RuntimeError):
    """The sparse factorization met an exactly singular Robin matrix."""


class EigenSignError(RuntimeError):
    """The computed ground state changes sign (discretization failure)."""


def _check_beta(beta):
    if not (beta > 0.0) or not math.isfinite(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")


@dataclass(frozen=True)
class RobinProblem:
    """Robin boundary problem data; ``source=None`` is the unit torsion source."""

    mesh: MeasuredMesh
    beta: float
    source: ScalarField | None = None

    def __post_init__(self):
        _check_beta(self.beta)
        if self.source is not None:
            if self.source.mesh is not self.mesh:
                raise ValueError("source field lives on a different mesh")
            vals = self.source.values
            scale = float(np.max(np.abs(vals))) or 1.0
            if float(np.min(vals)) < -1e-12 * scale:
                raise ValueError("source must be non-negative")
            if float(np.max(vals)) <= 0.0:
                raise ValueError("source must not vanish identically")

    def source_values(self) -> np.ndarray:
        if self.source is None:
            return np.ones(len(self.mesh.vertices))
        return np.maximum(self.source.values, 0.0)


@dataclass(frozen=True)
class AssembledSystem:
    """The weak Robin form on one mesh, what a factor of K + beta B and a
    Poisson solve read: the stiffness K, a data array on the mesh's
    :meth:`~robinsym.mesh.MeasuredMesh.matrix_pattern`; the boundary mass B
    as its values on the slots where it can be nonzero, the diagonal slots
    of the boundary vertices and both slots of each boundary edge, in slot
    order; and the load.  The mass matrix is not here: the eigen solve
    builds it with :func:`mass_matrix`.  Nothing here depends on beta."""

    pattern: MatrixPattern
    stiffness: np.ndarray
    boundary_slots: np.ndarray  # ascending slots of the pattern
    boundary_values: np.ndarray  # B at those slots
    load: np.ndarray

    def matvec(self, matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The product of ``matrix``, a data array on the pattern, with the
        float vector x: scipy's CSC mat-vec, the one ``csc_matrix @ x``
        runs.  The compiled loop reads the arrays unchecked, so their sizes
        are checked here."""
        n, slots = len(self.load), self.pattern.indices.shape
        matrix = np.ascontiguousarray(matrix, dtype=float)
        x = np.ascontiguousarray(x, dtype=float)
        if matrix.shape != slots or x.shape != (n,):
            raise ValueError(f"matvec takes {slots[0]} matrix values and a vector of "
                             f"{n}, got {matrix.shape} and {x.shape}")
        y = np.zeros(n)
        _sparsetools.csc_matvec(n, n, self.pattern.indptr, self.pattern.indices, matrix, x, y)
        return y

    def boundary_matvec(self, x: np.ndarray) -> np.ndarray:
        """B x from the boundary slots, bit for bit what :meth:`matvec` gives
        for B's full data array: the CSC mat-vec adds each slot's value times
        x at its column to y at its row, slot after slot, and the slots left
        out add exact zeros."""
        slots = self.boundary_slots
        columns = np.searchsorted(self.pattern.indptr, slots, side="right") - 1
        return _sum_per_index(self.pattern.indices[slots], self.boundary_values * x[columns],
                              len(self.load))

    def robin_matrix(self, beta: float):
        """K + beta B as a CSC triple (data, indices, indptr) without
        explicit zeros: the stiffness of an edge opposite two right angles is
        exactly 0, and a stored zero there would only add fill to the
        factor.  beta must be positive and finite, as for
        :class:`RobinProblem`: at 0 the matrix is the singular Neumann one."""
        _check_beta(beta)
        data = self.stiffness.copy()
        data[self.boundary_slots] += beta * self.boundary_values
        keep = data != 0.0
        # the kept slots per column; every column of the pattern holds its
        # diagonal slot, so reduceat sees no empty segment
        indptr = np.zeros(len(self.pattern.indptr), dtype=np.int32)
        np.cumsum(np.add.reduceat(keep, self.pattern.indptr[:-1], dtype=np.int32),
                  out=indptr[1:])
        return data[keep], self.pattern.indices[keep], indptr


def _check_metric(mesh: MeasuredMesh):
    # per-triangle density is sqrt(det g) up to the conformal square; a
    # vanishing value is the underflow signal either way
    rho = mesh.centroid_density()
    if not np.all(np.isfinite(rho)) or float(np.min(rho)) < 1e-150:
        k = int(np.argmin(rho))
        raise SingularGeometryError(
            f"triangle {k}: metric determinant underflows (density {rho[k]:.3e})"
        )


def _sum_per_index(index, values, n) -> np.ndarray:
    """``np.bincount(index, values, n)``: each index's values summed in
    order from 0.0, without the intp copy bincount makes of an int32 index."""
    out = np.zeros(n)
    np.add.at(out, index, values)
    return out


def _plus_previous(values, out):
    """values + values[:, [2, 0, 1]] into ``out``, a column at a time."""
    for i in range(3):
        np.add(values[:, (i + 2) % 3], values[:, i], out=out[:, i])


def mass_matrix(mesh: MeasuredMesh, pattern: MatrixPattern) -> np.ndarray:
    """The mass matrix of the density-weighted edge-midpoint rule, a data
    array on ``pattern``, the mesh's matrix pattern.  phi_i is 1/2 at the
    midpoints i (of edge i, i+1) and i-1 and 0 at the third, so the local
    mass is area/3 times rho/4 at the shared midpoint off the diagonal and
    at both adjacent ones on it."""
    tris = mesh.triangles
    third = mesh.chart_areas()[:, None] / 3.0
    quarter = edge_midpoints(mesh.density[tris])
    quarter *= 0.25
    local = np.empty_like(quarter)
    _plus_previous(quarter, local)
    local *= third  # (quarter + quarter[:, [2, 0, 1]]) * third
    diag = np.bincount(tris.ravel(), local.ravel(), len(mesh.vertices))
    del local
    quarter *= third
    return pattern.data(diag, _sum_per_index(pattern.half_edge, quarter.ravel(),
                                             len(pattern.upper)))


def assemble(problem: RobinProblem) -> AssembledSystem:
    """Stiffness, boundary mass, and load of the weak Robin form; the mass
    matrix is left to the eigen solve.  The (M, 3) element values share one
    buffer, filled in place in the order of operations of the element
    formulas."""
    mesh = problem.mesh
    _check_metric(mesh)
    tris = mesh.triangles
    corners = tris.ravel()
    nv = len(mesh.vertices)
    area = mesh.chart_areas()[:, None]
    pattern = mesh.matrix_pattern()
    n_edges = len(pattern.upper)

    # per triangle, (M, 3) values at the corners or on the half-edges ab,
    # bc, ca, summed per vertex or per edge
    def per_vertex(local):
        return np.bincount(corners, local.ravel(), nv)

    def per_edge(local):
        return _sum_per_index(pattern.half_edge, local.ravel(), n_edges)

    # area (W g_i).g_j, with j = i on the diagonal and j = i + 1 on half-edge
    # i: one value per triangle side makes K exactly symmetric
    grads = mesh.basis_gradients()
    weighted = mesh.dirichlet_weighted(grads)
    local = weighted[..., 0] * grads[..., 0]
    local += weighted[..., 1] * grads[..., 1]
    local *= area
    k_diag = per_vertex(local)
    for i in range(3):
        j = (i + 1) % 3
        np.multiply(weighted[:, i, 0], grads[:, j, 0], out=local[:, i])
        local[:, i] += weighted[:, i, 1] * grads[:, j, 1]
    del grads, weighted
    local *= area
    stiffness = pattern.data(k_diag, per_edge(local))

    # the load: third * (0.5 * (g_mid + g_mid[:, [2, 0, 1]])) per corner
    g_mid = edge_midpoints(problem.source_values()[tris])
    g_mid *= edge_midpoints(mesh.density[tris])
    _plus_previous(g_mid, local)
    del g_mid
    local *= 0.5
    local *= area / 3.0
    load = per_vertex(local)
    del local

    # boundary mass, 2-point Gauss per edge on the arclength parameter: at
    # each boundary vertex the sum over its edges, on each boundary edge
    # the edge's own value, both slots of the edge alike
    edges = mesh.boundary_edges
    lengths = mesh.boundary_chart_lengths()
    sigma = mesh.boundary_density
    b00 = np.zeros(len(edges))
    b01 = np.zeros(len(edges))
    b11 = np.zeros(len(edges))
    for t in _GAUSS2:
        st = sigma[:, 0] * (1.0 - t) + sigma[:, 1] * t
        b00 += 0.5 * (1.0 - t) ** 2 * st
        b01 += 0.5 * (1.0 - t) * t * st
        b11 += 0.5 * t**2 * st
    at_ends = np.column_stack([lengths * b00, lengths * b11])
    vertices = mesh.boundary_vertices
    off = lengths * b01
    slots = np.concatenate([pattern.diag[vertices], pattern.upper[pattern.boundary],
                            pattern.lower[pattern.boundary]])
    values = np.concatenate([np.bincount(edges.ravel(), at_ends.ravel(), nv)[vertices],
                             off, off])
    order = np.argsort(slots)

    return AssembledSystem(pattern=pattern, stiffness=stiffness, boundary_slots=slots[order],
                           boundary_values=values[order], load=load)


def _csc_triple(arrays, shape):
    # SuperLU builds its L and U factors on request through this; they come
    # back in this module's matrix form, the triple (data, indices, indptr)
    return arrays


def factor_robin(A):
    """Sparse LU of an SPD Robin matrix K + beta B, the solvers' ``lu``:
    minimum-degree ordering of A + A^T, diagonal pivots only, and panels of
    2 columns, which change neither the ordering nor the fill but shrink
    SuperLU's workspace.  ``A`` is a CSC triple (data, indices, indptr)
    with int32 indices, rows sorted and unique in each column, as
    :meth:`AssembledSystem.robin_matrix` builds it."""
    data, indices, indptr = A
    n = len(indptr) - 1
    try:
        return gstrf(n, len(data), data, indices, indptr, csc_construct_func=_csc_triple,
                     ilu=False, options=_SUPERLU_OPTIONS)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularSystemError(f"Robin matrix on {n} dof: {exc}") from exc


def solve_robin_poisson(problem: RobinProblem, system: AssembledSystem | None = None,
                        lu=None) -> ScalarField:
    """Weak solution of -div(grad u) = f with the Robin boundary condition;
    ``system`` and ``lu`` default to the problem's assembly and factor."""
    if system is None:
        system = assemble(problem)
    if lu is None:
        lu = factor_robin(system.robin_matrix(problem.beta))
    u = lu.solve(system.load)
    if float(np.min(u)) <= 0.0:
        warnings.warn("solution is not strictly positive; mesh too coarse",
                      RuntimeWarning, stacklevel=2)
    return ScalarField(mesh=problem.mesh, values=u)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b in numpy's own loop.  A BLAS dot of a mesh-sized vector runs on
    the thread pool, which can stall it and makes its sum depend on the
    thread count."""
    return float(np.einsum("i,i->", a, b))


def solve_robin_eigen(mesh: MeasuredMesh, beta: float,
                      system: AssembledSystem | None = None, lu=None):
    """Smallest Robin eigenpair by inverse power iteration, zero shift.

    Returns (lambda, eigenfield) with the field positive and normalized to
    max = 1; eigenvalue tolerance 1e-9 relative.  ``system`` and ``lu`` may
    be those of a Poisson solve at the same (mesh, beta), whatever its load.
    The mass matrix is built here, after the factor, by :func:`mass_matrix`.
    """
    _check_beta(beta)
    if system is None:
        system = assemble(RobinProblem(mesh=mesh, beta=beta))
    if lu is None:
        lu = factor_robin(system.robin_matrix(beta))
    K, M = system.stiffness, mass_matrix(mesh, system.pattern)
    matvec = system.matvec

    def energy(x):  # x.(K + beta B)x, without building K + beta B again
        return _dot(x, matvec(K, x)) + beta * _dot(x, system.boundary_matvec(x))

    x = np.ones(len(system.load))
    x /= math.sqrt(_dot(x, matvec(M, x)))
    Mx = matvec(M, x)
    lam = energy(x)
    for _ in range(_EIGEN_MAX_ITERS):
        y = lu.solve(Mx)
        y /= math.sqrt(_dot(y, matvec(M, y)))
        Mx = matvec(M, y)  # M x for the next round, x = y
        lam_new = energy(y) / _dot(y, Mx)
        x = y
        if abs(lam_new - lam) <= 1e-9 * abs(lam_new):
            lam = lam_new
            break
        lam = lam_new
    else:
        raise SolverConvergenceError(
            f"inverse power iteration missed 1e-9 in {_EIGEN_MAX_ITERS} rounds"
        )

    if x[int(np.argmax(np.abs(x)))] < 0.0:
        x = -x
    # stiff beta on non-acute meshes dips a few boundary values slightly
    # negative (the Robin block is not an M-matrix); that shrinks under
    # refinement, while a genuinely signed state is negative at unit scale
    if float(np.min(x)) < -1e-3 * float(np.max(x)):
        raise EigenSignError("computed ground state changes sign")
    x = np.maximum(x, 0.0)
    x /= float(np.max(x))
    return lam, ScalarField(mesh=mesh, values=x)


# ---------------------------------------------------------------------------
# field export


def save_field(field: ScalarField, path: str, mesh_ref: str):
    """JSON form {"mesh_ref": ..., "values": [...]}; floats round-trip."""
    obj = {"mesh_ref": str(mesh_ref),
           "values": [float(v) for v in field.values]}
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_field(path: str) -> ScalarField:
    """Read a field written by :func:`save_field`; mesh_ref resolves
    relative to the field file's directory.  The file is read by
    :func:`~robinsym.mesh.read_json_object`, and a file that cannot be
    opened is a MeshFormatError too."""

    def parse(obj):
        ref = obj["mesh_ref"]
        if not os.path.isabs(ref):
            ref = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        return ref, np.asarray(obj["values"], dtype=float)

    try:
        ref, values = read_json_object(path, parse)
    except OSError as exc:
        raise MeshFormatError(f"unreadable field file {path}: {exc}") from exc
    return ScalarField(mesh=load_mesh(ref), values=values)
