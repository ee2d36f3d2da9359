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
mesh's edge table, straight into the slots of one CSC pattern
(``MeasuredMesh.matrix_pattern``) that the matrices share.  One value per
edge makes every matrix exactly symmetric.  The triangles go in blocks of
the mesh module's BLOCK rows, so the element values are a block long, and
every sum still adds its terms in triangle order.  The boundary mass is
nonzero only on the slots where boundary vertices and edges couple, and it
is kept as its values on those slots.

The solvers of the SPD Robin matrix K + beta B, which is K with beta B
added at the boundary slots, follow the mesh (:func:`robin_solver`).  A
mesh that no refinement made gets one direct factorization, a sparse LU
without pivoting: the matrix goes to SuperLU as built, with a panel of 2
columns in place of SuperLU's 20, since the panel's workspace grows with
rows x panel size and a 2-D P1 matrix has supernodes too narrow to use a
wide one.  There the Poisson solve is one back-substitution.  A mesh made
by :func:`~robinsym.mesh.refine` gets a :class:`RobinHierarchy` over its
refine chain: the nested P1 spaces give a V-cycle (Bramble-Pasciak-Xu)
with the first mesh's factor as its coarse solve, which preconditions CG
for the Poisson solve, at a cost linear in the mesh.  The last solver
built from a refined mesh's assembly takes over its stiffness's buffer
for its K + beta B (:meth:`AssembledSystem.hand_over`), so that the level
holds each mesh-sized array once.  Either solver has ``solve(b)``, and a
caller needing both solves passes them the same assembly and solver; a
Poisson solve on a solver built before reads the assembly's load alone
(:meth:`AssembledSystem.load_only`).  The eigen solve is LOBPCG (Knyazev)
on either route, preconditioned by the factor's exact solve or by one
V-cycle.  CG and LOBPCG update their vectors in place, and log their
route, steps and final residual at DEBUG.

The matrices are numpy data arrays on the pattern, and a matrix handed to
SuperLU or a hierarchy is its CSC triple (data, indices, indptr).  Of
scipy this module uses two compiled functions, SuperLU's ``gstrf`` and the
CSC mat-vec, and it loads their extension modules from their files in the
installed scipy.  Importing them through ``scipy.sparse`` would load
scipy's array-API layer, which imports ``numpy.f2py``, ``numpy.testing``,
``numpy.ma`` and ``numpy.random`` besides: about 0.3 s and 30 MB a
process.  So a run imports no scipy subpackage.
"""

import ctypes
import importlib.machinery
import importlib.util
import json
import math
import os
import logging
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .mesh import (
    MatrixPattern,
    MeasuredMesh,
    MeshFormatError,
    ScalarField,
    _blocks,
    edge_midpoints,
    load_mesh,
    read_json_object,
)

_LOG = logging.getLogger(__name__)

# the multilevel route, chosen on L1-L3 of squares, disks, S^2 caps and
# warped cones for beta from 1e-8 to 1e8: CG's relative residual, that of
# its one refinement step, and its step cap; the least relative fall of
# LOBPCG's Ritz value in a step, and its step cap, which the direct route
# shares; the ratio of the ends of the Chebyshev smoother's interval; the
# cap on the Jacobi sweeps of LOBPCG's 3 x 3 Rayleigh-Ritz step, which
# converge quadratically
_CG_TOL = 1e-10
_REFINE_TOL = 1e-5
_CG_MAX_ITERS = 200
_LOBPCG_TOL = 1e-13
_LOBPCG_MAX_ITERS = 200
_SMOOTH_RANGE = 6.0
_JACOBI_SWEEPS = 50

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
    """An iterative solve, CG, LOBPCG or the Jacobi rotations of LOBPCG's
    Rayleigh-Ritz step, missed its tolerance within its step cap, or
    LOBPCG's basis collapsed."""


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
    builds it with :func:`mass_matrix`.  Nothing here depends on beta,
    until :meth:`hand_over` gives the stiffness's buffer to a solver."""

    pattern: MatrixPattern
    stiffness: np.ndarray
    boundary_slots: np.ndarray  # ascending slots of the pattern
    boundary_values: np.ndarray  # B at those slots
    load: np.ndarray
    taken: bool = False  # set by hand_over: K + beta B overwrites the stiffness

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
        return _csc_matvec((matrix, self.pattern.indices, self.pattern.indptr), x)

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
        return self._robin(beta)[0]

    def _robin(self, beta: float):
        """:meth:`robin_matrix` and the diagonal of K + beta B, read at the
        pattern's diagonal slots, from one pass over blocks of BLOCK
        columns.  An assembly from :meth:`hand_over` builds the matrix in the
        stiffness's own buffer: beta B goes into the boundary slots, and each
        block's nonzeros move down in place, never past the block's own
        slots.  Any other assembly adds beta B to a copy of each block and
        fills new arrays, sized by the count of nonzero slots: the
        stiffness's, with the boundary slots counted from their sums.  Either
        way no temporary is larger than a block, and the row array is new."""
        _check_beta(beta)
        indptr, indices, diag = self.pattern.indptr, self.pattern.indices, self.pattern.diag
        slots, stiffness = self.boundary_slots, self.stiffness
        sums = stiffness[slots] + beta * self.boundary_values
        if self.taken:
            stiffness[slots] = sums
            data, size = stiffness, np.count_nonzero(stiffness)
        else:
            size = (np.count_nonzero(stiffness) - np.count_nonzero(stiffness[slots])
                    + np.count_nonzero(sums))
            data = np.empty(size)
        n = len(indptr) - 1
        # the kept slots per column; every column of the pattern holds its
        # diagonal slot, so reduceat sees no empty segment
        kept = np.zeros(n + 1, dtype=np.int32)
        rows = np.empty(size, dtype=np.int32)
        diagonal = np.empty(n)
        done = 0
        for cols in _blocks(n):
            start, stop = indptr[cols.start], indptr[cols.stop]
            block = stiffness[start:stop]
            if not self.taken:
                first, last = np.searchsorted(slots, (start, stop))
                block = block.copy()
                block[slots[first:last] - start] = sums[first:last]
            diagonal[cols] = block[diag[cols] - start]
            keep = block != 0.0
            np.add.reduceat(keep, indptr[cols] - start, dtype=np.int32,
                            out=kept[cols.start + 1:cols.stop + 1])
            count = np.count_nonzero(keep)
            data[done:done + count] = block[keep]
            rows[done:done + count] = indices[start:stop][keep]
            done += count
        np.cumsum(kept, out=kept)
        return (data[:size], rows, kept), diagonal

    def hand_over(self) -> tuple["AssembledSystem", "AssembledSystem"]:
        """This assembly split for the last solver built from it: the first
        half is for :func:`robin_solver`, whose refined level takes over the
        stiffness's buffer for K + beta B (:meth:`_robin`); the second, the
        pattern and the load, takes this one's place, since the eigen solve
        on a :class:`RobinHierarchy` reads the pattern for the mass matrix
        and the Poisson solve the load.  So no assembly reads the buffer as
        K once it holds K + beta B.  The direct route's LOBPCG reads K, so a
        mesh that no refinement made keeps its assembly whole."""
        return (replace(self, taken=True),
                AssembledSystem(pattern=self.pattern, stiffness=None, boundary_slots=None,
                                boundary_values=None, load=self.load))

    def products_only(self) -> "AssembledSystem":
        """This assembly with its pattern cut to indptr and indices, all
        that its mat-vecs read: a caller that builds no more matrices on the
        pattern frees its slot arrays, the diagonal, upper and lower slots,
        by holding this in its place."""
        pattern = MatrixPattern(self.pattern.indptr, self.pattern.indices,
                                None, None, None, None, None)
        return replace(self, pattern=pattern)

    def load_only(self) -> "AssembledSystem":
        """This assembly with its load alone, all that a Poisson solve on a
        solver built before reads: a caller done with the matrices frees
        them by holding this in its place."""
        return AssembledSystem(pattern=None, stiffness=None, boundary_slots=None,
                               boundary_values=None, load=self.load)


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


def _half_edges(rows: slice) -> slice:
    """The half-edges ab, bc, ca of the triangles in ``rows``."""
    return slice(3 * rows.start, 3 * rows.stop)


def mass_matrix(mesh: MeasuredMesh, pattern: MatrixPattern) -> np.ndarray:
    """The mass matrix of the density-weighted edge-midpoint rule, a data
    array on ``pattern``, the mesh's matrix pattern.  phi_i is 1/2 at the
    midpoints i (of edge i, i+1) and i-1 and 0 at the third, so the local
    mass is area/3 times rho/4 at the shared midpoint off the diagonal and
    at both adjacent ones on it.  The triangles go in blocks, as in
    :func:`assemble`."""
    tris = mesh.triangles
    mass = np.zeros(len(pattern.indices))
    for rows in _blocks(len(tris)):
        third = mesh.chart_areas()[rows, None] / 3.0
        quarter = edge_midpoints(mesh.density[tris[rows]])
        quarter *= 0.25
        local = np.empty_like(quarter)
        _plus_previous(quarter, local)
        local *= third  # (quarter + quarter[:, [2, 0, 1]]) * third
        np.add.at(mass, pattern.diag[tris[rows].ravel()], local.ravel())
        del local
        quarter *= third
        np.add.at(mass, pattern.upper[pattern.half_edge[_half_edges(rows)]], quarter.ravel())
    pattern.mirror(mass)
    return mass


def assemble(problem: RobinProblem) -> AssembledSystem:
    """Stiffness, boundary mass, and load of the weak Robin form; the mass
    matrix is left to the eigen solve.

    The triangles go in blocks of the mesh module's BLOCK rows: a block's
    (m, 3) element values are formed in the order of operations of the
    element formulas and added at once into the stiffness's diagonal slot
    of each corner or upper slot of each half-edge's edge, and into the
    load, so every sum adds its terms in triangle order, as one
    ``np.bincount`` over all triangles would."""
    mesh = problem.mesh
    _check_metric(mesh)
    tris = mesh.triangles
    nv = len(mesh.vertices)
    pattern = mesh.matrix_pattern()
    source = problem.source_values()
    stiffness, load = np.zeros(len(pattern.indices)), np.zeros(nv)

    for rows in _blocks(len(tris)):
        # per triangle, (m, 3) values at the corners or on the half-edges
        # ab, bc, ca, summed per vertex or per edge
        corners = tris[rows].ravel()
        area = mesh.chart_areas()[rows, None]

        # area (W g_i).g_j, with j = i on the diagonal and j = i + 1 on
        # half-edge i: one value per triangle side makes K exactly symmetric
        grads = mesh.basis_gradients(rows)
        weighted = mesh.dirichlet_weighted(grads, rows)
        local = weighted[..., 0] * grads[..., 0]
        local += weighted[..., 1] * grads[..., 1]
        local *= area
        np.add.at(stiffness, pattern.diag[corners], local.ravel())
        for i in range(3):
            j = (i + 1) % 3
            np.multiply(weighted[:, i, 0], grads[:, j, 0], out=local[:, i])
            local[:, i] += weighted[:, i, 1] * grads[:, j, 1]
        del grads, weighted
        local *= area
        np.add.at(stiffness, pattern.upper[pattern.half_edge[_half_edges(rows)]], local.ravel())

        # the load: third * (0.5 * (g_mid + g_mid[:, [2, 0, 1]])) per corner
        g_mid = edge_midpoints(source[tris[rows]])
        g_mid *= edge_midpoints(mesh.density[tris[rows]])
        _plus_previous(g_mid, local)
        del g_mid
        local *= 0.5
        local *= area / 3.0
        np.add.at(load, corners, local.ravel())
    pattern.mirror(stiffness)

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


def _csc_matvec(A, x, out=None) -> np.ndarray:
    """A x for the CSC triple A = (data, indices, indptr) of a square matrix
    and the float vector x, into ``out``, a float vector of the same size,
    when given.  The compiled loop reads x unchecked, so its size is checked
    here."""
    data, indices, indptr = A
    n = len(indptr) - 1
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"a matrix of {n} columns takes a vector of {n}, got {x.shape}")
    if out is None:
        out = np.zeros(n)
    else:
        out.fill(0.0)
    _sparsetools.csc_matvec(n, n, indptr, indices, data, x, out)
    return out


class _Level(NamedTuple):
    """One refined level of a :class:`RobinHierarchy`."""

    matrix: tuple  # K + beta B as a CSC triple, which is also its CSR triple
    diagonal: np.ndarray  # its diagonal, the Jacobi smoother's
    parents: np.ndarray  # (E, 2) int32, the parent pair of each midpoint on the level below
    smoother: tuple  # the Chebyshev smoother's three coefficients


def _level(system: AssembledSystem, beta: float, parents) -> _Level:
    """The level of K + beta B from its assembly, with no temporary larger
    than a block: the matrix and its diagonal come from
    :meth:`AssembledSystem._robin`, and the absolute column sums a block of
    columns at a time."""
    matrix, diagonal = system._robin(beta)
    data, _, indptr = matrix
    # Gershgorin: no eigenvalue of D^-1 A passes its largest absolute row
    # sum, a column sum here, the matrix being symmetric
    top = float(np.max([
        np.max(np.add.reduceat(np.abs(data[indptr[cols.start]:indptr[cols.stop]]),
                               indptr[cols] - indptr[cols.start]) / diagonal[cols])
        for cols in _blocks(len(diagonal))]))
    # the degree-2 Chebyshev recurrence on [top / _SMOOTH_RANGE, top], of
    # centre theta and half-width delta (Saad, Iterative Methods, 12.3)
    theta = 0.5 * top * (1.0 + 1.0 / _SMOOTH_RANGE)
    delta = 0.5 * top * (1.0 - 1.0 / _SMOOTH_RANGE)
    rho0 = delta / theta
    rho1 = 1.0 / (2.0 / rho0 - rho0)
    return _Level(matrix, diagonal, parents, (1.0 / theta, 2.0 * rho1 / delta, 1.0 + rho1 * rho0))


class RobinHierarchy:
    """K + beta B on a mesh made by :func:`~robinsym.mesh.refine` and on
    each coarser mesh of its refine chain, for a V-cycle: per refined level
    the Robin matrix, its diagonal and the parent pairs of its midpoints,
    coarsest first, over the direct factor of the chain's first mesh.

    :meth:`solve` is the factor's ``solve``: conjugate gradients
    preconditioned by one V-cycle per step.  The V-cycle smooths with a
    degree-2 Chebyshev polynomial in D^-1 A before and after the coarse
    correction, over [top / _SMOOTH_RANGE, top] with ``top`` a Gershgorin
    bound, and the same polynomial on both sides keeps it symmetric.  P1
    prolongation keeps a coarse vertex's value and gives a midpoint its
    parents' mean; restriction is its transpose.  A solve allocates the
    vectors of its V-cycles and of CG once, and every step reuses them."""

    def __init__(self, coarse, levels: tuple = ()):
        self.coarse = coarse  # the first mesh's factor
        self.levels = levels

    def refined(self, system: AssembledSystem, beta: float, parents) -> "RobinHierarchy":
        """The hierarchy of the mesh one refinement above, whose assembly is
        ``system``."""
        return RobinHierarchy(self.coarse, self.levels + (_level(system, beta, parents),))

    def matvec(self, x, out=None) -> np.ndarray:
        """(K + beta B) x on the finest level, into ``out`` when given."""
        return _csc_matvec(self.levels[-1].matrix, x, out)

    def _cg(self, b, tol: float, vcycle, work):
        """CG on (K + beta B) x = b from zero, to the relative residual tol
        of its recurrence: x, the steps and the recurrence's residual norm.
        ``work`` holds the residual, the direction, its product and a
        scratch vector; b may be the residual vector itself."""
        x = np.zeros(len(b))
        r, p, q, scaled = work
        r[:] = b
        stop = tol * math.sqrt(_dot(r, r))
        z = vcycle(r)
        p[:] = z
        rz = _dot(r, z)
        for step in range(1, _CG_MAX_ITERS + 1):
            self.matvec(p, q)
            alpha = rz / _dot(p, q)
            x += np.multiply(p, alpha, out=scaled)
            r -= np.multiply(q, alpha, out=scaled)
            res = math.sqrt(_dot(r, r))
            if res <= stop:
                return x, step, res
            z = vcycle(r)
            rz, rz_old = _dot(r, z), rz
            p *= rz / rz_old
            p += z
        raise SolverConvergenceError(f"multilevel CG missed {tol:g} in {_CG_MAX_ITERS} steps")

    def solve(self, b) -> np.ndarray:
        """(K + beta B)^-1 b: CG to the relative residual _CG_TOL, then one
        step of refinement, CG on the true residual to _REFINE_TOL.  CG's
        recurrence drifts from the true residual by the rounding of its
        first, largest steps; the refinement step's are small."""
        n = len(self.levels[-1].diagonal)
        b = np.asarray(b, dtype=float)
        if b.shape != (n,):
            raise ValueError(f"a system of {n} unknowns takes a vector of {n}, got {b.shape}")
        vcycle, work = _VCycle(self), np.empty((4, n))
        x, steps, _ = self._cg(b, _CG_TOL, vcycle, work)
        # the true residual, formed in CG's own residual vector
        r, _, q, _ = work
        np.subtract(b, self.matvec(x, q), out=r)
        dx, more, res = self._cg(r, _REFINE_TOL, vcycle, work)
        x += dx
        _LOG.debug("multilevel CG on %d dof: %d + %d iterations, relative residual %.3e",
                   len(b), steps, more, res / math.sqrt(_dot(b, b)))
        return x


class _VCycle:
    """One V-cycle of a :class:`RobinHierarchy` from zero, as a callable on
    the residual, with four vectors per level allocated once: x, r, d and
    y, which every call reuses.  A call returns the finest level's x, which
    holds until the next call."""

    def __init__(self, hierarchy: RobinHierarchy):
        self.hierarchy = hierarchy
        self.scratch = [tuple(np.empty(len(level.diagonal)) for _ in range(4))
                        for level in hierarchy.levels]

    def __call__(self, r) -> np.ndarray:
        return self._cycle(len(self.scratch) - 1, r)

    @staticmethod
    def _smooth(level: _Level, r, d, y):
        """The Chebyshev correction p(D^-1 A) D^-1 r for the residual r into
        d: a Jacobi step d, then d's residual folded in, formed in y."""
        first, second, keep = level.smoother
        np.divide(r, level.diagonal, out=d)
        d *= first
        r1 = np.subtract(r, _csc_matvec(level.matrix, d, y), out=y)
        r1 /= level.diagonal
        r1 *= second
        d *= keep
        d += r1

    def _cycle(self, depth: int, b) -> np.ndarray:
        if depth < 0:
            return self.hierarchy.coarse.solve(b)
        level = self.hierarchy.levels[depth]
        x, r, d, y = self.scratch[depth]
        parents = level.parents
        n, m = len(b) - len(parents), len(parents)
        self._smooth(level, b, x, y)
        np.subtract(b, _csc_matvec(level.matrix, x, y), out=r)
        # restriction: r at the coarse vertices, plus half of r at each
        # midpoint summed per parent, one parent at a time, into r itself
        half = np.multiply(r[n:], 0.5, out=d[:m])
        rc, summed = r[:n], y[:n]
        for i in range(2):
            summed.fill(0.0)
            np.add.at(summed, parents[:, i], half)
            rc += summed
        xc = self._cycle(depth - 1, rc)
        x[:n] += xc
        # prolongation: the parents' mean at each midpoint; the parents
        # are coarse vertices, so "clip" clips nothing and writes into out
        # unbuffered
        mean = np.take(xc, parents[:, 0], out=d[:m], mode="clip")
        mean += np.take(xc, parents[:, 1], out=y[:m], mode="clip")
        mean *= 0.5
        x[n:] += mean
        np.subtract(b, _csc_matvec(level.matrix, x, y), out=r)
        self._smooth(level, r, d, y)
        x += d
        return x


def robin_solver(mesh: MeasuredMesh, system: AssembledSystem, beta: float, coarse=None):
    """The solver of K + beta B on ``mesh`` from its assembly ``system``:
    the direct factor on a mesh that no refinement made, and on a refined
    mesh the :class:`RobinHierarchy` over its refine chain.  ``coarse`` is
    the solver on ``mesh.coarse`` at the same beta, when the caller holds
    it; otherwise each coarser mesh is assembled here, and only the first
    is factored."""
    if mesh.coarse is None:
        return factor_robin(system.robin_matrix(beta))
    if coarse is None:
        below = mesh.coarse
        coarse = robin_solver(below, assemble(RobinProblem(mesh=below, beta=beta)), beta)
    if not isinstance(coarse, RobinHierarchy):
        coarse = RobinHierarchy(coarse)
    return coarse.refined(system, beta, mesh.parents)


def solve_robin_poisson(problem: RobinProblem, system: AssembledSystem | None = None,
                        lu=None) -> ScalarField:
    """Weak solution of -div(grad u) = f with the Robin boundary condition;
    ``system`` and ``lu`` default to the problem's assembly and its
    :func:`robin_solver`."""
    if system is None:
        system = assemble(problem)
    if lu is None:
        lu = robin_solver(problem.mesh, system, problem.beta)
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


def _cholesky(gram) -> list | None:
    """The lower Cholesky factor of the small symmetric matrix ``gram``
    (nested lists), or None where a pivot is not positive: the basis the
    Gram matrix is taken of is then too close to dependent."""
    k = len(gram)
    L = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            s = gram[i][j] - sum(L[i][m] * L[j][m] for m in range(j))
            if i > j:
                L[i][j] = s / L[j][j]
            elif s > 0.0:
                L[i][i] = math.sqrt(s)
            else:
                return None
    return L


def _forward(L, b) -> list:
    """L^-1 b for the lower triangular L."""
    y = []
    for i, row in enumerate(L):
        y.append((b[i] - sum(row[m] * y[m] for m in range(i))) / row[i])
    return y


def _lowest_eigenvector(a) -> list:
    """The eigenvector of the least eigenvalue of the small symmetric matrix
    ``a`` (nested lists, overwritten) by cyclic Jacobi rotations (Golub and
    Van Loan, 8.5), which converge quadratically; a rotation is skipped
    once its entry is below the rounding of both diagonal entries."""
    k = len(a)
    v = [[float(i == j) for j in range(k)] for i in range(k)]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = a[p][q]
                tiny = 100.0 * abs(apq)
                if abs(a[p][p]) + tiny == abs(a[p][p]) and abs(a[q][q]) + tiny == abs(a[q][q]):
                    continue
                rotated = True
                theta = 0.5 * (a[q][q] - a[p][p]) / apq
                t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for r in range(k):
                    if r != p and r != q:
                        arp, arq = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = c * arp - s * arq
                        a[r][q] = a[q][r] = s * arp + c * arq
                    vrp, vrq = v[r][p], v[r][q]
                    v[r][p] = c * vrp - s * vrq
                    v[r][q] = s * vrp + c * vrq
        if not rotated:
            low = min(range(k), key=lambda i: a[i][i])
            return [row[low] for row in v]
    raise SolverConvergenceError(f"Jacobi rotations missed a {k} x {k} eigenvector "
                                 f"in {_JACOBI_SWEEPS} sweeps")


def _ritz(gram_a, gram_m) -> list | None:
    """The coefficients of the least Ritz vector of the small pencil
    (gram_a, gram_m), in scalar Python: a Cholesky factor L of gram_m, the
    least eigenvector y of L^-1 gram_a L^-T, and L^-T y, with the first
    coefficient not negative.  None where gram_m has no Cholesky factor."""
    L = _cholesky(gram_m)
    if L is None:
        return None
    k = len(L)
    half = [_forward(L, column) for column in gram_a]  # the columns of L^-1 gram_a
    pencil = [_forward(L, [half[i][j] for i in range(k)]) for j in range(k)]
    y = _lowest_eigenvector([[0.5 * (pencil[i][j] + pencil[j][i]) for j in range(k)]
                             for i in range(k)])
    coef = [0.0] * k
    for i in reversed(range(k)):
        coef[i] = (y[i] - sum(L[m][i] * coef[m] for m in range(i + 1, k))) / L[i][i]
    return coef if coef[0] >= 0.0 else [-c for c in coef]


def _lobpcg(route: str, A, precondition, mass, x) -> tuple:
    """The smallest eigenpair of (K + beta B) x = lambda M x by LOBPCG of
    block size 1 (Knyazev 2001), from the start x; ``A`` is
    x -> (K + beta B) x, ``precondition`` an approximate or exact solve
    with K + beta B, ``mass`` x -> M x, and ``route`` names the solver in
    the DEBUG record.  Each step is a Rayleigh-Ritz step on x, the
    preconditioned residual w and the last step p, each of unit M-norm, by
    :func:`_ritz`; p is dropped for a step whose basis is too close to
    dependent for a Cholesky factor of its Gram matrix.  The 3 x 3 algebra
    runs in scalar Python, so that the run loads no LAPACK code and its
    rounding does not follow the BLAS build.  It stops once the Ritz value
    falls by at most _LOBPCG_TOL relative in a step: a residual test would
    never stop for beta near 0, where the rounding of A x outweighs
    lambda M x, and the Ritz value is exact to the square of the residual.
    lambda is then x's Rayleigh quotient."""
    Mx = mass(x)
    scale = 1.0 / math.sqrt(_dot(x, Mx))
    x = x * scale
    Mx *= scale
    Ax = A(x)
    lam = _dot(x, Ax)
    p = None
    for step in range(1, _LOBPCG_MAX_ITERS + 1):
        w = precondition(Ax - lam * Mx)
        Mw = mass(w)
        scale = 1.0 / math.sqrt(_dot(w, Mw))
        w *= scale
        Mw *= scale
        basis = [(x, Ax, Mx), (w, A(w), Mw)]
        if p is not None:
            basis.append(p)
        gram_a = [[_dot(u[0], v[1]) for v in basis] for u in basis]
        gram_m = [[_dot(u[0], v[2]) for v in basis] for u in basis]
        for k in range(len(basis), 1, -1):
            coef = _ritz([row[:k] for row in gram_a[:k]], [row[:k] for row in gram_m[:k]])
            if coef is not None:
                break
        else:
            raise SolverConvergenceError(f"LOBPCG basis collapsed at step {step}")
        # the new step p = c1 w + c2 p, the part of the new x off the old
        # x, and then x = c0 x + p, per product and in place; w is the
        # V-cycle's own vector, which its next call overwrites, so p never
        # takes w's place
        if p is None:
            p = tuple(np.empty_like(w_m) for w_m in basis[1])
        for x_m, w_m, p_m in zip(basis[0], basis[1], p):
            if k == 3:
                p_m *= coef[2]
                w_m *= coef[1]
                p_m += w_m
            else:
                np.multiply(w_m, coef[1], out=p_m)
            x_m *= coef[0]
            x_m += p_m
        del basis
        scale = 1.0 / math.sqrt(_dot(x, Mx))
        x *= scale
        Ax *= scale
        Mx *= scale
        scale = 1.0 / math.sqrt(_dot(p[0], p[2]))
        for part in p:
            part *= scale
        lam, last = _dot(x, Ax), lam
        if last - lam <= _LOBPCG_TOL * lam:
            break
    else:
        raise SolverConvergenceError(
            f"{route} LOBPCG missed {_LOBPCG_TOL:g} in {_LOBPCG_MAX_ITERS} steps")
    Ax, Mx = A(x), mass(x)
    lam = _dot(x, Ax) / _dot(x, Mx)
    r = Ax - lam * Mx
    _LOG.debug(f"{route} LOBPCG on %d dof: %d iterations, relative residual %.3e",
               len(x), step, math.sqrt(_dot(r, r) / _dot(Mx, Mx)) / lam)
    return lam, x


def _eigen_route(system: AssembledSystem, beta: float, lu) -> tuple:
    """What :func:`_lobpcg` runs with the solver ``lu`` of K + beta B: the
    route's name, x -> (K + beta B) x and the preconditioner.  A
    :class:`RobinHierarchy` gives its finest matrix and one V-cycle; the
    direct factor gives its exact solve, with K x + beta B x read from the
    assembly, so that no second K + beta B is built."""
    if isinstance(lu, RobinHierarchy):
        return "multilevel", lu.matvec, _VCycle(lu)

    def operator(x):
        return system.matvec(system.stiffness, x) + beta * system.boundary_matvec(x)

    return "direct", operator, lu.solve


def solve_robin_eigen(mesh: MeasuredMesh, beta: float,
                      system: AssembledSystem | None = None, lu=None, mass=None):
    """Smallest Robin eigenpair by :func:`_lobpcg` on every mesh, from one
    preconditioned solve on M 1, a rough torsion function: preconditioned
    by the direct factor's solve, which is exact, or by one V-cycle of a
    :class:`RobinHierarchy`.

    Returns (lambda, eigenfield) with the field positive and normalized to
    max = 1.  ``system`` and ``lu`` may be those of a Poisson solve at the
    same (mesh, beta), whatever its load, and ``lu`` defaults to the
    :func:`robin_solver`.  The mass matrix is built here, after the solver,
    by :func:`mass_matrix`, unless the caller built it on the system's
    pattern and passes it as ``mass``: the system may then be
    :meth:`AssembledSystem.products_only`.
    """
    _check_beta(beta)
    if system is None:
        system = assemble(RobinProblem(mesh=mesh, beta=beta))
    if lu is None:
        lu = robin_solver(mesh, system, beta)
    M = mass_matrix(mesh, system.pattern) if mass is None else mass
    del mass
    route, operator, precondition = _eigen_route(system, beta, lu)
    start = precondition(system.matvec(M, np.ones(len(system.load))))
    lam, x = _lobpcg(route, operator, precondition, lambda y: system.matvec(M, y), start)
    return lam, _ground_state(mesh, x)


def _ground_state(mesh: MeasuredMesh, x) -> ScalarField:
    """The eigenvector x as the positive ground state of max 1."""
    if x[int(np.argmax(np.abs(x)))] < 0.0:
        x = -x
    # stiff beta on non-acute meshes dips a few boundary values slightly
    # negative (the Robin block is not an M-matrix); that shrinks under
    # refinement, while a genuinely signed state is negative at unit scale
    if float(np.min(x)) < -1e-3 * float(np.max(x)):
        raise EigenSignError("computed ground state changes sign")
    x = np.maximum(x, 0.0)
    x /= float(np.max(x))
    return ScalarField(mesh=mesh, values=x)


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
