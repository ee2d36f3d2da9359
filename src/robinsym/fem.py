"""P1 finite elements for the Robin problems on a measured mesh.

Assembly produces the stiffness, interior mass, boundary mass, and load of
the weak Robin formulation from the P1 element kernel of the mesh module
(chart areas, ``basis_gradients``, ``dirichlet_weighted``,
``edge_midpoints``).  In two dimensions the Dirichlet integrand is
conformally invariant, so for the flat and stereographic charts the
stiffness is the plain chart stiffness; warped charts carry the full
sqrt(det g) g^{-1} weight, frozen per triangle at the centroid.  Mass and
load use the density-weighted edge-midpoint rule, the boundary mass a
2-point Gauss rule per edge; both are exact for linear fields with linear
densities.

Each triangle's contributions are summed per vertex and per edge of the
mesh's edge table, and the sums fill one CSC pattern
(``MeasuredMesh.matrix_pattern``) that the three matrices share.  One value
per edge makes every matrix exactly symmetric.

Both solvers use one direct factorization of the SPD Robin matrix
K + beta B at every mesh size, a sparse LU without pivoting.  K + beta B is
added on that pattern and goes to SuperLU as built.  The Poisson solve is
one back-substitution, inverse power iteration one per round, and a caller
needing both passes them the same assembly and factor.
"""

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh import (
    MeasuredMesh,
    MeshFormatError,
    ScalarField,
    edge_midpoints,
    load_mesh,
)

_EIGEN_MAX_ITERS = 400


class SingularGeometryError(ValueError):
    """A triangle's metric determinant underflows; the chart is unusable."""


class SolverConvergenceError(RuntimeError):
    """Inverse power iteration missed its tolerance within the round cap."""


class SingularSystemError(RuntimeError):
    """The sparse factorization met an exactly singular Robin matrix."""


class EigenSignError(RuntimeError):
    """The computed ground state changes sign (discretization failure)."""


@dataclass(frozen=True)
class RobinProblem:
    """Robin boundary problem data; ``source=None`` is the unit torsion source."""

    mesh: MeasuredMesh
    beta: float
    source: ScalarField | None = None

    def __post_init__(self):
        if not (self.beta > 0.0) or not math.isfinite(self.beta):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
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
    """The weak Robin form on one mesh; the three matrices are CSC on the
    mesh's :meth:`~robinsym.mesh.MeasuredMesh.matrix_pattern` and share its
    index arrays.  Nothing here depends on beta."""

    stiffness: sp.csc_matrix
    mass: sp.csc_matrix
    boundary_mass: sp.csc_matrix
    load: np.ndarray

    def robin_matrix(self, beta: float) -> sp.csc_matrix:
        """K + beta B in CSC form without explicit zeros: the stiffness of an
        edge opposite two right angles is exactly 0, and a stored zero there
        would only add fill to the factor."""
        data = self.stiffness.data + beta * self.boundary_mass.data
        keep = data != 0.0
        kept = np.concatenate(([0], np.cumsum(keep)))
        return sp.csc_matrix(
            (data[keep], self.stiffness.indices[keep], kept[self.stiffness.indptr]),
            shape=self.stiffness.shape)


def _check_metric(mesh: MeasuredMesh):
    # per-triangle density is sqrt(det g) up to the conformal square; a
    # vanishing value is the underflow signal either way
    rho = mesh.centroid_density()
    if not np.all(np.isfinite(rho)) or float(np.min(rho)) < 1e-150:
        k = int(np.argmin(rho))
        raise SingularGeometryError(
            f"triangle {k}: metric determinant underflows (density {rho[k]:.3e})"
        )


def assemble(problem: RobinProblem) -> AssembledSystem:
    """Stiffness, mass, boundary mass, and load of the weak Robin form."""
    mesh = problem.mesh
    _check_metric(mesh)
    tris = mesh.triangles
    nv = len(mesh.vertices)
    area = mesh.chart_areas()
    pattern = mesh.matrix_pattern()
    n_edges = len(pattern.upper)

    def matrix(diag, off):
        return sp.csc_matrix((pattern.data(diag, off), pattern.indices, pattern.indptr),
                             shape=(nv, nv))

    def element_matrix(diag, off):
        # per triangle, (M, 3) values at the corners and on the half-edges
        # ab, bc, ca, summed per vertex and per edge
        return matrix(np.bincount(tris.ravel(), diag.ravel(), nv),
                      np.bincount(pattern.half_edge, off.ravel(), n_edges))

    # area (W g_i).g_j, with j = i on the diagonal and j = i + 1 on half-edge
    # i: one value per triangle side makes K exactly symmetric
    grads = mesh.basis_gradients()
    weighted = mesh.dirichlet_weighted(grads)
    nxt = [1, 2, 0]
    k_diag = weighted[..., 0] * grads[..., 0] + weighted[..., 1] * grads[..., 1]
    k_off = weighted[..., 0] * grads[:, nxt, 0] + weighted[..., 1] * grads[:, nxt, 1]
    del grads, weighted
    stiffness = element_matrix(k_diag * area[:, None], k_off * area[:, None])

    # phi_i is 1/2 at the midpoints i (of edge i, i+1) and i-1 and 0 at the
    # third, so the local mass is area/3 times rho/4 at the shared midpoint
    # off the diagonal and at both adjacent ones on it
    third = (area / 3.0)[:, None]
    rho_mid = edge_midpoints(mesh.density[tris])
    quarter = 0.25 * rho_mid
    mass = element_matrix((quarter + np.roll(quarter, 1, axis=1)) * third,
                          quarter * third)
    g_mid = edge_midpoints(problem.source_values()[tris]) * rho_mid
    load_local = third * (0.5 * (g_mid + np.roll(g_mid, 1, axis=1)))
    load = np.bincount(tris.ravel(), load_local.ravel(), nv)

    # boundary mass, 2-point Gauss per edge on the arclength parameter
    edges = mesh.boundary_edges
    lengths = mesh.boundary_chart_lengths()
    sigma = mesh.boundary_density
    t_nodes = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
    b00 = np.zeros(len(edges))
    b01 = np.zeros(len(edges))
    b11 = np.zeros(len(edges))
    for t in t_nodes:
        st = sigma[:, 0] * (1.0 - t) + sigma[:, 1] * t
        b00 += 0.5 * (1.0 - t) ** 2 * st
        b01 += 0.5 * (1.0 - t) * t * st
        b11 += 0.5 * t**2 * st
    at_ends = np.column_stack([lengths * b00, lengths * b11])
    boundary_mass = matrix(np.bincount(edges.ravel(), at_ends.ravel(), nv),
                           np.bincount(pattern.boundary, lengths * b01, n_edges))

    return AssembledSystem(stiffness=stiffness, mass=mass,
                           boundary_mass=boundary_mass, load=load)


def factor_robin(A: sp.csc_matrix):
    """Sparse LU of an SPD Robin matrix K + beta B, the solvers' ``lu``:
    minimum-degree ordering of A + A^T, diagonal pivots only.  ``A`` is
    factored as given, so it must be CSC."""
    try:
        return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularSystemError(
            f"Robin matrix on {A.shape[0]} dof: {exc}") from exc


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


def solve_robin_eigen(mesh: MeasuredMesh, beta: float,
                      system: AssembledSystem | None = None, lu=None):
    """Smallest Robin eigenpair by inverse power iteration, zero shift.

    Returns (lambda, eigenfield) with the field positive and normalized to
    max = 1; eigenvalue tolerance 1e-9 relative.  ``system`` and ``lu`` may
    be those of a Poisson solve at the same (mesh, beta), whatever its load.
    """
    if system is None:
        system = assemble(RobinProblem(mesh=mesh, beta=beta))
    A = system.robin_matrix(beta)
    if lu is None:
        lu = factor_robin(A)
    M = system.mass

    x = np.ones(A.shape[0])
    x /= math.sqrt(float(x @ (M @ x)))
    lam = float(x @ (A @ x))
    for _ in range(_EIGEN_MAX_ITERS):
        y = lu.solve(M @ x)
        y /= math.sqrt(float(y @ (M @ y)))
        lam_new = float(y @ (A @ y)) / float(y @ (M @ y))
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
    relative to the field file's directory."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MeshFormatError(f"unreadable field file {path}: {exc}") from exc
    if not isinstance(obj, dict) or "mesh_ref" not in obj or "values" not in obj:
        raise MeshFormatError("field file needs 'mesh_ref' and 'values'")
    ref = obj["mesh_ref"]
    if not os.path.isabs(ref):
        ref = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
    mesh = load_mesh(ref)
    values = np.asarray(obj["values"], dtype=float)
    return ScalarField(mesh=mesh, values=values)
