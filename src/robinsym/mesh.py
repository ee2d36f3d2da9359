"""Measured triangle meshes on 2-D charts.

A mesh lives in a planar chart and carries the metric through densities: a
per-vertex area density and per-edge boundary length densities.  Three chart
geometries are supported:

* ``flat``: the chart is the domain, densities are 1 (or user supplied);
* ``sphere_stereographic``: stereographic chart of the unit round sphere,
  area density 4/(1+|x|^2)^2, length density 2/(1+|x|^2);
* ``warped``: rotationally symmetric surface with metric dr^2 + psi(r)^2
  dtheta^2 pulled back to Cartesian chart coordinates; the area density is
  psi(r)/r and lengths depend on direction.

Generators produce structured meshes for disks, squares, spherical caps and
annulus sectors, and ear-clipping plus midpoint refinement for general simple
polygons.  Meshes serialize to a small JSON schema.
"""

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class MeshFormatError(ValueError):
    """A mesh file or mesh arrays cannot be parsed into a mesh."""


class MeshInvariantError(ValueError):
    """A structural mesh invariant fails; names the check and the element."""


class DegenerateGeometryError(ValueError):
    """Requested domain parameters produce degenerate or out-of-chart geometry."""


GEOMETRIES = ("flat", "sphere_stereographic", "warped")

# stereographic charts must stay away from the antipode of the chart center
CHART_RADIUS_CAP = 10.0

# generators shrink their structural step so no edge (including diagonals)
# exceeds the requested target_h
_H_SAFETY = 0.7

# the most vertices a mesh may be asked to have, about 26 times the 80k-vertex
# meshes of the benchmarks: a runaway target_h or refinement count stops here
# and not in the allocator
MAX_VERTICES = 2**21


# ---------------------------------------------------------------------------
# warped rotationally symmetric surfaces


@dataclass(frozen=True)
class WarpedSurfaceSpec:
    """A catalog rotationally symmetric surface, metric dr^2 + psi(r)^2 dtheta^2.

    Catalog entries (0 < c <= 1):

    * ``cone``: psi(r) = c*r.  Flat away from the (conical) vertex, exact
      asymptotic volume ratio c, and the extremal case of the weighted
      isoperimetric inequality.
    * ``smoothed_cone``: psi(r) = c*r + (1-c)*(1 - exp(-r)).  Smooth at the
      origin (psi'(0) = 1), nonnegative curvature everywhere (psi'' <= 0),
      exact asymptotic volume ratio c.
    """

    name: str
    c: float

    def __post_init__(self):
        if self.name not in ("cone", "smoothed_cone"):
            raise DegenerateGeometryError(f"unknown warped surface {self.name!r}")
        if not (0.0 < self.c <= 1.0):
            raise DegenerateGeometryError(
                f"warp parameter c must lie in (0, 1], got {self.c}"
            )

    @property
    def avr(self) -> float:
        """Asymptotic volume ratio lim |B_r| / (pi r^2), exact for the catalog."""
        return self.c

    def psi(self, r):
        r = np.asarray(r, dtype=float)
        if self.name == "cone":
            return self.c * r
        return self.c * r - (1.0 - self.c) * np.expm1(-r)

    def d2psi(self, r):
        r = np.asarray(r, dtype=float)
        if self.name == "cone":
            return np.zeros_like(r)
        return -(1.0 - self.c) * np.exp(-r)

    def chart_area_density(self, r):
        """psi(r)/r with its r -> 0 limit filled in."""
        r = np.asarray(r, dtype=float)
        if self.name == "cone":
            return np.full_like(r, self.c)
        small = r < 1e-7
        rs = np.where(small, 1.0, r)
        out = self.c - (1.0 - self.c) * np.expm1(-rs) / rs
        return np.where(small, self.c + (1.0 - self.c) * (1.0 - 0.5 * r), out)

    def curvature_proxy(self, r):
        """Gauss curvature -psi''/psi (0/0 at the origin resolved by limit)."""
        r = np.asarray(r, dtype=float)
        psi = self.psi(np.maximum(r, 1e-12))
        return -self.d2psi(r) / np.maximum(psi, 1e-300)

    def to_json(self):
        return {"name": self.name, "c": self.c}


def warped_profile(name: str, c: float) -> WarpedSurfaceSpec:
    """Catalog constructor for warped surfaces."""
    return WarpedSurfaceSpec(name=name, c=c)


# ---------------------------------------------------------------------------
# chart metric helpers


def area_density(geometry: str, warp, points) -> np.ndarray:
    """Per-point metric area density in chart coordinates."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if geometry == "flat":
        return np.ones(len(pts))
    if geometry == "sphere_stereographic":
        return 4.0 / (1.0 + np.sum(pts**2, axis=1)) ** 2
    return warp.chart_area_density(np.hypot(pts[:, 0], pts[:, 1]))


def length_factor(geometry: str, warp, points, directions) -> np.ndarray:
    """Metric length per unit chart length at ``points`` along unit ``directions``."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if geometry == "flat":
        return np.ones(len(pts))
    if geometry == "sphere_stereographic":
        return 2.0 / (1.0 + np.sum(pts**2, axis=1))
    dirs = np.asarray(directions, dtype=float).reshape(-1, 2)
    r = np.hypot(pts[:, 0], pts[:, 1])
    safe = np.maximum(r, 1e-300)
    radial = (pts[:, 0] * dirs[:, 0] + pts[:, 1] * dirs[:, 1]) / safe
    radial = np.where(r < 1e-12, 1.0, radial)  # any direction works at the tip
    w = warp.chart_area_density(r)  # psi/r
    t2 = np.clip(radial**2, 0.0, 1.0)
    return np.sqrt(t2 + w**2 * (1.0 - t2))


def warped_metric_tensors(warp, points) -> np.ndarray:
    """Per-point 2x2 arrays sqrt(det g) * g^{-1} for the warped chart metric.

    This is the weight of the Dirichlet integrand in chart coordinates; it
    equals the identity for conformal charts and
    (psi/r) * rhat rhat^T + (r/psi) * that that^T here.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    r = np.hypot(pts[:, 0], pts[:, 1])
    w = warp.chart_area_density(r)  # psi/r -> 1 or c at the tip
    safe = np.maximum(r, 1e-300)
    rhat = np.where(r[:, None] < 1e-12, np.array([1.0, 0.0]), pts / safe[:, None])
    that = np.stack([-rhat[:, 1], rhat[:, 0]], axis=1)
    out = (
        w[:, None, None] * rhat[:, :, None] * rhat[:, None, :]
        + (1.0 / w)[:, None, None] * that[:, :, None] * that[:, None, :]
    )
    return out


# ---------------------------------------------------------------------------
# the mesh


class MeasuredMesh:
    """Conforming triangulation of a chart domain with measure densities.

    Parameters
    ----------
    vertices : (N, 2) array
        Chart coordinates.
    triangles : (M, 3) int array
        Vertex indices, counterclockwise in the chart.
    boundary_edges : (K, 2) int array
        Directed boundary edges with the domain on the left.
    geometry : str
        One of ``flat``, ``sphere_stereographic``, ``warped``.
    warp : WarpedSurfaceSpec, optional
        Required exactly when geometry is ``warped``.
    density : (N,) array, optional
        Per-vertex area density; computed from the geometry when omitted.

    A mesh made by :func:`refine` keeps the mesh it refined as ``coarse``,
    None on any other mesh.  The P1 space of ``coarse`` is then a subspace
    of this one, and :attr:`parents` gives the parent pair of each midpoint.
    """

    def __init__(self, vertices, triangles, boundary_edges, geometry="flat",
                 warp=None, density=None, *, _edges=None, _coarse=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        if geometry not in GEOMETRIES:
            raise MeshFormatError(f"unknown geometry {geometry!r}")
        if (geometry == "warped") != (warp is not None):
            raise MeshFormatError("warp spec required iff geometry is 'warped'")
        self.geometry = geometry
        self.warp = warp
        if density is None:
            self.density = area_density(geometry, warp, self.vertices)
            self._custom_density = False
        else:
            self.density = np.ascontiguousarray(density, dtype=float)
            ref = area_density(geometry, warp, self.vertices)
            self._custom_density = not (
                self.density.shape == ref.shape and np.allclose(self.density, ref, rtol=1e-12, atol=1e-12)
            )
        self._edges = _edges  # the triangulation's table, when the caller has it
        self.coarse = _coarse
        self.validate()
        _, at_tail, at_head = self._length_factors(self.boundary_edges)
        self.boundary_density = np.stack([at_tail, at_head], axis=1)

    # -- structure ---------------------------------------------------------

    @property
    def parents(self) -> np.ndarray | None:
        """The (E, 2) int32 parent pair of each midpoint, the vertices after
        the coarse mesh's, on a mesh made by :func:`refine`; None on any
        other.  It is read off the coarse mesh's edge table on each call,
        so a mesh does not hold it."""
        if self.coarse is None:
            return None
        return _midpoint_parents(self.coarse._edges).astype(np.int32)

    def validate(self):
        v, t, b = self.vertices, self.triangles, self.boundary_edges
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise MeshInvariantError(f"vertices: expected (N>=3, 2) array, got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3 or len(t) < 1:
            raise MeshInvariantError(f"triangles: expected (M>=1, 3) array, got {t.shape}")
        if b.ndim != 2 or b.shape[1] != 2 or len(b) < 3:
            raise MeshInvariantError(f"boundary_edges: expected (K>=3, 2) array, got {b.shape}")
        if not np.all(np.isfinite(v)):
            raise MeshInvariantError("finite: vertices contain non-finite values")
        if t.min() < 0 or t.max() >= len(v):
            raise MeshInvariantError("index-range: triangle index out of range")
        if b.min() < 0 or b.max() >= len(v):
            raise MeshInvariantError("index-range: boundary edge index out of range")
        # a vertex off every triangle has no equation in the P1 system, and
        # fields are ranked by their vertex values as the corners' values
        used = np.zeros(len(v), dtype=bool)
        used[t] = True
        unused = np.flatnonzero(~used)
        if len(unused):
            raise MeshInvariantError(f"vertex-used: vertex {unused[0]} lies on no triangle")

        areas = _signed_areas(v, t)
        bad = np.nonzero(areas <= 0.0)[0]
        if len(bad):
            raise MeshInvariantError(
                f"orientation: triangle {bad[0]} has non-positive chart area {areas[bad[0]]!r}"
            )

        if self.density.shape != (len(v),):
            raise MeshInvariantError("density: wrong shape")
        if not np.all(np.isfinite(self.density)) or np.any(self.density <= 0.0):
            idx = int(np.argmin(self.density))
            raise MeshInvariantError(f"density-positive: vertex {idx} has density {self.density[idx]!r}")

        # conformity: directed interior edges pair up, boundary edges appear once
        n = len(v)
        edges = self._edges if self._edges is not None else _edge_table(t, n)
        forward = np.bincount(edges.edge[(t < t[:, [1, 2, 0]]).ravel()],
                              minlength=len(edges.first))
        repeats = np.nonzero((forward > 1) | (edges.count - forward > 1))[0]
        if len(repeats):
            e = repeats[0]
            lo, hi = sorted(int(x) for x in edges.ends[e])
            key = (lo, hi) if forward[e] > 1 else (hi, lo)
            raise MeshInvariantError(f"edge-conformity: directed edge {key} repeats")
        del forward
        tail, head = edges.boundary.T
        found = np.sort(tail * n + head)
        declared = sorted_unique(b[:, 0] * n + b[:, 1])
        if len(declared) != len(b):
            raise MeshInvariantError("boundary-match: duplicate boundary edge")
        if not np.array_equal(declared, found):
            missing = [divmod(int(k), n) for k in np.setdiff1d(found, declared)[:3]]
            extra = [divmod(int(k), n) for k in np.setdiff1d(declared, found)[:3]]
            raise MeshInvariantError(
                f"boundary-match: declared boundary disagrees with triangulation "
                f"(missing {missing}, extra {extra})"
            )

        # boundary edges must close up into loops
        outdeg = np.bincount(b[:, 0], minlength=n)
        indeg = np.bincount(b[:, 1], minlength=n)
        unchained = np.nonzero((outdeg + indeg > 0) & ((outdeg != 1) | (indeg != 1)))[0]
        if len(unchained):
            raise MeshInvariantError(f"boundary-loops: vertex {unchained[0]} does not chain")

        if self.geometry == "sphere_stereographic":
            rmax = float(np.max(np.hypot(v[:, 0], v[:, 1])))
            if rmax > CHART_RADIUS_CAP:
                raise MeshInvariantError(
                    f"chart-radius: |x| = {rmax:.3f} exceeds the cap {CHART_RADIUS_CAP}"
                )
        if self.geometry == "warped":
            proxy = self.warp.curvature_proxy(np.hypot(v[:, 0], v[:, 1]))
            if np.min(proxy) < -1e-9:
                idx = int(np.argmin(proxy))
                raise MeshInvariantError(
                    f"warp-curvature: vertex {idx} sees curvature {proxy[idx]!r}"
                )

        self._edges = edges
        # the vertex mean, summed left to right as np.mean sums a row of three
        d = self.density
        rho = d[t[:, 0]] + d[t[:, 1]]
        rho += d[t[:, 2]]
        rho /= 3.0
        areas.flags.writeable = rho.flags.writeable = False
        self._chart_areas = areas
        self._centroid_density = rho
        # one rounding of the exact sum (a pairwise sum moved a refined annulus
        # sector's measure in its last bit between levels); the memoryview
        # hands fsum one float at a time
        self._total_measure = math.fsum(memoryview(areas * rho))
        # length_factor sees the direction only through its square, so one
        # orientation per undirected edge measures both half-edges
        ln, at_tail, at_head = self._length_factors(edges.ends)
        np.maximum(at_tail, at_head, out=at_head)
        at_head *= ln
        self._mesh_size = float(np.max(at_head))

    # -- measures ----------------------------------------------------------

    # The P1 element kernel: chart areas, basis gradients, the Dirichlet
    # weight, (with `edge_midpoints`) the edge-midpoint rule, and the
    # matrix pattern the element sums fill.

    def chart_areas(self) -> np.ndarray:
        return self._chart_areas  # read-only, computed once by validate

    def basis_gradients(self) -> np.ndarray:
        """(M, 3, 2) chart gradients of each triangle's three P1 hat
        functions: rot90 of the opposite edge over twice the chart area."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        t = self.triangles
        det = 2.0 * self._chart_areas
        grads = np.empty((len(t), 3, 2))
        for i in range(3):
            a, b = t[:, (i + 1) % 3], t[:, (i + 2) % 3]
            gx, gy = grads[:, i, 0], grads[:, i, 1]
            np.subtract(y[a], y[b], out=gx)
            gx /= det
            np.subtract(x[b], x[a], out=gy)
            gy /= det
        return grads

    def dirichlet_weighted(self, covectors) -> np.ndarray:
        """Per-triangle chart covectors, shape (M, ..., 2), times the
        Dirichlet weight sqrt(det g) g^{-1} frozen at the centroid.  On the
        conformal charts the weight is the identity (the 2-D Dirichlet
        integral is conformally invariant) and the input comes back as is."""
        if self.geometry != "warped":
            return covectors
        weight = warped_metric_tensors(
            self.warp, np.mean(np.take(self.vertices, self.triangles, axis=0), axis=1))
        return np.einsum("t...a,tab->t...b", covectors, weight)

    def matrix_pattern(self) -> "MatrixPattern":
        """The sparsity of the P1 matrices, read off the edge table."""
        return _matrix_pattern(self._edges, len(self.vertices), self.boundary_edges)

    def centroid_density(self) -> np.ndarray:
        """Per-triangle density frozen at the centroid (equals the vertex mean
        for the linear densities used throughout); read-only, computed once
        by validate."""
        return self._centroid_density

    def total_measure(self) -> float:
        """Weighted area, per-triangle quadrature exact for linear density."""
        return self._total_measure

    def boundary_chart_lengths(self) -> np.ndarray:
        return _chart_lengths(self.vertices, self.boundary_edges)

    def boundary_measure(self) -> float:
        """Weighted boundary length: chart length times trapezoidal density."""
        return float(np.sum(self.boundary_chart_lengths() * np.mean(self.boundary_density, axis=1)))

    def mesh_size(self) -> float:
        """Maximum metric edge length; the h of every C*h tolerance model."""
        return self._mesh_size

    def chart_mesh_size(self) -> float:
        return float(np.max(_chart_lengths(self.vertices, self._edges.ends)))

    def _length_factors(self, ends):
        """Chart lengths of the (K, 2) vertex pairs and the length factors at
        their tails and at their heads.  Only the warped chart's factor reads
        the unit direction."""
        a = np.take(self.vertices, ends[:, 0], axis=0)
        b = np.take(self.vertices, ends[:, 1], axis=0)
        seg = b - a
        ln = np.hypot(seg[:, 0], seg[:, 1])
        if self.geometry == "warped":
            seg /= np.maximum(ln, 1e-300)[:, None]
        else:
            seg = None
        at_tail = length_factor(self.geometry, self.warp, a, seg)
        del a
        return ln, at_tail, length_factor(self.geometry, self.warp, b, seg)

    @property
    def boundary_vertices(self) -> np.ndarray:
        return sorted_unique(self.boundary_edges)

    def __repr__(self):
        return (
            f"MeasuredMesh({len(self.vertices)} vertices, {len(self.triangles)} "
            f"triangles, {len(self.boundary_edges)} boundary edges, {self.geometry})"
        )


def edge_midpoints(corners) -> np.ndarray:
    """Values at the edge midpoints 01, 12, 20 of linear functions given by
    their (M, 3) corner values: the nodes of the edge-midpoint rule, area/3
    times the sum, exact for quadratics."""
    out = np.empty(corners.shape)
    for k in range(3):
        np.add(corners[:, k], corners[:, (k + 1) % 3], out=out[:, k])
    out *= 0.5
    return out


def sorted_unique(values) -> np.ndarray:
    """The sorted distinct values, as ``np.unique(values)`` gives them for
    input without NaN.  ``np.unique`` without flags tests for a masked array
    first, and that test imports ``numpy.ma`` on its first call."""
    aux = np.sort(values, axis=None)
    keep = np.empty(len(aux), dtype=bool)
    keep[:1] = True
    np.not_equal(aux[1:], aux[:-1], out=keep[1:])
    return aux[keep]


@dataclass
class ScalarField:
    """Per-vertex sampled scalar function on a mesh."""

    mesh: MeasuredMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (len(self.mesh.vertices),):
            raise MeshFormatError(
                f"field has {self.values.shape} values for {len(self.mesh.vertices)} vertices"
            )
        if not np.all(np.isfinite(self.values)):
            raise MeshFormatError("field contains non-finite values")


# ---------------------------------------------------------------------------
# generation helpers


_NEXT_CORNER = np.array([1, 2, 0], dtype=np.int32)


class _EdgeTable(NamedTuple):
    """Undirected edges of a triangulation, numbered in sorted key order.

    Half-edge 3k + i of triangle k runs from its corner i to its corner
    i + 1 (mod 3), so the half-edges ab, bc, ca come in triangle order.  The
    table keeps the triangles it was read from, which are the mesh's own
    array, and gathers the ends of half-edges from them as they are asked
    for: a (3M, 2) copy would be the largest array a mesh keeps.
    """

    triangles: np.ndarray  # (M, 3) the triangulation itself, not a copy
    edge: np.ndarray  # (3M,) int32, the undirected edge of each half-edge
    first: np.ndarray  # (E,) int32, the first half-edge on each edge
    count: np.ndarray  # (E,) int32, half-edges on each edge: 1 on the boundary, 2 inside

    def _gather(self, which) -> np.ndarray:
        """(len(which), 2) tail and head of the given half-edges.  The head
        of half-edge 3k + i is the tail of 3k + (i + 1) mod 3: one division
        finds 3k, and a table lookup the next corner."""
        corners = self.triangles.ravel()
        nxt = which // 3
        nxt *= 3
        nxt += _NEXT_CORNER[which - nxt]
        out = np.empty((len(which), 2), dtype=corners.dtype)
        out[:, 0] = corners[which]
        out[:, 1] = corners[nxt]
        return out

    @property
    def ends(self) -> np.ndarray:
        """(E, 2) endpoints of each edge, as its first half-edge runs."""
        return self._gather(self.first)

    @property
    def boundary(self) -> np.ndarray:
        """Half-edges on one triangle only, in triangle order."""
        return self._gather(np.flatnonzero(self.count[self.edge] == 1))


class MatrixPattern(NamedTuple):
    """Sparsity shared by the P1 matrices of a mesh: each vertex couples with
    itself and its edge neighbours.  The pattern is symmetric, so it is both
    the CSC and the CSR pattern; the rows of each column are sorted, without
    duplicates.  A matrix on the pattern is its data array, one value per
    slot.  The index arrays are read-only, because every matrix built on the
    pattern shares them."""

    indptr: np.ndarray  # (N + 1,) int32
    indices: np.ndarray  # (N + 2E,) int32
    diag: np.ndarray  # (N,) int32, the slot of (i, i)
    upper: np.ndarray  # (E,) int32, the slot of (lo, hi) of each edge of the table
    lower: np.ndarray  # (E,) int32, the slot of (hi, lo)
    half_edge: np.ndarray  # (3M,) int32, the edge of each half-edge ab, bc, ca, in triangle order
    boundary: np.ndarray  # (K,) the edge of each declared boundary edge

    def data(self, diag, off) -> np.ndarray:
        """The data array of the symmetric matrix with per-vertex diagonal
        ``diag`` and per-edge off-diagonal ``off``."""
        out = np.empty(len(self.indices))
        out[self.diag] = diag
        out[self.upper] = off
        out[self.lower] = off
        return out


def _signed_areas(vertices, triangles) -> np.ndarray:
    """(M,) signed chart areas, positive for counterclockwise triangles."""
    x, y = vertices[:, 0], vertices[:, 1]
    t0, t1, t2 = triangles.T
    areas = (x[t1] - x[t0]) * (y[t2] - y[t0])
    areas -= (y[t1] - y[t0]) * (x[t2] - x[t0])
    areas *= 0.5
    return areas


def _half_edges(triangles) -> np.ndarray:
    return triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)


def _edge_table(triangles, n_vertices) -> _EdgeTable:
    """The arrays ``np.unique(key, return_index=True, return_inverse=True,
    return_counts=True)`` gives for the half-edges' keys lo * N + hi, from
    the same stable sort, without the sorted keys it also returns, and as
    int32, which holds every half-edge, edge and vertex id while 3M < 2^31
    (generated meshes stop at MAX_VERTICES, far below; a larger array of
    triangles is refused).  The keys are int64, since N^2 passes 2^31 above
    46,341 vertices.  The stable sort (timsort) puts each key's first
    half-edge first in its group; on these keys, which come in long runs,
    it is faster than numpy's default sort.  Each intermediate is dropped
    once it is read."""
    if 3 * len(triangles) > np.iinfo(np.int32).max:
        raise MeshInvariantError(
            f"index-range: {len(triangles)} triangles have more half-edges than int32 ids")
    head = triangles[:, [1, 2, 0]]
    key = np.minimum(triangles, head, dtype=np.int64)
    np.maximum(triangles, head, out=head)
    key *= n_vertices
    key += head
    del head
    key = key.ravel()
    perm = np.argsort(key, kind="stable")
    key = key[perm]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    starts = np.flatnonzero(new)
    first = perm[starts].astype(np.int32)
    count = np.diff(starts, append=len(new)).astype(np.int32)
    del starts
    number = np.cumsum(new, dtype=np.int32)
    del new
    number -= 1
    edge = np.empty(len(perm), dtype=np.int32)
    edge[perm] = number
    return _EdgeTable(triangles, edge, first, count)


def _matrix_pattern(edges: _EdgeTable, n_vertices, boundary_edges) -> MatrixPattern:
    """Lay out column j as the rows lo of its edges (lo, j), then j, then the
    rows hi of its edges (j, hi).  The table numbers edges in (lo, hi) order,
    so the rows below the diagonal come in edge order; those above it take
    one stable sort of the edges by hi."""
    n = n_vertices
    ends = edges.ends
    lo = np.minimum(ends[:, 0], ends[:, 1], dtype=np.int32)
    hi = np.maximum(ends[:, 0], ends[:, 1], dtype=np.int32)
    del ends
    above = np.bincount(hi, minlength=n).astype(np.int32)
    below = np.bincount(lo, minlength=n).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(above + below + 1, out=indptr[1:])
    diag = indptr[:-1] + above
    # edge e is the (e - f)-th below the diagonal of column lo, f the first
    # edge of that column; above it, the edges by hi come column by column
    lower = np.arange(len(lo), dtype=np.int32)
    lower += (diag + 1 - (np.cumsum(below, dtype=np.int32) - below))[lo]
    by_hi = np.argsort(hi, kind="stable")
    slot = np.arange(len(hi), dtype=np.int32)
    slot += (indptr[:-1] - (np.cumsum(above, dtype=np.int32) - above))[hi[by_hi]]
    upper = np.empty_like(lower)
    upper[by_hi] = slot
    del by_hi, slot, above, below
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[diag] = np.arange(n, dtype=np.int32)
    indices[lower] = hi
    indices[upper] = lo
    key = lo.astype(np.int64)
    key *= n
    key += hi
    boundary = np.searchsorted(key, np.min(boundary_edges, axis=1) * n
                               + np.max(boundary_edges, axis=1))
    indptr.flags.writeable = indices.flags.writeable = False
    return MatrixPattern(indptr, indices, diag, upper, lower, edges.edge, boundary)


def _chart_lengths(vertices, ends) -> np.ndarray:
    seg = np.take(vertices, ends[:, 1], axis=0) - np.take(vertices, ends[:, 0], axis=0)
    return np.hypot(seg[:, 0], seg[:, 1])


def _extract_boundary(edges: _EdgeTable, n_vertices) -> np.ndarray:
    """Half-edges on exactly one triangle, chained into loops; each loop
    starts at its smallest vertex, and the loops come in that order."""
    tail, head = edges.boundary.T
    succ = np.full(n_vertices, -1, dtype=np.int64)
    succ[tail] = head
    unvisited = succ.copy()
    chain = []
    for cur in np.sort(tail).tolist():
        while unvisited[cur] >= 0:
            chain.append(cur)
            unvisited[cur] = -1
            cur = succ[cur]
    chain = np.array(chain, dtype=np.int64)
    return np.stack([chain, succ[chain]], axis=1)


def _zip_rings(inner, inner_angles, outer, outer_angles):
    """Triangulate the band between two CCW closed rings by angle merge.

    Each step advances the ring whose next vertex comes first, the inner one
    on a tie, so the steps are one stable sort of the two rings' next angles;
    a step on the inner ring makes the triangle (inner i, outer j, inner i+1),
    one on the outer ring (inner i, outer j, outer j+1)."""
    na, nb = len(inner), len(outer)
    ahead = np.concatenate([inner_angles[1:], [inner_angles[0] + 2.0 * math.pi],
                            outer_angles[1:], [outer_angles[0] + 2.0 * math.pi]])
    take_inner = np.argsort(ahead, kind="stable") < na
    i = np.cumsum(take_inner) - take_inner  # inner steps before this one
    j = np.arange(na + nb) - i
    third = np.where(take_inner, inner[(i + 1) % na], outer[(j + 1) % nb])
    return np.stack([inner[i % na], outer[j % nb], third], axis=1)


def _check_ceiling(vertices, target_h):
    """Refuse a mesh that must have more than MAX_VERTICES vertices."""
    if vertices > MAX_VERTICES:
        raise DegenerateGeometryError(
            f"target_h={target_h:g} asks for more than {MAX_VERTICES} vertices "
            "(2**21), the ceiling of a mesh")


def _fewest_vertices(chart_area, target_h) -> float:
    """A lower bound on the vertices of a simply connected triangulation
    that covers ``chart_area`` with no edge longer than target_h.  No such
    triangle is larger than the equilateral one, sqrt(3) h^2 / 4, and
    Euler's formula gives V = 1 + T/2 + K/2 > T/2 (K boundary edges)."""
    return 2.0 * chart_area / math.sqrt(3.0) / target_h / target_h


def _inner_radius_sq(radius, target_h) -> float:
    """r^2 - h^2/4, the squared distance from the centre of a circle of
    radius r to any of its chords of at most h."""
    return max(radius * radius - 0.25 * target_h * target_h, 0.0)


def _disk_points(radius, target_h, n_boundary=None):
    m = max(1, math.ceil(radius / (_H_SAFETY * target_h)))
    if n_boundary is None:
        _check_ceiling(_fewest_vertices(math.pi * _inner_radius_sq(radius, target_h),
                                        target_h), target_h)
    else:
        # a pinned rim does not bound the edges by target_h: count the m
        # rings of at least 3 vertices and the rim instead
        _check_ceiling(1 + max(3 * m, n_boundary), target_h)
    for _ in range(8):
        verts, tris = _disk_build(radius, m, n_boundary)
        longest = float(np.max(_chart_lengths(verts, _half_edges(tris))))
        if longest <= target_h or n_boundary is not None:
            break
        # zipper diagonals can overshoot the ring step; thicken the rings
        m = max(m + 1, math.ceil(m * longest / target_h))
    return verts, tris


def _disk_build(radius, m, n_boundary=None):
    n_out = n_boundary if n_boundary is not None else 6 * m
    sizes = np.array([max(3, int(round(n_out * j / m))) for j in range(1, m + 1)])
    ring = np.repeat(np.arange(m), sizes)  # of every vertex but the centre
    first = 1 + np.cumsum(sizes) - sizes   # the id of each ring's first vertex
    ids = np.arange(1, 1 + len(ring))
    ang = 2.0 * math.pi * (ids - first[ring]) / sizes[ring]
    r = radius * (ring + 1) / m
    verts = np.concatenate([[(0.0, 0.0)],
                            np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)])
    _check_rings_nest(verts, sizes, first, ring)
    rings = np.split(ids, first[1:] - 1)
    angles = np.split(ang, first[1:] - 1)
    tris = [np.stack([np.zeros_like(rings[0]), rings[0], np.roll(rings[0], -1)], axis=1)]
    tris.extend(_zip_rings(rings[j], angles[j], rings[j + 1], angles[j + 1])
                for j in range(m - 1))
    return verts, np.concatenate(tris)


def _check_rings_nest(verts, sizes, first, ring):
    """Refuse rings that do not nest: a vertex of one ring on or past a chord
    of the next folds the band between them.  Vertex i of a ring of n lies in
    the angular span of the next ring's chord floor(i n' / n), n' the next
    ring's size."""
    inner = ring < len(sizes) - 1
    j = ring[inner]
    n, n_next, nxt = sizes[j], sizes[j + 1], first[j + 1]
    k = (np.nonzero(inner)[0] + 1 - first[j]) * n_next // n
    p, a, b = verts[1:][inner], verts[nxt + k], verts[nxt + (k + 1) % n_next]
    cross = ((b[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1])
             - (b[:, 1] - a[:, 1]) * (p[:, 0] - a[:, 0]))
    bad = np.nonzero(cross <= 0.0)[0]
    if len(bad):
        j = int(j[bad[0]])
        raise DegenerateGeometryError(
            f"{len(sizes)} rings under a rim of {sizes[-1]} do not nest: ring "
            f"{j + 1} ({sizes[j]} vertices) reaches past a chord of ring {j + 2} "
            f"({sizes[j + 1]} vertices); take a larger target_h or n_boundary")


def _square_points(side, target_h):
    _check_ceiling(_fewest_vertices(side * side, target_h), target_h)
    k = max(1, math.ceil(side * math.sqrt(2.0) / target_h))
    axis = np.linspace(0.0, side, k + 1)
    xx, yy = np.meshgrid(axis, axis, indexing="xy")
    verts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    # cell (i, j) row by row, corner (i, j) at j (k + 1) + i: the triangles
    # (00, 10, 11) and (00, 11, 01)
    v00 = (np.arange(k)[:, None] * (k + 1) + np.arange(k)).ravel()
    tris = np.stack([v00, v00 + 1, v00 + k + 2, v00, v00 + k + 2, v00 + k + 1],
                    axis=1).reshape(-1, 3)
    return verts, tris


def _annulus_sector_points(r_inner, r_outer, angle0, angle1, target_h):
    if not (0.0 <= r_inner < r_outer):
        raise DegenerateGeometryError("need 0 <= r_inner < r_outer")
    span = angle1 - angle0
    if not (0.0 < span < 2.0 * math.pi):
        raise DegenerateGeometryError("sector angle span must lie in (0, 2*pi)")
    if r_inner == 0.0:
        raise DegenerateGeometryError("r_inner must be positive (use disk for r_inner = 0)")
    # the inner chords bulge into the hole, the outer ones cut the rim
    _check_ceiling(_fewest_vertices(
        0.5 * span * max(_inner_radius_sq(r_outer, target_h) - r_inner * r_inner, 0.0),
        target_h), target_h)
    step = _H_SAFETY * target_h
    kr = max(1, math.ceil((r_outer - r_inner) / step))
    ka = max(1, math.ceil(span * r_outer / step))
    rr = np.linspace(r_inner, r_outer, kr + 1)
    aa = np.linspace(angle0, angle1, ka + 1)
    # one math.cos and math.sin per angle, as a loop over the vertices takes
    # them: numpy's own may differ in the last bit
    cos = np.array([math.cos(a) for a in aa.tolist()])
    sin = np.array([math.sin(a) for a in aa.tolist()])
    verts = np.stack([np.multiply.outer(rr, cos).ravel(),
                      np.multiply.outer(rr, sin).ravel()], axis=1)
    # cell (i, j), i radial and j angular, corner (i, j) at i (ka + 1) + j:
    # the triangles (00, 10, 11) and (00, 11, 01)
    v00 = (np.arange(kr)[:, None] * (ka + 1) + np.arange(ka)).ravel()
    tris = np.stack([v00, v00 + ka + 1, v00 + ka + 2, v00, v00 + ka + 2, v00 + 1],
                    axis=1).reshape(-1, 3)
    return verts, tris


# -- polygons ----------------------------------------------------------------


def _polygon_signed_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _segments_properly_intersect(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _check_simple_polygon(pts):
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(i - j) in (0, 1) or (i == 0 and j == n - 1):
                continue
            if _segments_properly_intersect(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]):
                raise DegenerateGeometryError(
                    f"polygon self-intersects between edges {i} and {j}"
                )


def _ear_clip(pts):
    """Triangulate a simple CCW polygon by ear clipping."""
    n = len(pts)
    idx = list(range(n))
    tris = []

    def cross(o, a, b):
        return (pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1]) - (
            pts[a, 1] - pts[o, 1]
        ) * (pts[b, 0] - pts[o, 0])

    def inside(a, b, c, p):
        d1 = cross(a, b, p)
        d2 = cross(b, c, p)
        d3 = cross(c, a, p)
        return d1 >= 0 and d2 >= 0 and d3 >= 0

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * n * n:
            raise DegenerateGeometryError("ear clipping failed; polygon may be degenerate")
        m = len(idx)
        clipped = False
        for k in range(m):
            a, b, c = idx[(k - 1) % m], idx[k], idx[(k + 1) % m]
            if cross(a, b, c) <= 1e-14 * np.max(np.abs(pts)) ** 2:
                continue  # reflex or flat corner
            if any(
                inside(a, b, c, q)
                for q in idx
                if q not in (a, b, c)
            ):
                continue
            tris.append((a, b, c))
            idx.pop(k)
            clipped = True
            break
        if not clipped:
            raise DegenerateGeometryError("ear clipping stalled; polygon may self-touch")
    tris.append(tuple(idx))
    return np.array(tris, dtype=np.int64)


def _midpoint_parents(edges: _EdgeTable, order=None) -> np.ndarray:
    """The (E, 2) parent pair of each midpoint :func:`_refine4` adds: the
    ends of the edges in the order their first half-edges come, which
    ``order`` gives when the caller has it."""
    if order is None:
        order = np.argsort(edges.first)
    return edges._gather(edges.first[order])


def _refine4(verts, tris, edges):
    """Split every triangle into four via shared edge midpoints.

    Midpoints follow the old vertices, numbered in the order their edges are
    first met.  Returns the vertices, the triangles and the (E, 2) parent
    pair of each midpoint.
    """
    order = np.argsort(edges.first)
    parents = _midpoint_parents(edges, order)
    number = np.empty(len(order), dtype=np.int32)  # the inverse permutation
    number[order] = np.arange(len(verts), len(verts) + len(order), dtype=np.int32)
    del order
    ab, bc, ca = number[edges.edge].reshape(-1, 3).T
    del number
    a, b, c = tris.T
    out = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    del ab, bc, ca
    new_verts = np.empty((len(verts) + len(parents), 2))
    new_verts[:len(verts)] = verts
    mids = new_verts[len(verts):]
    np.take(verts, parents[:, 0], axis=0, out=mids)
    mids += np.take(verts, parents[:, 1], axis=0)
    mids /= 2.0
    return new_verts, out.reshape(-1, 3), parents


def _polygon_points(points, target_h):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise DegenerateGeometryError("polygon needs at least 3 (x, y) points")
    bad = np.nonzero(~np.isfinite(pts).all(axis=1))[0]
    if len(bad):
        raise DegenerateGeometryError(
            f"polygon point {int(bad[0])} is not finite: {tuple(pts[bad[0]].tolist())}")
    _check_simple_polygon(pts)
    if _polygon_signed_area(pts) < 0:
        pts = pts[::-1].copy()
    area = abs(_polygon_signed_area(pts))
    if area < 1e-14:
        raise DegenerateGeometryError("polygon has (near-)zero area")
    _check_ceiling(_fewest_vertices(area, target_h), target_h)
    tris = _ear_clip(pts)
    verts = pts
    for _ in range(40):
        if float(np.max(_chart_lengths(verts, _half_edges(tris)))) <= target_h:
            break
        edges = _edge_table(tris, len(verts))
        # slivers need more vertices than their area tells; each split adds one per edge
        _check_ceiling(len(verts) + len(edges.first), target_h)
        verts, tris, _ = _refine4(verts, tris, edges)
    return verts, tris


# ---------------------------------------------------------------------------
# public generation and serialization


def generate_domain(kind: str, target_h: float, geometry: str = "flat",
                    warp: WarpedSurfaceSpec | None = None, **params) -> MeasuredMesh:
    """Generate a structured measured mesh.

    Supported kinds and their parameters:

    * ``disk``: ``radius`` (and optionally ``n_boundary``, an integer of at
      least 3, to pin the exact number of boundary segments, overriding
      target_h along the rim; a rim too coarse for the rings target_h asks
      for, whose rings would not nest, is refused)
    * ``square``: ``side``
    * ``polygon``: ``points`` (sequence of (x, y), any orientation)
    * ``spherical_cap``: ``theta`` (geodesic cap angle; geometry is forced to
      the stereographic sphere chart)
    * ``annulus_sector``: ``r_inner``, ``r_outer``, ``angle0``, ``angle1``

    ``target_h`` bounds the maximum edge length in chart coordinates.  A
    ``target_h`` whose mesh must have more than :data:`MAX_VERTICES`
    vertices is refused.
    """
    if not target_h > 0.0:
        raise DegenerateGeometryError("target_h must be positive")

    if kind == "spherical_cap":
        theta = params.pop("theta")
        if params:
            raise DegenerateGeometryError(f"unexpected parameters {sorted(params)}")
        if geometry not in ("flat", "sphere_stereographic"):
            raise DegenerateGeometryError("spherical_cap implies the sphere chart")
        if not (0.0 < theta <= 2.0 * math.atan(CHART_RADIUS_CAP)):
            raise DegenerateGeometryError(
                f"cap angle must lie in (0, {2.0 * math.atan(CHART_RADIUS_CAP):.4f}] "
                "to stay inside the chart-radius cap"
            )
        verts, tris = _disk_points(math.tan(0.5 * theta), target_h)
        geometry = "sphere_stereographic"
    elif kind == "disk":
        radius = params.pop("radius")
        n_boundary = params.pop("n_boundary", None)
        if params:
            raise DegenerateGeometryError(f"unexpected parameters {sorted(params)}")
        if not radius > 0.0:
            raise DegenerateGeometryError("disk radius must be positive")
        if n_boundary is not None and not (
                isinstance(n_boundary, (int, np.integer)) and n_boundary >= 3):
            raise DegenerateGeometryError(
                f"n_boundary must be an integer >= 3, got {n_boundary!r}")
        verts, tris = _disk_points(radius, target_h, n_boundary)
    elif kind == "square":
        side = params.pop("side")
        if params:
            raise DegenerateGeometryError(f"unexpected parameters {sorted(params)}")
        if not side > 0.0:
            raise DegenerateGeometryError("square side must be positive")
        verts, tris = _square_points(side, target_h)
    elif kind == "polygon":
        points = params.pop("points")
        if params:
            raise DegenerateGeometryError(f"unexpected parameters {sorted(params)}")
        verts, tris = _polygon_points(points, target_h)
    elif kind == "annulus_sector":
        verts, tris = _annulus_sector_points(
            params.pop("r_inner"), params.pop("r_outer"),
            params.pop("angle0"), params.pop("angle1"), target_h,
        )
        if params:
            raise DegenerateGeometryError(f"unexpected parameters {sorted(params)}")
    else:
        raise DegenerateGeometryError(f"unknown domain kind {kind!r}")

    if geometry == "sphere_stereographic":
        rmax = float(np.max(np.hypot(verts[:, 0], verts[:, 1])))
        if rmax > CHART_RADIUS_CAP:
            raise DegenerateGeometryError(
                f"domain reaches chart radius {rmax:.3f} > cap {CHART_RADIUS_CAP}"
            )
    edges = _edge_table(tris, len(verts))
    return MeasuredMesh(verts, tris, _extract_boundary(edges, len(verts)),
                        geometry=geometry, warp=warp, _edges=edges)


def refine(mesh: MeasuredMesh) -> MeasuredMesh:
    """Uniform midpoint refinement; densities recomputed from the geometry
    (interpolated when the mesh carries a custom density).  The refined
    mesh keeps ``mesh`` as its ``coarse`` mesh."""
    verts, tris, parents = _refine4(mesh.vertices, mesh.triangles, mesh._edges)
    edges = _edge_table(tris, len(verts))
    density = None
    if mesh._custom_density:
        # midpoints average their parents; parents keep their values
        density = np.concatenate(
            [mesh.density, 0.5 * (mesh.density[parents[:, 0]] + mesh.density[parents[:, 1]])]
        )
    return MeasuredMesh(verts, tris, _extract_boundary(edges, len(verts)),
                        geometry=mesh.geometry, warp=mesh.warp, density=density,
                        _edges=edges, _coarse=mesh)


def save_mesh(mesh: MeasuredMesh, path: str):
    """Write the JSON form; floats round-trip exactly."""
    obj = {
        "geometry": mesh.geometry,
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
        "boundary_edges": mesh.boundary_edges.tolist(),
        "density": mesh.density.tolist(),
    }
    if mesh.warp is not None:
        obj["warp"] = mesh.warp.to_json()
    with open(path, "w") as fh:
        json.dump(obj, fh)


def read_json_object(path: str, parse):
    """``parse(obj)`` of the JSON object held in the file at ``path``.

    Content that is not a JSON object raises MeshFormatError: bad JSON,
    bytes that are not UTF-8, an integer past the interpreter's 4,300-digit
    limit, or any other JSON value.  So does a KeyError (a missing field),
    ValueError, TypeError or OverflowError of ``parse``, which reads the
    object's fields.  A MeshFormatError or MeshInvariantError of ``parse``
    passes through, and so does the OSError of a file that cannot be opened.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, the digit limit
        raise MeshFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise MeshFormatError(f"{path}: expected a JSON object")
    try:
        return parse(obj)
    except (MeshFormatError, MeshInvariantError):
        raise
    except KeyError as exc:
        raise MeshFormatError(f"{path}: missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise MeshFormatError(f"{path}: malformed content ({exc})") from exc


def load_mesh(path: str) -> MeasuredMesh:
    """Read the JSON form written by :func:`save_mesh` (density optional)."""

    def parse(obj):
        return MeasuredMesh(
            np.asarray(obj["vertices"], dtype=float),
            np.asarray(obj["triangles"], dtype=np.int64),
            np.asarray(obj["boundary_edges"], dtype=np.int64),
            geometry=obj["geometry"],
            warp=(warped_profile(obj["warp"]["name"], float(obj["warp"]["c"]))
                  if "warp" in obj else None),
            density=np.asarray(obj["density"], dtype=float) if "density" in obj else None,
        )

    return read_json_object(path, parse)
