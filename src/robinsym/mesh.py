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

Passes over triangles, edges or half-edges run in blocks of :data:`BLOCK`
rows, here and in the modules that read a mesh, so that their temporaries
are a block long; each keeps the order of operations of one pass over all
rows, so its result does not depend on the block.  Refinement numbers the
edges of the new mesh by sorting its half-edges one bucket of lower ends at
a time (:func:`_edge_table`).
"""

import itertools
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

# the rows a pass over triangles, edges, distribution slots or radial grid
# cells takes at a time: its temporaries are a block long, so a level's peak
# is what the level keeps plus one block, while every sum still adds its
# terms in the order of one pass over all rows
BLOCK = 8192


def _blocks(n, width=1) -> list:
    """The slices of range(n) in order, each but the last of BLOCK values
    when a row holds ``width`` values: BLOCK rows, or fewer of more."""
    size = max(BLOCK // width, 1)
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def _vertex_ids(ids, n_vertices) -> np.ndarray:
    """``ids`` as a C-contiguous int32 array when each lies in [0, N), which
    int32 holds; otherwise as int64, whose values ``validate`` refuses
    (index-range).  So no id is cast that int32 would wrap, 2^32 + 1 to 1
    say."""
    ids = np.asarray(ids)
    if ids.dtype != np.int32:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= min(n_vertices, 2**31)):
            return np.ascontiguousarray(ids)
    return np.ascontiguousarray(ids, dtype=np.int32)


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
        Vertex indices, counterclockwise in the chart.  The mesh keeps them
        as int32; an index outside [0, N) is refused before the cast, so
        none wraps.
    boundary_edges : (K, 2) int array
        Directed boundary edges with the domain on the left.
    geometry : str
        One of ``flat``, ``sphere_stereographic``, ``warped``.
    warp : WarpedSurfaceSpec, optional
        Required exactly when geometry is ``warped``.
    density : (N,) array, optional
        Per-vertex area density; computed from the geometry when omitted.

    A mesh keeps its vertices, int32 triangles, densities, chart areas and
    edge table, about 103 bytes per vertex; the centroid density is formed
    on each call.  Products of vertex ids, such as the edge keys
    lo * N + hi, are formed in int64.

    A mesh made by :func:`refine` keeps the mesh it refined as ``coarse``,
    None on any other mesh.  The P1 space of ``coarse`` is then a subspace
    of this one, and :attr:`parents` gives the parent pair of each midpoint.
    """

    def __init__(self, vertices, triangles, boundary_edges, geometry="flat",
                 warp=None, density=None, *, _edges=None, _coarse=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = _vertex_ids(triangles, len(self.vertices))
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
        edges = self.coarse._edges
        return _midpoint_parents(edges, _first_half_edges(edges))

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
        # per edge, its half-edges that run from the lower vertex to the
        # higher, counted a block of triangles at a time
        forward = np.zeros(len(edges.first), dtype=np.int32)
        for rows in _blocks(len(t)):
            ascending = (t[rows] < t[rows][:, [1, 2, 0]]).ravel()
            np.add.at(forward, edges.edge[3 * rows.start:3 * rows.stop][ascending], np.int32(1))
        for rows in _blocks(len(forward)):
            repeats = np.flatnonzero((forward[rows] > 1) | (edges.count[rows] - forward[rows] > 1))
            if len(repeats):
                e = rows.start + repeats[0]
                lo, hi = sorted(int(x) for x in edges.ends[e])
                key = (lo, hi) if forward[e] > 1 else (hi, lo)
                raise MeshInvariantError(f"edge-conformity: directed edge {key} repeats")
        del forward
        tail, head = edges.boundary.T
        found = np.sort(tail.astype(np.int64) * n + head)
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

        # boundary edges must close up into loops: each of their vertices
        # is the tail of one and the head of one
        ends = sorted_unique(b)
        chained = np.ones(len(ends), dtype=bool)
        for side in (np.sort(b[:, 0]), np.sort(b[:, 1])):
            chained &= (np.searchsorted(side, ends, side="right")
                        - np.searchsorted(side, ends, side="left")) == 1
        unchained = ends[~chained]
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
        areas.flags.writeable = False
        self._chart_areas = areas
        # one rounding of the exact sum (a pairwise sum moved a refined annulus
        # sector's measure in its last bit between levels), so the order of
        # the blocks is free; the memoryviews hand fsum one float at a time
        self._total_measure = math.fsum(itertools.chain.from_iterable(
            memoryview(areas[rows] * self.centroid_density(rows)) for rows in _blocks(len(t))))
        # the longest edge over blocks of edges, a max being exact in any
        # order.  length_factor sees the direction only through its square,
        # so one orientation per undirected edge measures both half-edges
        self._mesh_size = float(np.max([self._longest(edges._gather(edges.first[rows]))
                                        for rows in _blocks(len(edges.first))]))

    # -- measures ----------------------------------------------------------

    # The P1 element kernel: chart areas, basis gradients, the Dirichlet
    # weight, (with `edge_midpoints`) the edge-midpoint rule, and the
    # matrix pattern the element sums fill.

    def chart_areas(self) -> np.ndarray:
        return self._chart_areas  # read-only, computed once by validate

    def basis_gradients(self, rows=slice(None)) -> np.ndarray:
        """(m, 3, 2) chart gradients of the three P1 hat functions of each
        triangle in the slice ``rows`` (all of them by default): rot90 of
        the opposite edge over twice the chart area."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        t = self.triangles[rows]
        det = 2.0 * self._chart_areas[rows]
        grads = np.empty((len(t), 3, 2))
        for i in range(3):
            a, b = t[:, (i + 1) % 3], t[:, (i + 2) % 3]
            gx, gy = grads[:, i, 0], grads[:, i, 1]
            np.subtract(y[a], y[b], out=gx)
            gx /= det
            np.subtract(x[b], x[a], out=gy)
            gy /= det
        return grads

    def dirichlet_weighted(self, covectors, rows=slice(None)) -> np.ndarray:
        """Chart covectors of the triangles in the slice ``rows`` (all of
        them by default), shape (m, ..., 2), times the Dirichlet weight
        sqrt(det g) g^{-1} frozen at each centroid.  On the conformal charts
        the weight is the identity (the 2-D Dirichlet integral is conformally
        invariant) and the input comes back as is."""
        if self.geometry != "warped":
            return covectors
        weight = warped_metric_tensors(
            self.warp, np.mean(np.take(self.vertices, self.triangles[rows], axis=0), axis=1))
        return np.einsum("t...a,tab->t...b", covectors, weight)

    def matrix_pattern(self) -> "MatrixPattern":
        """The sparsity of the P1 matrices, read off the edge table."""
        return _matrix_pattern(self._edges, len(self.vertices), self.boundary_edges)

    def centroid_density(self, rows=slice(None)) -> np.ndarray:
        """Per-triangle density frozen at the centroid, of the triangles in
        the slice ``rows`` (all of them by default): the vertex mean, which
        equals it for the linear densities used throughout, summed left to
        right as np.mean sums a row of three.  Formed on each call, a block
        of triangles at a time, so a mesh does not hold it."""
        d, t = self.density, self.triangles[rows]
        rho = np.empty(len(t))
        for block in _blocks(len(t)):
            corners = t[block]
            np.add(d[corners[:, 0]], d[corners[:, 1]], out=rho[block])
            rho[block] += d[corners[:, 2]]
        rho /= 3.0
        return rho

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

    def _longest(self, ends) -> float:
        """The largest metric length of the (K, 2) vertex pairs, each the
        chart length times the larger factor at its ends."""
        ln, at_tail, at_head = self._length_factors(ends)
        np.maximum(at_tail, at_head, out=at_head)
        at_head *= ln
        return np.max(at_head)

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
    for: a (3M, 2) copy would be the largest array a mesh keeps.  Its
    arrays take 15 bytes per edge and 4 per half-edge.
    """

    triangles: np.ndarray  # (M, 3) the triangulation itself, not a copy
    edge: np.ndarray  # (3M,) int32, the undirected edge of each half-edge
    first: np.ndarray  # (E,) int32, the first half-edge on each edge
    # (E,) uint8, half-edges on each edge: 1 on the boundary, 2 inside, and
    # 3 for three or more, which validate refuses as a repeated edge
    count: np.ndarray

    def _gather(self, which) -> np.ndarray:
        """(len(which), 2) tail and head of the given half-edges."""
        return _half_edge_ends(self.triangles, which)

    @property
    def ends(self) -> np.ndarray:
        """(E, 2) endpoints of each edge, as its first half-edge runs."""
        return self._gather(self.first)

    @property
    def boundary(self) -> np.ndarray:
        """Half-edges on one triangle only, in triangle order, found a block
        of half-edges at a time."""
        return self._gather(np.concatenate([
            np.flatnonzero(self.count[self.edge[rows]] == 1) + rows.start
            for rows in _blocks(len(self.edge))]))


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

    def mirror(self, data):
        """Copy each edge's value in the data array ``data`` from its upper
        slot to its lower one, a block of edges at a time: a symmetric
        matrix is summed on the diagonal and upper slots alone."""
        for rows in _blocks(len(self.upper)):
            data[self.lower[rows]] = data[self.upper[rows]]


def _signed_areas(vertices, triangles) -> np.ndarray:
    """(M,) signed chart areas, positive for counterclockwise triangles, a
    block of triangles at a time."""
    x, y = vertices[:, 0], vertices[:, 1]
    areas = np.empty(len(triangles))
    for rows in _blocks(len(triangles)):
        t0, t1, t2 = triangles[rows].T
        area = areas[rows]
        np.multiply(x[t1] - x[t0], y[t2] - y[t0], out=area)
        area -= (y[t1] - y[t0]) * (x[t2] - x[t0])
        area *= 0.5
    return areas


def _half_edges(triangles) -> np.ndarray:
    return triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)


def _half_edge_ends(triangles, which) -> np.ndarray:
    """(len(which), 2) tail and head of the given half-edges of the (M, 3)
    ``triangles``.  The head of half-edge 3k + i is the tail of
    3k + (i + 1) mod 3: one division finds 3k, and a table lookup the next
    corner."""
    corners = triangles.ravel()
    nxt = which // 3
    nxt *= 3
    nxt += _NEXT_CORNER.take(which - nxt)
    out = np.empty((len(which), 2), dtype=corners.dtype)
    out[:, 0] = corners.take(which)
    out[:, 1] = corners.take(nxt)
    return out


def _edge_table(triangles, n_vertices) -> _EdgeTable:
    """The arrays ``np.unique(key, return_index=True, return_inverse=True,
    return_counts=True)`` gives for the half-edges' keys lo * N + hi, with
    each count clipped at 3 and held in a byte, and the rest as int32,
    which holds every half-edge, edge and vertex id while 3M < 2^31
    (generated meshes stop at MAX_VERTICES, far below; a larger array of
    triangles is refused).  The keys are int64, since N^2 passes 2^31 above
    46,341 vertices.

    The half-edges are sorted one bucket of lo at a time.  A counting pass
    over blocks of half-edges puts them in an int32 order by lo, each
    bucket in half-edge order.  Then each run of whole buckets of at most
    BLOCK half-edges, or one larger bucket alone, is sorted stably by its
    keys, and its edges are numbered.  So each key's first half-edge comes
    first in its group, as in one stable sort of all the keys, the cost is
    linear, and the one scratch array of mesh length is the int32 order."""
    if 3 * len(triangles) > np.iinfo(np.int32).max:
        raise MeshInvariantError(
            f"index-range: {len(triangles)} triangles have more half-edges than int32 ids")
    # bucket v of the order holds the half-edges whose lower end is v, from
    # start[v] to start[v + 1]
    start = np.zeros(n_vertices + 1, dtype=np.int32)
    for rows in _blocks(len(triangles), width=3):
        np.add.at(start[1:], _lower_ends(triangles[rows]), np.int32(1))
    np.cumsum(start, out=start)
    fill = start[:-1].copy()  # the next free place in each bucket
    order = np.empty(3 * len(triangles), dtype=np.int32)
    for rows in _blocks(len(triangles), width=3):
        lo = _lower_ends(triangles[rows])
        by_lo = np.argsort(lo, kind="stable")
        lo = lo[by_lo]
        runs, sizes = _runs(lo)
        # a half-edge's place: its bucket's next free place plus its rank
        # among the block's half-edges of that bucket
        buckets = lo[runs]
        place = np.repeat(fill[buckets] - runs, sizes)
        place += np.arange(len(lo))
        by_lo += 3 * rows.start
        order[place] = by_lo.astype(np.int32)
        fill[buckets] += sizes.astype(np.int32)
    del fill
    edge = np.empty(len(order), dtype=np.int32)
    firsts, counts = [], []
    number, done = 0, 0  # the edges numbered, the half-edges sorted
    while done < len(order):
        # the whole buckets up to BLOCK half-edges on, or the next bucket
        # (an int32 search value keeps searchsorted from copying start)
        reach = np.int32(min(int(done) + BLOCK, len(order)))
        stop = start[np.searchsorted(start, reach, side="right") - 1]
        if stop == done:
            stop = start[np.searchsorted(start, stop, side="right")]
        which = order[done:stop].astype(np.intp)
        ends = _half_edge_ends(triangles, which)
        key = np.minimum(ends[:, 0], ends[:, 1], dtype=np.int64)
        key *= n_vertices
        key += np.maximum(ends[:, 0], ends[:, 1])
        del ends
        by_key = np.argsort(key, kind="stable")
        which = which[by_key]
        runs, sizes = _runs(key[by_key])
        del key, by_key
        firsts.append(which[runs].astype(np.int32))
        counts.append(np.minimum(sizes, 3).astype(np.uint8))
        edge[which] = np.repeat(np.arange(number, number + len(runs), dtype=np.int32), sizes)
        number += len(runs)
        done = stop
    del order
    return _EdgeTable(triangles, edge, np.concatenate(firsts), np.concatenate(counts))


def _runs(values):
    """The start of each run of equal values in the sorted (m,) ``values``,
    and its length."""
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    runs = np.flatnonzero(new)
    return runs, np.diff(runs, append=len(values))


def _lower_ends(triangles) -> np.ndarray:
    """The lower end of each half-edge ab, bc, ca of the (m, 3) triangles,
    in half-edge order."""
    return np.minimum(triangles, triangles[:, [1, 2, 0]]).ravel()


def _matrix_pattern(edges: _EdgeTable, n_vertices, boundary_edges) -> MatrixPattern:
    """Lay out column j as the rows lo of its edges (lo, j), then j, then the
    rows hi of its edges (j, hi).  The table numbers edges in (lo, hi) order,
    so the rows below the diagonal come in edge order; those above it take
    one stable sort of the edges by hi.  Its permutation is the one int64
    array of edge length: the rest goes a block of edges at a time, since
    numpy reads an int32 index through an intp copy."""
    n = n_vertices
    lo = np.empty(len(edges.first), dtype=np.int32)
    hi = np.empty_like(lo)
    for rows in _blocks(len(lo)):
        ends = edges._gather(edges.first[rows])
        np.minimum(ends[:, 0], ends[:, 1], out=lo[rows])
        np.maximum(ends[:, 0], ends[:, 1], out=hi[rows])
    above, below = np.zeros(n, dtype=np.int32), np.zeros(n, dtype=np.int32)
    np.add.at(above, hi, np.int32(1))
    np.add.at(below, lo, np.int32(1))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(above + below + 1, out=indptr[1:])
    diag = indptr[:-1] + above
    # edge e is the (e - f)-th below the diagonal of column lo, f the first
    # edge of that column; above it, the edges by hi come column by column
    below = diag + 1 - (np.cumsum(below, dtype=np.int32) - below)
    above = indptr[:-1] - (np.cumsum(above, dtype=np.int32) - above)
    by_hi = np.argsort(hi, kind="stable")
    lower, upper = np.empty_like(lo), np.empty_like(lo)
    for rows in _blocks(len(lo)):
        slot = np.arange(rows.start, rows.stop, dtype=np.int32)
        np.add(slot, below[lo[rows]], out=lower[rows])
        slot += above[hi[by_hi[rows]]]
        upper[by_hi[rows]] = slot
    del by_hi, above, below
    indices = np.empty(indptr[-1], dtype=np.int32)
    for rows in _blocks(len(lo)):
        indices[lower[rows]] = hi[rows]
        indices[upper[rows]] = lo[rows]
    del lo, hi
    indices[diag] = np.arange(n, dtype=np.int32)
    # a declared boundary edge's edge, read at its tail, the tail of one
    # boundary edge only (MeasuredMesh.validate)
    at_tail, edge = np.empty(n, dtype=np.int32), np.flatnonzero(edges.count == 1)
    at_tail[edges.triangles.ravel()[edges.first[edge]]] = edge
    indptr.flags.writeable = indices.flags.writeable = False
    return MatrixPattern(indptr, indices, diag, upper, lower, edges.edge,
                         at_tail[boundary_edges[:, 0]].astype(np.int64))


def _chart_lengths(vertices, ends) -> np.ndarray:
    seg = np.take(vertices, ends[:, 1], axis=0) - np.take(vertices, ends[:, 0], axis=0)
    return np.hypot(seg[:, 0], seg[:, 1])


def _extract_boundary(edges: _EdgeTable) -> np.ndarray:
    """Half-edges on exactly one triangle, chained into loops; each loop
    starts at its smallest vertex, and the loops come in that order."""
    tail, head = edges.boundary.T
    succ = dict(zip(tail.tolist(), head.tolist()))  # a repeated tail keeps its last head
    unvisited = set(succ)
    chain = []
    for cur in sorted(unvisited):
        while cur in unvisited:
            chain.append(cur)
            unvisited.remove(cur)
            cur = succ[cur]
    return np.array([(cur, succ[cur]) for cur in chain], dtype=np.int64).reshape(-1, 2)


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


def _first_half_edges(edges: _EdgeTable) -> list:
    """Per block of half-edges, those that are the first on their edge, in
    order: the order :func:`_refine4` numbers the midpoints in."""
    firsts = []
    for rows in _blocks(len(edges.edge)):
        which = np.arange(rows.start, rows.stop, dtype=np.int32)
        firsts.append(which[edges.first[edges.edge[rows]] == which])
    return firsts


def _midpoint_parents(edges: _EdgeTable, firsts: list) -> np.ndarray:
    """The (E, 2) int32 parent pair of each midpoint :func:`_refine4` adds:
    the ends of the edges in the order of their first half-edges, the
    blocks of :func:`_first_half_edges`."""
    parents = np.empty((len(edges.first), 2), dtype=np.int32)
    done = 0
    for block in firsts:
        parents[done:done + len(block)] = edges._gather(block)
        done += len(block)
    return parents


def _refine4(verts, tris, edges):
    """Split every triangle into four via shared edge midpoints.

    Midpoints follow the old vertices, numbered in the order their edges are
    first met.  Returns the vertices, the triangles and the (E, 2) int32
    parent pair of each midpoint.  The midpoints' numbers and the new
    triangles are formed a block at a time.
    """
    firsts = _first_half_edges(edges)
    number = np.empty(len(edges.first), dtype=np.int32)  # each edge's midpoint
    done = len(verts)
    for block in firsts:
        number[edges.edge[block]] = np.arange(done, done + len(block), dtype=np.int32)
        done += len(block)
    out = np.empty((len(tris), 12), dtype=tris.dtype)
    for rows in _blocks(len(tris)):
        ab, bc, ca = number[edges.edge[3 * rows.start:3 * rows.stop]].reshape(-1, 3).T
        a, b, c = tris[rows].T
        for k, column in enumerate((a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca)):
            out[rows, k] = column
    del number
    parents = _midpoint_parents(edges, firsts)
    new_verts = np.empty((len(verts) + len(parents), 2))
    new_verts[:len(verts)] = verts
    mids = new_verts[len(verts):]
    for rows in _blocks(len(parents)):
        np.take(verts, parents[rows, 0], axis=0, out=mids[rows])
        mids[rows] += np.take(verts, parents[rows, 1], axis=0)
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


# the parameters of each domain kind; all are required but a disk's n_boundary
_DOMAIN_PARAMETERS = {"spherical_cap": ("theta",), "disk": ("radius", "n_boundary"),
                      "square": ("side",), "polygon": ("points",),
                      "annulus_sector": ("r_inner", "r_outer", "angle0", "angle1")}


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
    if kind not in _DOMAIN_PARAMETERS:
        raise DegenerateGeometryError(f"unknown domain kind {kind!r}")
    if unexpected := sorted(set(params) - set(_DOMAIN_PARAMETERS[kind])):
        raise DegenerateGeometryError(f"unexpected parameters {unexpected}")

    if kind == "spherical_cap":
        theta = params["theta"]
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
        radius = params["radius"]
        n_boundary = params.get("n_boundary")
        if not radius > 0.0:
            raise DegenerateGeometryError("disk radius must be positive")
        if n_boundary is not None and not (
                isinstance(n_boundary, (int, np.integer)) and n_boundary >= 3):
            raise DegenerateGeometryError(
                f"n_boundary must be an integer >= 3, got {n_boundary!r}")
        verts, tris = _disk_points(radius, target_h, n_boundary)
    elif kind == "square":
        side = params["side"]
        if not side > 0.0:
            raise DegenerateGeometryError("square side must be positive")
        verts, tris = _square_points(side, target_h)
    elif kind == "polygon":
        verts, tris = _polygon_points(params["points"], target_h)
    else:
        verts, tris = _annulus_sector_points(
            params["r_inner"], params["r_outer"], params["angle0"], params["angle1"], target_h)

    if geometry == "sphere_stereographic":
        rmax = float(np.max(np.hypot(verts[:, 0], verts[:, 1])))
        if rmax > CHART_RADIUS_CAP:
            raise DegenerateGeometryError(
                f"domain reaches chart radius {rmax:.3f} > cap {CHART_RADIUS_CAP}"
            )
    tris = np.ascontiguousarray(tris, dtype=np.int32)  # under MAX_VERTICES
    edges = _edge_table(tris, len(verts))
    return MeasuredMesh(verts, tris, _extract_boundary(edges),
                        geometry=geometry, warp=warp, _edges=edges)


def refine(mesh: MeasuredMesh) -> MeasuredMesh:
    """Uniform midpoint refinement; densities recomputed from the geometry
    (interpolated when the mesh carries a custom density).  The refined
    mesh keeps ``mesh`` as its ``coarse`` mesh; one past MAX_VERTICES is
    refused before it is allocated."""
    if (vertices := len(mesh.vertices) + len(mesh._edges.first)) > MAX_VERTICES:
        raise DegenerateGeometryError(f"refine: the refined mesh would have {vertices} "
                                      f"vertices, more than the ceiling of {MAX_VERTICES} (2**21)")
    verts, tris, parents = _refine4(mesh.vertices, mesh.triangles, mesh._edges)
    edges = _edge_table(tris, len(verts))
    density = None
    if mesh._custom_density:
        # midpoints average their parents; parents keep their values
        density = np.concatenate(
            [mesh.density, 0.5 * (mesh.density[parents[:, 0]] + mesh.density[parents[:, 1]])]
        )
    return MeasuredMesh(verts, tris, _extract_boundary(edges),
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
