"""Test-side loop versions of the structured mesh generators, the reference
the vectorized builders in ``robinsym.mesh`` must match array for array, and
the edge table and the P1 matrix pattern as ``np.unique`` numbers the edges."""

import math

import numpy as np
import scipy.sparse


def zip_rings_loop(inner, inner_angles, outer, outer_angles):
    """Triangulate the band between two CCW closed rings by angle merge, one
    step at a time."""
    na, nb = len(inner), len(outer)
    ia = np.append(inner_angles, inner_angles[0] + 2.0 * math.pi)
    oa = np.append(outer_angles, outer_angles[0] + 2.0 * math.pi)
    tris = []
    i = j = 0
    while i < na or j < nb:
        take_inner = j >= nb or (i < na and ia[i + 1] <= oa[j + 1])
        if take_inner:
            tris.append((inner[i], outer[j % nb], inner[(i + 1) % na]))
            i += 1
        else:
            tris.append((inner[i % na], outer[j], outer[(j + 1) % nb]))
            j += 1
    return tris


def disk_build_loop(radius, m, n_boundary=None):
    """The centre, m rings of at least 3 vertices, the fan and the zips."""
    n_out = n_boundary if n_boundary is not None else 6 * m
    verts = [(0.0, 0.0)]
    rings = []  # (indices, angles)
    for j in range(1, m + 1):
        r = radius * j / m
        nj = max(3, int(round(n_out * j / m)))
        ang = 2.0 * math.pi * np.arange(nj) / nj
        idx = np.arange(len(verts), len(verts) + nj)
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
        rings.append((idx, ang))
    tris = []
    first_idx, _ = rings[0]
    n1 = len(first_idx)
    for i in range(n1):
        tris.append((0, first_idx[i], first_idx[(i + 1) % n1]))
    for j in range(len(rings) - 1):
        tris.extend(zip_rings_loop(rings[j][0], rings[j][1],
                                   rings[j + 1][0], rings[j + 1][1]))
    return np.asarray(verts, dtype=float), np.array(tris, dtype=np.int64)


def square_build_loop(side, k):
    """The (k + 1)^2 grid of the unit square scaled to ``side``, two
    triangles per cell, row by row."""
    axis = np.linspace(0.0, side, k + 1)
    xx, yy = np.meshgrid(axis, axis, indexing="xy")
    verts = np.stack([xx.ravel(), yy.ravel()], axis=1)

    def vid(i, j):
        return j * (k + 1) + i

    tris = []
    for j in range(k):
        for i in range(k):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return verts, np.array(tris, dtype=np.int64)


def annulus_sector_build_loop(r_inner, r_outer, angle0, angle1, kr, ka):
    """The (kr + 1) x (ka + 1) polar grid of the sector, radius-major, two
    triangles per cell."""
    rr = np.linspace(r_inner, r_outer, kr + 1)
    aa = np.linspace(angle0, angle1, ka + 1)
    verts = np.array(
        [(r * math.cos(a), r * math.sin(a)) for r in rr for a in aa]
    )

    def vid(i, j):  # i radial, j angular
        return i * (ka + 1) + j

    tris = []
    for i in range(kr):
        for j in range(ka):
            v00, v01 = vid(i, j), vid(i, j + 1)
            v10, v11 = vid(i + 1, j), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return verts, np.array(tris, dtype=np.int64)


def edge_table_by_unique(triangles, n_vertices):
    """(edge, first, count) of the undirected edges of a triangulation from
    ``np.unique`` of the half-edge keys lo * N + hi, half-edge 3k + i running
    from corner i to corner i + 1 of triangle k: its stable sort makes each
    edge's first half-edge the first in triangle order.  The keys are int64
    whatever the triangles' dtype; edge and first come back as int32, the
    table's index dtype, and count clipped at 3 as uint8, the table's byte
    count."""
    tail = triangles.ravel().astype(np.int64)
    head = np.roll(triangles, -1, axis=1).ravel().astype(np.int64)
    key = np.minimum(tail, head) * n_vertices + np.maximum(tail, head)
    _, first, edge, count = np.unique(key, return_index=True, return_inverse=True,
                                      return_counts=True)
    return edge.astype(np.int32), first.astype(np.int32), np.minimum(count, 3).astype(np.uint8)


def pattern_by_unique(triangles, n_vertices, boundary_edges):
    """The CSC pattern of a P1 matrix from the edges ``np.unique`` finds:
    (indptr, indices), the (row, column) of each upper, lower and diagonal
    slot of the table's edges, and the edge of each boundary edge."""
    tail = triangles.ravel().astype(np.int64)
    head = np.roll(triangles, -1, axis=1).ravel().astype(np.int64)
    keys = np.unique(np.minimum(tail, head) * n_vertices + np.maximum(tail, head))
    lo, hi = np.divmod(keys, n_vertices)
    diag = np.arange(n_vertices)
    rows, cols = np.concatenate([lo, hi, diag]), np.concatenate([hi, lo, diag])
    csc = scipy.sparse.coo_matrix((np.ones(len(rows)), (rows, cols)),
                                  shape=(n_vertices, n_vertices)).tocsc()
    csc.sort_indices()
    b = boundary_edges.astype(np.int64)
    boundary = np.searchsorted(keys, b.min(axis=1) * n_vertices + b.max(axis=1))
    return csc.indptr, csc.indices, (lo, hi), boundary


def pattern_arrays_by_unique(mesh):
    """The arrays of ``mesh.matrix_pattern()`` from :func:`pattern_by_unique`
    and :func:`edge_table_by_unique`, dtypes included: indptr, indices, the
    diagonal, upper and lower slots, the edge of each half-edge and of each
    boundary edge.  A slot is found by its (column, row) key among the
    pattern's keys, which come sorted."""
    n = len(mesh.vertices)
    indptr, indices, (lo, hi), boundary = pattern_by_unique(mesh.triangles, n,
                                                            mesh.boundary_edges)
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices

    def slot(rows, cols):
        return np.searchsorted(keys, cols.astype(np.int64) * n + rows).astype(np.int32)

    diag = np.arange(n)
    edge = edge_table_by_unique(mesh.triangles, n)[0]
    return (indptr.astype(np.int32), indices.astype(np.int32), slot(diag, diag), slot(lo, hi),
            slot(hi, lo), edge, boundary)
