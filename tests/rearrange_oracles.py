"""Test-side reference for ``DistributionData.from_field``: the corner-sort
construction, the one the vertex-ranking build must match bit for bit."""

import numpy as np

from robinsym.rearrange import _VALUE_MERGE_TOL, DistributionData


def corner_sort_distribution(field) -> DistributionData:
    """mu of |field| from its triangles' corner values: both signs' corner
    triples sorted as floats, every positive corner value ranked by one
    ``np.unique`` and snapped onto its merged breakpoint, then the pieces
    accumulated slot by slot."""
    mesh = field.mesh
    weights = mesh.chart_areas() * mesh.centroid_density()
    total = float(np.sum(weights))
    tri_vals = field.values[mesh.triangles]
    # |h| > t for t >= 0 splits into {h > t} and {-h > t}, disjoint
    triples = np.vstack([np.sort(tri_vals, axis=1), np.sort(-tri_vals, axis=1)])
    w = np.concatenate([weights, weights])
    keep = triples[:, 2] > 0.0
    triples, w = triples[keep], w[keep]

    scale = float(np.max(np.abs(tri_vals))) if tri_vals.size else 1.0
    tol = _VALUE_MERGE_TOL * max(scale, 1.0)
    positive = triples > 0.0
    vals = triples[positive]
    raw, inverse = np.unique(np.concatenate([[0.0], vals]), return_inverse=True)
    merged = np.concatenate([[True], np.diff(raw) > tol])
    breaks = raw[merged]

    # snap the positive values onto the nearest merged breakpoint; a raw
    # value's lower neighbour is the last kept breakpoint at or below it
    lower = (np.cumsum(merged) - 1)[inverse[1:]]
    upper = np.minimum(lower + 1, len(breaks) - 1)
    up = np.abs(vals - breaks[lower]) > np.abs(breaks[upper] - vals)
    index = np.where(up, upper, lower)
    triples[positive] = breaks[index]
    # slot j + 1 starts at breaks[j]; every value <= 0 starts slot 1
    slot = np.ones(triples.shape, dtype=np.intp)
    slot[positive] = index + 1

    K = len(breaks)
    a, b, c = triples.T
    sa, sb, sc = slot.T
    flat = a > 0.0
    rise = b > np.maximum(a, 0.0)
    fall = c > np.maximum(b, 0.0)
    ar, cr, wr = a[rise], c[rise], w[rise]
    d1 = (b[rise] - ar) * (cr - ar)
    af, cf, wf = a[fall], c[fall], w[fall]
    d2 = (cf - b[fall]) * (cf - af)
    n_flat = np.count_nonzero(flat)
    at = np.concatenate([np.ones(n_flat, dtype=np.intp), sa[flat],
                         sa[rise], sb[rise], sb[fall], sc[fall]])
    curved = at[2 * n_flat:]

    def running(index, coefs):
        # bincount returns int zeros when it has no term at all, so the
        # float dtype is asked for: mu = total below t = 0 even then
        terms = np.concatenate([x for coef in coefs for x in (coef, -coef)])
        return np.cumsum(np.bincount(index, terms, minlength=K + 1), dtype=float)

    A = running(at, [w[flat], wr - wr * ar**2 / d1, wf * cf**2 / d2])
    B = running(curved, [2.0 * wr * ar / d1, -2.0 * wf * cf / d2])
    C = running(curved, [-wr / d1, wf / d2])
    A[0], B[0], C[0] = total, 0.0, 0.0
    A[K], B[K], C[K] = 0.0, 0.0, 0.0
    return DistributionData(breaks, A, B, C, total)
