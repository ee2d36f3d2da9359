"""Test-side references for the solvers of ``robinsym.fem`` that update their
vectors in place: the same steps with a fresh array for every sum, the
forms the in-place updates must match bit for bit."""

import math

import numpy as np

from robinsym import fem


def lobpcg_allocating(A, precondition, mass, x):
    """(lambda, x) of ``fem._lobpcg`` with each new p = c1 w + c2 p and
    x = c0 x + p formed as a new array: a sum from 0 over the basis after
    the first vector, then the first vector's multiple plus p."""
    Mx = mass(x)
    scale = 1.0 / math.sqrt(fem._dot(x, Mx))
    x = x * scale
    Mx *= scale
    Ax = A(x)
    lam = fem._dot(x, Ax)
    p = None
    for _ in range(fem._LOBPCG_MAX_ITERS):
        w = precondition(Ax - lam * Mx)
        Mw = mass(w)
        scale = 1.0 / math.sqrt(fem._dot(w, Mw))
        w *= scale
        Mw *= scale
        basis = [(x, Ax, Mx), (w, A(w), Mw)]
        if p is not None:
            basis.append(p)
        gram_a = [[fem._dot(u[0], v[1]) for v in basis] for u in basis]
        gram_m = [[fem._dot(u[0], v[2]) for v in basis] for u in basis]
        for k in range(len(basis), 1, -1):
            coef = fem._ritz([row[:k] for row in gram_a[:k]], [row[:k] for row in gram_m[:k]])
            if coef is not None:
                break
        p = tuple(sum(c * part[m] for c, part in zip(coef[1:k], basis[1:k])) for m in range(3))
        x, Ax, Mx = (coef[0] * basis[0][m] + p[m] for m in range(3))
        scale = 1.0 / math.sqrt(fem._dot(x, Mx))
        x *= scale
        Ax *= scale
        Mx *= scale
        scale = 1.0 / math.sqrt(fem._dot(p[0], p[2]))
        for part in p:
            part *= scale
        lam, last = fem._dot(x, Ax), lam
        if last - lam <= fem._LOBPCG_TOL * lam:
            break
    Ax, Mx = A(x), mass(x)
    return fem._dot(x, Ax) / fem._dot(x, Mx), x


def multilevel_solve_allocating(hierarchy, b):
    """``RobinHierarchy.solve`` with the refinement step's residual b - A x
    formed as a new array."""
    vcycle, work = fem._VCycle(hierarchy), np.empty((4, len(b)))
    x, _, _ = hierarchy._cg(b, fem._CG_TOL, vcycle, work)
    dx, _, _ = hierarchy._cg(b - hierarchy.matvec(x), fem._REFINE_TOL, vcycle, work)
    x += dx
    return x
