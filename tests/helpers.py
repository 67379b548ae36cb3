"""Shared cached builders for the heavy benchmark artifacts.

Meshes and spaces are memoized for the whole pytest session, and so are the
level records and Gram pairs of spaces with at most LARGE dofs.  Those of
larger spaces (levels 5 and 6 of the cubic family: 12 to 36 MB per N x N
array) are kept for the RECENT most recently used keys only.  Tests use
them in runs, so this rebuilds none of them in a tier-1 session, while
holding every level for the session made the test process peak above 1 GB.
A key spells out the default inner product, so that one level is not built
twice under two spellings.  The returned matrices are read-only, as the
meshes and spaces are, so a test that writes into a shared one fails at the
write.

Also the reference implementations that only tests call: the dense
Richardson inverse and the 2-D adaptive integration oracle; and
``to_scipy``, which hands the program's CSR records to scipy.sparse for
the tests' sparse algebra (the program itself does not import it).
"""

import heapq
from functools import lru_cache, wraps

import numpy as np
import scipy.sparse

from calderon_bench.boundary_operators import assemble_operator_pair
from calderon_bench.cli import build_level
from calderon_bench.fespace import build_space
from calderon_bench.geometry import make_geometry
from calderon_bench.gram import lumped_matrix, mass_matrix
from calderon_bench.mesh import corner_schedule, initial_mesh
from calderon_bench.precond import Coupling
from calderon_bench.quadrature import gauss_rule

ALPHA = 0.05
QUAD_N = 12
LARGE = 1000
RECENT = 2


# block sizes of the mirror blocks on corner levels 1-4: D4's four 1-D
# blocks and its 2-D block on the square (3N/4 rows), the axis mirrors'
# four blocks on the ellipse (N rows)
BLOCK_SIZES = {
    ("square", 1): [(7, 6, 6, 5, 12), (13, 12, 12, 11, 24), (21, 20, 20, 19, 40),
                    (33, 32, 32, 31, 64)],
    ("square", 3): [(19, 18, 18, 17, 36), (37, 36, 36, 35, 72), (61, 60, 60, 59, 120),
                    (97, 96, 96, 95, 192)],
    ("ellipse", 1): [(13, 12, 12, 11), (25, 24, 24, 23), (41, 40, 40, 39), (65, 64, 64, 63)],
}


@lru_cache(maxsize=None)
def geom(kind):
    return make_geometry(kind, 0.5, 2.0)


@lru_cache(maxsize=None)
def corner_mesh(kind, k):
    return corner_schedule(geom(kind), k)


@lru_cache(maxsize=None)
def corner_space(kind, k, ell):
    return build_space(corner_mesh(kind, k), ell)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def corner_operators(kind, k, ell):
    """A and B of the cached level record, so that the operators and the
    level come from one assembly."""
    lev = corner_level(kind, k, ell)
    return lev.A, lev.B


def _by_size(build):
    """``build(kind, k, ell, inner)`` cached for the session on spaces of at
    most LARGE dofs, and for the RECENT most recent keys on larger ones."""
    small, large = lru_cache(maxsize=None)(build), lru_cache(maxsize=RECENT)(build)

    @wraps(build)
    def cached(kind, k, ell, inner="exact"):
        return (small if corner_space(kind, k, ell).ndof <= LARGE else large)(kind, k, ell, inner)
    return cached


@_by_size
def corner_gram(kind, k, ell, inner):
    s = corner_space(kind, k, ell)
    return _read_only(mass_matrix(s, inner, n_quad=QUAD_N), lumped_matrix(s, inner, n_quad=QUAD_N))


@_by_size
def corner_level(kind, k, ell, inner):
    """The run path's level record on corner level k."""
    lev = build_level(corner_space(kind, k, ell), inner, QUAD_N, ALPHA)
    _read_only(lev.A, lev.B, lev.D, lev.d, *lev.B_factors)
    return lev


@lru_cache(maxsize=None)
def circle_uniform_space(n_panels, ell):
    m = initial_mesh(geom("circle"), n_panels)
    return build_space(m, ell)


@lru_cache(maxsize=None)
def circle_uniform_operators(n_panels, ell):
    return _read_only(*assemble_operator_pair(circle_uniform_space(n_panels, ell), QUAD_N, ALPHA))


def to_scipy(X):
    """A ``spectral.Csr`` record as a scipy.sparse CSR matrix with its own
    copy of the arrays."""
    return scipy.sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape, copy=True)


def faddeev_leverrier(A):
    """Characteristic polynomial coefficients (monic, descending powers)
    via trace recursion; independent of any eigensolver."""
    n = A.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(A)
    c = 1.0
    I = np.eye(n)
    for k in range(1, n + 1):
        Mk = A @ Mk + c * I
        c = -np.trace(A @ Mk) / k
        coeffs.append(c)
    return np.array(coeffs)


def richardson_inverse(M, d, k, omega):
    """R^(k) from k damped Richardson iterations for M^{-1} preconditioned
    by the diagonal d, starting from R^(0) = 0: the chain of the builders
    applied to I, symmetrized; a dense array."""
    R = Coupling.dense(M).richardson((np.eye(M.shape[0]),), d, k, omega)[0]
    return 0.5 * (R + R.T)


def adaptive_integrate_2d(f, box, tol=1e-10, max_boxes=40000):
    """Adaptive integration oracle over a box ((ax, bx), (ay, by)), with
    ``f(x, y)`` mapping node arrays to values: quadrisects the box with the
    largest error estimate (6- against 12-point tensor Gauss) until the
    accumulated estimate drops below tol times the integral; suitable for
    corner (integrable) singularities."""
    (ax, bx), (ay, by) = box
    g6 = gauss_rule(6)
    g12 = gauss_rule(12)

    def tensor(a0, b0, a1, b1, g):
        x = a0 + (b0 - a0) * g.nodes
        y = a1 + (b1 - a1) * g.nodes
        vals = f(np.repeat(x, y.size), np.tile(y, x.size))
        w = np.repeat(g.weights, y.size) * np.tile(g.weights, x.size)
        return (b0 - a0) * (b1 - a1) * np.dot(w, vals)

    def piece(a0, b0, a1, b1):
        fine = tensor(a0, b0, a1, b1, g12)
        return fine, abs(fine - tensor(a0, b0, a1, b1, g6))

    val, err = piece(ax, bx, ay, by)
    heap = [(-err, 0, ax, bx, ay, by, val)]
    total, total_err, counter = val, err, 0
    while total_err > tol * max(abs(total), 1e-300) and len(heap) < max_boxes:
        neg_err, _, a0, b0, a1, b1, v0 = heapq.heappop(heap)
        if -neg_err <= 0:
            break
        mx, my = 0.5 * (a0 + b0), 0.5 * (a1 + b1)
        children = ((a0, mx, a1, my), (mx, b0, a1, my), (a0, mx, my, b1), (mx, b0, my, b1))
        total -= v0
        total_err += neg_err
        for quad in children:
            v, e = piece(*quad)
            total += v
            total_err += e
            counter += 1
            heapq.heappush(heap, (-e, counter) + quad + (v,))
    return total
