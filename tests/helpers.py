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
Richardson inverse and the 2-D adaptive integration oracle; the nodes'
chart parameters and points, which the program does not store; the
per-alias corner loop that ``corner_panels`` replaced;
``to_scipy``, which hands the program's CSR records to scipy.sparse for
the tests' sparse algebra (the program itself does not import it); and
the duals' oracles: the holding space, on which the Fortin projector and
the bijection are explicit matrices and the duals' Gram matrices are
E^T G E, the plain L2 projector, and the nodal, bubble and dual norms.
"""

import heapq
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np
import scipy.sparse

from calderon_bench.boundary_operators import assemble_operator_pair
from calderon_bench.cli import build_level
from calderon_bench.duals import _QUAD, _arc_measure, _sparse
from calderon_bench.fespace import build_space, reference_basis, reference_basis_deriv
from calderon_bench.geometry import make_geometry
from calderon_bench.gram import lumped_matrix, mass_matrix, panel_products
from calderon_bench.mesh import (chart_runs, corner_schedule, initial_mesh, panel_samples,
                                 uniform_refine)
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


def node_params(s):
    """The chart and the chart parameter (ndof,) of every node of a space:
    vertex node i at the start of panel i, then the interior nodes panel by
    panel, equispaced in the panel's parameter."""
    m, x = s.mesh, np.arange(1, s.degree) / s.degree
    chart = np.concatenate([m.chart, np.repeat(m.chart, s.degree - 1)])
    param = np.concatenate([m.t0, (m.t0[:, None] + x * (m.t1 - m.t0)[:, None]).ravel()])
    return chart, param


def node_points(s):
    """The curve point (ndof, 2) of every node of a space."""
    charts = s.mesh.geometry.charts
    return np.array([charts[c].point(t) for c, t in zip(*node_params(s))])


def corner_panels_by_alias(m):
    """The mask of ``mesh.corner_panels`` by one pass per corner alias, as
    the program computed it before its one broadcast comparison."""
    tol = 1e-12 * (m.t1 - m.t0)
    hit = np.zeros(m.n_panels, dtype=bool)
    for corner in m.geometry.corners:
        for ci, tc in corner:
            hit |= (m.chart == ci) & (m.t0 - tol <= tc) & (tc <= m.t1 + tol)
    return hit


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


# ---------------------------------------------------------------------------
# the duals' oracles: S on the once-refined mesh, plus the bubbles


@dataclass(frozen=True)
class HoldingSpace:
    dim: int
    gram: scipy.sparse.csr_array       # L2 Gram of the holding basis
    gram_h1: scipy.sparse.csr_array    # H1-seminorm Gram
    nodal_rep: scipy.sparse.csr_array  # (dim, N) coordinates of phi_nu
    dual_rep: scipy.sparse.csr_array   # (dim, N) coordinates of phi~_nu
    ones_rep: np.ndarray               # coordinates of the constant 1


def holding_space(d):
    """The nodal space on the uniformly refined mesh plus all bubbles of the
    dual basis ``d``: it holds S, every dual and the ranges of the Fortin
    projector and of the bijection."""
    s = d.space
    ell, q, P, n = s.degree, d.bubbles.degree, s.mesh.n_panels, _QUAD.nodes.size
    s2 = build_space(uniform_refine(s.mesh), ell)
    n2, N = s2.ndof, s.ndof
    dim = n2 + N

    # children 2p and 2p + 1 are the halves of panel p; their fine nodes a < l
    # (the others start the next child) count every fine node once, and R
    # holds there the coarse nodal basis of conn[p].  A child's active
    # functions are its fine nodal basis and the bubbles of conn[p]
    R = _sparse((n2, N), reference_basis(ell, np.arange(2 * ell) / (2 * ell)).T,
                s2.conn[:, :ell].reshape(P, 2 * ell, 1), s.conn[:, None, :])
    xp = 0.5 * (_QUAD.nodes + np.arange(2)[:, None]).ravel()     # both halves of [0, 1]
    fine = (2 * P, ell + 1, n)
    vals, ders = (np.swapaxes((d.bubbles.coef @ B).reshape(P, ell + 1, 2, n), 1, 2).reshape(fine)
                  for B in (reference_basis(q, xp), 0.5 * reference_basis_deriv(q, xp)))

    w_arc, ds_dx = _arc_measure(s2.mesh)
    U = np.concatenate([np.broadcast_to(reference_basis(ell, _QUAD.nodes), fine), vals], axis=1)
    dU = np.concatenate([np.broadcast_to(reference_basis_deriv(ell, _QUAD.nodes), fine),
                         ders], axis=1) / ds_dx[:, None, :]
    ids = np.hstack([s2.conn, n2 + np.repeat(s.conn, 2, axis=0)])
    G, G1 = (_sparse((dim, dim), panel_products(w_arc, X, X), ids[:, :, None], ids[:, None, :])
             for X in (U, dU))
    return HoldingSpace(dim, G, G1,
                        nodal_rep=scipy.sparse.vstack([R, scipy.sparse.csr_array((N, N))], "csr"),
                        dual_rep=scipy.sparse.vstack([R, d.combo], "csr"),
                        ones_rep=np.concatenate([np.ones(n2), np.zeros(N)]))


def holding_dual_gram(hold, h1=False):
    """E^T G E, the dense N x N Gram matrix of the duals in the L2 product,
    or with ``h1`` in the H1 seminorm, on the holding space."""
    E = hold.dual_rep
    return (E.T @ (hold.gram_h1 if h1 else hold.gram) @ E).toarray()


def fortin_matrix(d, hold):
    """Dense coefficient matrix on the holding space of the biorthogonal
    Fortin projector P u = sum_nu <u, phi_nu> / <phi~_nu, phi_nu> phi~_nu."""
    pi = d.pairing.diagonal()
    return hold.dual_rep @ ((hold.nodal_rep.T @ hold.gram).toarray() / pi[:, None])


def bijection_matrix(d, hold):
    """The bijection phi_nu -> phi~_nu as a dense map from coarse nodal
    coefficients into the holding space, plus its inverse on the dual span
    (computed through the biorthogonal pairing)."""
    def inverse(u_hold):
        return (hold.nodal_rep.T @ (hold.gram @ u_hold)) / d.pairing.diagonal()

    return hold.dual_rep.toarray(), inverse


def l2_project(s, u, n_quad=20):
    """Coefficients of the L2-orthogonal projection of a callable
    u(points, chart) -> values onto the space; u gets the (m, 2) quadrature
    points of one run of panels on one chart per call."""
    g = gauss_rule(n_quad)
    pts, speed, dt = panel_samples(s.mesh, g.nodes)
    u_vals = np.concatenate([u(pts[a:b].reshape(-1, 2), c).reshape(b - a, -1)
                             for c, a, b in chart_runs(s.mesh.chart)])
    moments = (g.weights * speed * dt[:, None] * u_vals) @ reference_basis(s.degree, g.nodes).T
    rhs = np.bincount(s.conn.ravel(), weights=moments.ravel(), minlength=s.ndof)
    return np.linalg.solve(mass_matrix(s, "exact", n_quad=n_quad), rhs)


def _norms(s, coef, degree):
    """(L2 norm, H1 seminorm) of the functions whose degree-``degree``
    Lagrange values on panel p are coef[p, a], (P, l+1, degree+1), or
    coef[a] on every panel; function conn[p, a] owns row a."""
    w_arc, ds_dx = _arc_measure(s.mesh)
    vals = coef @ reference_basis(degree, _QUAD.nodes)
    ders = (coef @ reference_basis_deriv(degree, _QUAD.nodes)) / ds_dx[:, None, :]
    sq = (np.diagonal(panel_products(w_arc, f, f), axis1=1, axis2=2) for f in (vals, ders))
    return tuple(np.sqrt(np.bincount(s.conn.ravel(), weights=x.ravel(), minlength=s.ndof))
                 for x in sq)


def nodal_norms(s):
    """(L2 norm, H1 seminorm) of every nodal basis function."""
    return _norms(s, np.eye(s.degree + 1), s.degree)


def bubble_norms(b):
    """(L2 norm, H1 seminorm) of every bubble."""
    return _norms(b.space, b.coef, b.degree)


def dual_norms(hold):
    """(L2 norm, H1 seminorm) of every dual function, on the holding space."""
    return tuple(np.sqrt(np.maximum(np.diag(holding_dual_gram(hold, h1)), 0.0))
                 for h1 in (False, True))
