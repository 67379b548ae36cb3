"""Constructive verification of the biorthogonal machinery.

None of this appears in the preconditioner itself; the diagonal coupling
matrix only relies on the *existence* of a dual collection.  This module
makes that existence constructive so the tests can verify it numerically:

* bubble functions theta_nu: locally supported, L2-orthogonal to every
  nodal basis function except their own,
* the dual collection phi~_nu = phi_nu + combination of bubbles, which is
  biorthogonal to the nodal basis, sums to one, and has uniformly local
  support,
* the induced Fortin projector, the nodal-to-dual bijection, and the plain
  L2 projector.

The bubbles are held in the space's ``conn`` layout: ``BubbleSet.coef[p, a]``
holds the degree-q Lagrange values on panel p of the bubble of node
conn[p, a], and a bubble lives on exactly its node's support.  Every Gram
block is a per-panel product from ``gram.panel_products``, summed through
``conn`` into a sparse array; only the mass matrix stays dense.

Computations happen in a holding space: the nodal space on the uniformly
refined mesh plus all bubbles.  That space contains S, every phi~, and the
ranges of the projectors, so the operator identities become exact matrix
identities up to quadrature.  Its Gram matrices G and the coordinates R
and E of the nodal basis and of the duals are sparse.  The norms need N x N
matrices only: with M~ = E^T G E, M the mass matrix and Pi = diag(pairing),
the Fortin projector has ||P||^2 = lambda_max(M~ Pi^-1 M Pi^-1), as for
fixed moments v = R^T G u the least ||u||^2 is v^T M^-1 v, and M is SPD even
where the holding basis is dependent.  The bijection has ||I||^2 =
lambda_max(M~, M), and the duals have L2 norms sqrt(diag M~).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .fespace import FeSpace, build_space, reference_basis, reference_basis_deriv
from .gram import mass_matrix, panel_products
from .mesh import chart_runs, panel_samples, panel_speeds, uniform_refine
from .quadrature import gauss_rule

_QUAD = gauss_rule(16)


class EnrichmentError(RuntimeError):
    """The local constraint system is singular; the enriched bubble space
    is too poor for the requested degree."""


@dataclass(frozen=True)
class BubbleSet:
    space: FeSpace
    degree: int                # enriched polynomial degree q = 2l + 2
    coef: np.ndarray           # (P, l+1, q+1): values on panel p of the bubble of conn[p, a]
    mass: np.ndarray           # exact mass matrix of the space, 16-point rule
    phi_l2sq: np.ndarray       # ||phi_nu||_{L2}^2 entering the constraints


@dataclass(frozen=True)
class DualBasis:
    space: FeSpace
    bubbles: BubbleSet
    combo: scipy.sparse.csr_array    # phi~_nu = phi_nu + sum_mu combo[mu, nu] theta_mu
    pairing: scipy.sparse.csr_array  # <phi~_nu, phi_mu>, quadrature-independent check
    lumped: np.ndarray         # <1, phi_nu>


def _arc_measure(m):
    """Per panel (P, n): quadrature weights of the arc measure at the _QUAD
    nodes, and the arc-length Jacobian ds/dx of the reference coordinate."""
    speed, dt = panel_speeds(m, _QUAD.nodes)
    return _QUAD.weights * speed * dt[:, None], speed * dt[:, None]


def _solve_kkt(C, H, g):
    """Batched minimizers of x^T H x subject to C x = g, for C (B, r, n),
    H (B, n, n) and right-hand sides g (B, r, k); returns x (B, n, k)."""
    B, r, n = C.shape
    kkt = np.block([[2.0 * H, np.swapaxes(C, 1, 2)], [C, np.zeros((B, r, r))]])
    rhs = np.concatenate([np.zeros((B, n, g.shape[2])), g], axis=1)
    try:
        return np.linalg.solve(kkt, rhs)[:, :n]
    except np.linalg.LinAlgError:
        raise EnrichmentError(f"singular constraint system: {n} bubble values "
                              f"cannot meet {r} constraints") from None


def build_bubbles(s: FeSpace) -> BubbleSet:
    """Per node, the H1-seminorm-minimal enriched function theta_nu with
    <theta_nu, phi_mu> = delta_{nu mu} ||phi_nu||^2 for every mu whose
    support meets supp phi_nu, vanishing at the support boundary.

    The solve happens on the support mapped to reference intervals, with
    the true arc measure pulled along, so the constraints hold exactly for
    curved charts as well.  The vertex node of panel p has the unknowns
    1..q on panel p-1 (value q sits at the node, shared with value 0 on
    panel p) and 1..q-1 on panel p, and the constraint rows conn[p-1] then
    conn[p][1:]; all vertex nodes are one batched KKT solve.  For l > 1
    each panel solves once more, with one right-hand side per interior node.
    """
    ell, P = s.degree, s.mesh.n_panels
    q = 2 * ell + 2
    M = mass_matrix(s, "exact", n_quad=16)
    phi_l2sq = np.diag(M).copy()
    w_arc, ds_dx = _arc_measure(s.mesh)
    Dq = reference_basis_deriv(q, _QUAD.nodes)
    # per panel: <phi_a, L_j> (P, l+1, q+1) and the H1 pairing of L_i, L_j
    C = panel_products(w_arc, reference_basis(ell, _QUAD.nodes), reference_basis(q, _QUAD.nodes))
    H = panel_products(_QUAD.weights / ds_dx, Dq, Dq)
    coef = np.zeros((P, ell + 1, q + 1))

    # the two support panels of each vertex node: p-1 (node at a = l) and p
    # (a = 0); S maps a panel's q+1 values onto the 2q-1 unknowns, dropping
    # the support's outer ends, and T its l+1 nodes onto the 2l+1 rows
    sides = ((np.arange(P) - 1, ell, np.eye(2 * q - 1, q + 1, k=1),
              np.eye(2 * ell + 1, ell + 1)),
             (np.arange(P), 0, np.eye(2 * q - 1, q + 1, k=1 - q),
              np.eye(2 * ell + 1, ell + 1, k=-ell)))
    g = np.zeros((P, 2 * ell + 1, 1))
    g[:, ell, 0] = phi_l2sq[s.conn[:, 0]]
    x = _solve_kkt(sum(T @ C[p] @ S.T for p, _, S, T in sides),
                   sum(S @ H[p] @ S.T for p, _, S, _ in sides), g)[..., 0]
    for p, a, S, _ in sides:
        coef[p, a] = x @ S

    if ell > 1:
        # interior nodes: the panel's own values 1..q-1 under its l+1 constraints
        S = np.eye(q - 1, q + 1, k=1)
        a = np.arange(1, ell)
        g = np.zeros((P, ell + 1, ell - 1))
        g[:, a, a - 1] = phi_l2sq[s.conn[:, a]]
        coef[:, a] = np.swapaxes(_solve_kkt(C @ S.T, S @ H @ S.T, g), 1, 2) @ S
    return BubbleSet(s, q, coef, M, phi_l2sq)


def bubble_phi_products(b: BubbleSet) -> scipy.sparse.csr_array:
    """<theta_mu, phi_nu> recomputed by quadrature, shape (N, N)."""
    s = b.space
    w_arc, _ = _arc_measure(s.mesh)
    theta = b.coef @ reference_basis(b.degree, _QUAD.nodes)         # (P, l+1, n)
    return _sparse((s.ndof, s.ndof),
                   panel_products(w_arc, theta, reference_basis(s.degree, _QUAD.nodes)),
                   s.conn[:, :, None], s.conn[:, None, :])


def build_dual_basis(s: FeSpace, b: BubbleSet) -> DualBasis:
    """Dual collection from the nodal basis and the bubbles:

    phi~_nu = phi_nu + (<1,phi_nu>/<theta_nu,phi_nu>) theta_nu
                    - sum_mu (<phi_nu,phi_mu>/<theta_mu,phi_mu>) theta_mu
    """
    M = scipy.sparse.csr_array(b.mass)
    lumped = b.mass.sum(axis=1)
    Gtf = bubble_phi_products(b)
    diag_tf = Gtf.diagonal()
    if np.any(np.abs(diag_tf) < 1e-14 * np.max(b.phi_l2sq)):
        raise EnrichmentError("vanishing <theta_nu, phi_nu>")
    combo = scipy.sparse.diags_array(1.0 / diag_tf) @ (scipy.sparse.diags_array(lumped) - M)
    pairing = M + combo.T @ Gtf
    return DualBasis(s, b, combo.tocsr(), pairing.tocsr(), lumped)


def eval_dual_sum(d: DualBasis, n_samples: int = 1000):
    """Max deviation of sum_nu phi~_nu from 1, sampled along the curve."""
    s = d.space
    per_panel = max(2, -(-n_samples // s.mesh.n_panels))
    xs = np.linspace(0.02, 0.98, per_panel)
    weight = d.combo.sum(axis=1)[s.conn]     # sum over nu of each panel's bubble weights
    theta = d.bubbles.coef @ reference_basis(d.bubbles.degree, xs)
    val = 1.0 + np.einsum("pa,pax->px", weight, theta)    # nodal partition of unity is exact
    return float(np.max(np.abs(val - 1.0)))


# ---------------------------------------------------------------------------
# holding space: S on the once-refined mesh, plus the bubbles


@dataclass(frozen=True)
class HoldingSpace:
    dim: int
    gram: scipy.sparse.csr_array       # L2 Gram of the holding basis
    gram_h1: scipy.sparse.csr_array    # H1-seminorm Gram
    nodal_rep: scipy.sparse.csr_array  # (dim, N) coordinates of phi_nu
    dual_rep: scipy.sparse.csr_array   # (dim, N) coordinates of phi~_nu
    ones_rep: np.ndarray               # coordinates of the constant 1


def _sparse(shape, values, rows, cols) -> scipy.sparse.csr_array:
    """The values at (rows, cols), broadcast together, summed into a sparse array."""
    values, rows, cols = (x.ravel() for x in np.broadcast_arrays(values, rows, cols))
    return scipy.sparse.csr_array((values, (rows, cols)), shape=shape)


def holding_space(d: DualBasis) -> HoldingSpace:
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


def dual_gram(hold: HoldingSpace, h1: bool = False) -> np.ndarray:
    """M~ = E^T G E, the dense N x N Gram matrix of the duals in the L2
    product, or with ``h1`` in the H1 seminorm."""
    E = hold.dual_rep
    return (E.T @ (hold.gram_h1 if h1 else hold.gram) @ E).toarray()


def fortin_matrix(d: DualBasis, hold: HoldingSpace | None = None):
    """Dense coefficient matrix on the holding space of the biorthogonal
    Fortin projector P u = sum_nu <u, phi_nu> / <phi~_nu, phi_nu> phi~_nu."""
    hold = hold or holding_space(d)
    pi = d.pairing.diagonal()
    P = hold.dual_rep @ ((hold.nodal_rep.T @ hold.gram).toarray() / pi[:, None])
    return P, hold


def _pencil(d: DualBasis, hold: HoldingSpace | None):
    """M~, M and diag(pairing) in the order c[0], c[-1], c[1], ... of the nodes c round
    the curve, where M is banded: in node order its Cholesky fill decays to subnormals."""
    c = d.space.conn[:, :-1].ravel()
    o = np.column_stack([c, c[::-1]]).ravel()[:c.size]
    return (dual_gram(hold or holding_space(d))[np.ix_(o, o)], d.bubbles.mass[np.ix_(o, o)],
            d.pairing.diagonal()[o])


def _sqrt_top(A: np.ndarray, B: np.ndarray | None = None) -> float:
    """sqrt of the largest eigenvalue of the symmetric A, or of the pencil (A, B)."""
    top = [len(A) - 1] * 2
    return float(np.sqrt(scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=top)[0]))


def fortin_l2_norm(d: DualBasis, hold: HoldingSpace | None = None) -> float:
    """Discrete L2 operator norm of the Fortin projector on the holding
    space, sqrt(lambda_max(L^T Pi^-1 M~ Pi^-1 L)) with M = L L^T."""
    Mt, M, pi = _pencil(d, hold)
    L = scipy.linalg.cholesky(M, lower=True)
    return _sqrt_top(L.T @ (Mt / np.outer(pi, pi)) @ L)


def bijection_matrix(d: DualBasis, hold: HoldingSpace | None = None):
    """The bijection phi_nu -> phi~_nu as a dense map from coarse nodal
    coefficients into the holding space, plus its inverse on the dual span
    (computed through the biorthogonal pairing)."""
    hold = hold or holding_space(d)

    def inverse(u_hold):
        return (hold.nodal_rep.T @ (hold.gram @ u_hold)) / d.pairing.diagonal()

    return hold.dual_rep.toarray(), inverse, hold


def bijection_l2_norm(d: DualBasis, hold: HoldingSpace | None = None) -> float:
    """Discrete L2 operator norm of the nodal-to-dual bijection,
    sup ||I u|| / ||u|| over the coarse space: sqrt(lambda_max(M~, M))."""
    Mt, M, _ = _pencil(d, hold)
    return _sqrt_top(Mt, M)


def l2_project(s: FeSpace, u, n_quad: int = 20):
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


def _norms(s: FeSpace, coef, degree):
    """(L2 norm, H1 seminorm) of the functions whose degree-``degree``
    Lagrange values on panel p are coef[p, a], (P, l+1, degree+1), or
    coef[a] on every panel; function conn[p, a] owns row a."""
    w_arc, ds_dx = _arc_measure(s.mesh)
    vals = coef @ reference_basis(degree, _QUAD.nodes)
    ders = (coef @ reference_basis_deriv(degree, _QUAD.nodes)) / ds_dx[:, None, :]
    sq = (np.diagonal(panel_products(w_arc, f, f), axis1=1, axis2=2) for f in (vals, ders))
    return tuple(np.sqrt(np.bincount(s.conn.ravel(), weights=x.ravel(), minlength=s.ndof))
                 for x in sq)


def nodal_norms(s: FeSpace):
    """(L2 norm, H1 seminorm) of every nodal basis function."""
    return _norms(s, np.eye(s.degree + 1), s.degree)


def bubble_norms(b: BubbleSet):
    """(L2 norm, H1 seminorm) of every bubble."""
    return _norms(b.space, b.coef, b.degree)


def dual_norms(d: DualBasis, hold: HoldingSpace | None = None):
    """(L2 norm, H1 seminorm) of every dual function."""
    hold = hold or holding_space(d)
    return tuple(np.sqrt(np.maximum(np.diag(dual_gram(hold, h1)), 0.0)) for h1 in (False, True))
