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
``conn`` by ``gram.scatter_blocks`` as the mass matrix is.

Computations happen in a holding space: the nodal space on the uniformly
refined mesh plus all bubbles.  That space contains S, every phi~, and the
ranges of the projectors, so the operator identities become exact matrix
identities up to quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fespace import FeSpace, build_space, reference_basis, reference_basis_deriv
from .gram import mass_matrix, panel_products, scatter_blocks
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
    combo: np.ndarray          # phi~_nu = phi_nu + sum_mu combo[mu, nu] theta_mu
    pairing: np.ndarray        # <phi~_nu, phi_mu>, quadrature-independent check
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


def bubble_phi_products(b: BubbleSet) -> np.ndarray:
    """<theta_mu, phi_nu> recomputed by quadrature, shape (N, N)."""
    s = b.space
    w_arc, _ = _arc_measure(s.mesh)
    theta = b.coef @ reference_basis(b.degree, _QUAD.nodes)         # (P, l+1, n)
    return scatter_blocks(s.ndof, s.conn, panel_products(
        w_arc, theta, reference_basis(s.degree, _QUAD.nodes)))


def build_dual_basis(s: FeSpace, b: BubbleSet) -> DualBasis:
    """Dual collection from the nodal basis and the bubbles:

    phi~_nu = phi_nu + (<1,phi_nu>/<theta_nu,phi_nu>) theta_nu
                    - sum_mu (<phi_nu,phi_mu>/<theta_mu,phi_mu>) theta_mu
    """
    M = b.mass
    lumped = M.sum(axis=1)
    Gtf = bubble_phi_products(b)
    diag_tf = np.diag(Gtf).copy()
    if np.any(np.abs(diag_tf) < 1e-14 * np.max(b.phi_l2sq)):
        raise EnrichmentError("vanishing <theta_nu, phi_nu>")
    combo = np.diag(lumped / diag_tf) - M / diag_tf[:, None]
    pairing = M + combo.T @ Gtf
    return DualBasis(s, b, combo, pairing, lumped)


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
    fine: FeSpace
    dim: int
    gram: np.ndarray        # L2 Gram of the holding basis
    gram_h1: np.ndarray     # H1-seminorm Gram
    nodal_rep: np.ndarray   # (dim, N) coordinates of phi_nu
    dual_rep: np.ndarray    # (dim, N) coordinates of phi~_nu
    ones_rep: np.ndarray    # coordinates of the constant 1


def holding_space(d: DualBasis) -> HoldingSpace:
    s = d.space
    ell, q, P = s.degree, d.bubbles.degree, s.mesh.n_panels
    s2 = build_space(uniform_refine(s.mesh), ell)
    n2, N = s2.ndof, s.ndof
    dim = n2 + N

    # child 2p + side is the half [side/2, (side+1)/2] of panel p; its active
    # functions are its fine nodal basis and the bubbles of conn[p]
    R = np.zeros((n2, N))      # coordinates of the coarse nodal basis in the fine one
    vals, ders = [], []
    for side in (0, 1):
        xf = 0.5 * (np.linspace(0.0, 1.0, ell + 1) + side)
        R[s2.conn[side::2, :, None], s.conn[:, None, :]] = reference_basis(ell, xf).T
        xp = 0.5 * (_QUAD.nodes + side)
        vals.append(d.bubbles.coef @ reference_basis(q, xp))
        ders.append(d.bubbles.coef @ (0.5 * reference_basis_deriv(q, xp)))

    w_arc, ds_dx = _arc_measure(s2.mesh)
    fine = (2 * P, ell + 1, _QUAD.nodes.size)
    U = np.concatenate([np.broadcast_to(reference_basis(ell, _QUAD.nodes), fine),
                        np.stack(vals, axis=1).reshape(fine)], axis=1)
    dU = np.concatenate([np.broadcast_to(reference_basis_deriv(ell, _QUAD.nodes), fine),
                         np.stack(ders, axis=1).reshape(fine)], axis=1) / ds_dx[:, None, :]
    ids = np.hstack([s2.conn, n2 + np.repeat(s.conn, 2, axis=0)])
    G = scatter_blocks(dim, ids, panel_products(w_arc, U, U))
    G1 = scatter_blocks(dim, ids, panel_products(w_arc, dU, dU))

    return HoldingSpace(s2, dim, 0.5 * (G + G.T), 0.5 * (G1 + G1.T),
                        nodal_rep=np.vstack([R, np.zeros((N, N))]),
                        dual_rep=np.vstack([R, d.combo]),
                        ones_rep=np.concatenate([np.ones(n2), np.zeros(N)]))


def fortin_matrix(d: DualBasis, hold: HoldingSpace | None = None):
    """Coefficient matrix on the holding space of the biorthogonal Fortin
    projector P u = sum_nu <u, phi_nu> / <phi~_nu, phi_nu> phi~_nu."""
    if hold is None:
        hold = holding_space(d)
    denom = np.diag(d.pairing)
    P = hold.dual_rep @ ((hold.nodal_rep.T @ hold.gram) / denom[:, None])
    return P, hold


def gram_operator_norm(P: np.ndarray, G: np.ndarray, rank_tol: float = 1e-10) -> float:
    """Operator norm of the coefficient matrix P in the norm induced by the
    (possibly rank-deficient) Gram matrix G.

    The holding basis can contain exact linear dependencies (for degree 3
    the H1-minimal bubbles are quintics, and per panel one combination of
    them lies in the piecewise-cubic fine space), so the norm is computed
    on the quotient: directions of G below rank_tol represent the zero
    function and are discarded.
    """
    dscale = 1.0 / np.sqrt(np.diag(G))
    Gn = G * np.outer(dscale, dscale)
    lam, V = np.linalg.eigh(Gn)
    keep = lam > rank_tol * lam[-1]
    X = V[:, keep] * np.sqrt(lam[keep])           # Gn^(1/2) on its range
    Pn = (P * dscale[None, :]) / dscale[:, None]  # P in the scaled basis
    Y = X.T @ Pn @ (X / lam[keep])                # Gn^(1/2) P Gn^(-1/2) on the range
    return float(np.linalg.norm(Y, ord=2))


def fortin_l2_norm(d: DualBasis, hold: HoldingSpace | None = None) -> float:
    """Discrete L2 operator norm of the Fortin projector on the holding
    space (largest generalized singular value)."""
    P, hold = fortin_matrix(d, hold)
    return gram_operator_norm(P, hold.gram)


def bijection_matrix(d: DualBasis, hold: HoldingSpace | None = None):
    """The bijection phi_nu -> phi~_nu as a map from coarse nodal
    coefficients into the holding space, plus its inverse on the dual span
    (computed through the biorthogonal pairing)."""
    if hold is None:
        hold = holding_space(d)

    def inverse(u_hold):
        return (hold.nodal_rep.T @ (hold.gram @ u_hold)) / np.diag(d.pairing)

    return hold.dual_rep, inverse, hold


def bijection_l2_norm(d: DualBasis, hold: HoldingSpace | None = None) -> float:
    """Discrete L2 operator norm of the nodal-to-dual bijection,
    sup ||I u|| / ||u|| over the coarse space."""
    if hold is None:
        hold = holding_space(d)
    E = hold.dual_rep
    A = E.T @ hold.gram @ E
    lam = scipy.linalg.eigh(0.5 * (A + A.T), d.bubbles.mass, eigvals_only=True)
    return float(np.sqrt(max(lam)))


def l2_project(s: FeSpace, u, n_quad: int = 20):
    """Coefficients of the L2-orthogonal projection of a callable
    u(points, chart) -> values onto the space; u gets the (m, 2) quadrature
    points of one run of panels on one chart per call."""
    g = gauss_rule(n_quad)
    pts, speed, dt = panel_samples(s.mesh, g.nodes)
    u_vals = np.concatenate([u(pts[a:b].reshape(-1, 2), c).reshape(b - a, -1)
                             for c, a, b in chart_runs(s.mesh)])
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
    if hold is None:
        hold = holding_space(d)
    E = hold.dual_rep
    l2 = np.sqrt(np.einsum("in,ij,jn->n", E, hold.gram, E))
    h1 = np.sqrt(np.maximum(np.einsum("in,ij,jn->n", E, hold.gram_h1, E), 0.0))
    return l2, h1
