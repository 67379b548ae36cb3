"""Constructive verification of the biorthogonal machinery.

None of this appears in the preconditioner itself; the diagonal coupling
matrix only relies on the *existence* of a dual collection.  This module
makes that existence constructive, and ``calderon-bench verify`` measures
it:

* bubble functions theta_nu: locally supported, L2-orthogonal to every
  nodal basis function except their own,
* the dual collection phi~_nu = phi_nu + combination of bubbles, which is
  biorthogonal to the nodal basis, sums to one, and has uniformly local
  support,
* the L2 norms of the induced Fortin projector and of the nodal-to-dual
  bijection, the paper's two stability constants.

The bubbles are held in the space's ``conn`` layout: ``BubbleSet.coef[p, a]``
holds the degree-q Lagrange values on panel p of the bubble of node
conn[p, a], and a bubble lives on exactly its node's support.  Every Gram
block is a per-panel product from ``gram.panel_products``, summed through
``conn`` into a sparse array; only the mass matrix stays dense.

The norms need N x N matrices only.  With phi~ = phi + theta combo, the
pairing <phi~_nu, phi_mu> = M + combo^T <theta, phi> is formed anyway, so
the Gram matrix of the duals is M~ = pairing + pairing^T - M + combo^T
Theta combo, with Theta = <theta, theta> summed from one block per panel.
With M the mass matrix and Pi = diag(pairing), the Fortin projector has
||P||^2 = lambda_max(M~ Pi^-1 M Pi^-1), as for fixed moments v = <u, phi>
the least ||u||^2 is v^T M^-1 v, attained in S.  The bijection has ||I||^2 =
lambda_max(M~, M).

The tests check M~ and both norms against an independent route: a
holding space, the nodal space on the uniformly refined mesh plus every
bubble, which holds S, every phi~ and the ranges of the projectors, so
that the projectors become explicit matrices on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .fespace import FeSpace, reference_basis, reference_basis_deriv
from .gram import mass_matrix, panel_products
from .mesh import panel_speeds
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
    phi_l2sq = np.diag(M)
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
    return BubbleSet(s, q, coef, M)


def _sparse(shape, values, rows, cols) -> scipy.sparse.csr_array:
    """The values at (rows, cols), broadcast together, summed into a sparse array."""
    values, rows, cols = (x.ravel() for x in np.broadcast_arrays(values, rows, cols))
    return scipy.sparse.csr_array((values, (rows, cols)), shape=shape)


def bubble_products(b: BubbleSet, nodal: bool = True) -> scipy.sparse.csr_array:
    """<theta_mu, phi_nu>, or without ``nodal`` <theta_mu, theta_nu>,
    recomputed by quadrature, shape (N, N)."""
    s = b.space
    w_arc, _ = _arc_measure(s.mesh)
    theta = b.coef @ reference_basis(b.degree, _QUAD.nodes)         # (P, l+1, n)
    other = reference_basis(s.degree, _QUAD.nodes) if nodal else theta
    return _sparse((s.ndof, s.ndof), panel_products(w_arc, theta, other),
                   s.conn[:, :, None], s.conn[:, None, :])


def build_dual_basis(s: FeSpace, b: BubbleSet) -> DualBasis:
    """Dual collection from the nodal basis and the bubbles:

    phi~_nu = phi_nu + (<1,phi_nu>/<theta_nu,phi_nu>) theta_nu
                    - sum_mu (<phi_nu,phi_mu>/<theta_mu,phi_mu>) theta_mu
    """
    M = scipy.sparse.csr_array(b.mass)
    lumped = b.mass.sum(axis=1)
    Gtf = bubble_products(b)
    diag_tf = Gtf.diagonal()
    if np.any(np.abs(diag_tf) < 1e-14 * np.diag(b.mass).max()):
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


def dual_gram(d: DualBasis) -> np.ndarray:
    """M~ = <phi~_nu, phi~_mu>, the dense N x N Gram matrix of the duals:
    pairing + pairing^T - M + combo^T Theta combo, Theta = <theta, theta>."""
    Theta = bubble_products(d.bubbles, nodal=False)
    Mt = (d.pairing + d.pairing.T + d.combo.T @ Theta @ d.combo).toarray()
    Mt -= d.bubbles.mass
    return Mt


def _pencil(d: DualBasis, Mt: np.ndarray):
    """M~, M and diag(pairing) in the order c[0], c[-1], c[1], ... of the nodes c round
    the curve, where M is banded: in node order its Cholesky fill decays to subnormals."""
    c = d.space.conn[:, :-1].ravel()
    o = np.column_stack([c, c[::-1]]).ravel()[:c.size]
    return Mt[np.ix_(o, o)], d.bubbles.mass[np.ix_(o, o)], d.pairing.diagonal()[o]


def _sqrt_top(A: np.ndarray, B: np.ndarray | None = None) -> float:
    """sqrt of the largest eigenvalue of the symmetric A, or of the pencil (A, B)."""
    top = [len(A) - 1] * 2
    return float(np.sqrt(scipy.linalg.eigh(A, B, eigvals_only=True, subset_by_index=top)[0]))


def fortin_l2_norm(d: DualBasis, Mt: np.ndarray) -> float:
    """L2 operator norm of the Fortin projector P u = sum_nu <u, phi_nu> /
    <phi~_nu, phi_nu> phi~_nu, from the duals' Gram matrix ``Mt``
    (``dual_gram``): sqrt(lambda_max(L^T Pi^-1 M~ Pi^-1 L)) with M = L L^T."""
    Mt, M, pi = _pencil(d, Mt)
    L = scipy.linalg.cholesky(M, lower=True)
    return _sqrt_top(L.T @ (Mt / np.outer(pi, pi)) @ L)


def bijection_l2_norm(d: DualBasis, Mt: np.ndarray) -> float:
    """L2 operator norm of the nodal-to-dual bijection phi_nu -> phi~_nu,
    sup ||I u|| / ||u|| over the coarse space, from the duals' Gram matrix
    ``Mt`` (``dual_gram``): sqrt(lambda_max(M~, M))."""
    Mt, M, _ = _pencil(d, Mt)
    return _sqrt_top(Mt, M)
