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

Computations happen in a holding space: the nodal space on the uniformly
refined mesh plus all bubbles.  That space contains S, every phi~, and the
ranges of the projectors, so the operator identities become exact matrix
identities up to quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fespace import FeSpace, build_space, node_supports, reference_basis, reference_basis_deriv
from .gram import mass_matrix
from .mesh import panel_samples, panel_speeds, uniform_refine
from .quadrature import gauss_rule

_QUAD = gauss_rule(16)


class EnrichmentError(RuntimeError):
    """The local constraint system is singular; the enriched bubble space
    is too poor for the requested degree."""


@dataclass(frozen=True)
class BubbleSet:
    space: FeSpace
    degree: int                # enriched polynomial degree 2l + 2
    local: tuple               # per node: dict panel -> (degree+1,) Lagrange values
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


def build_bubbles(s: FeSpace) -> BubbleSet:
    """Per node, the H1-seminorm-minimal enriched function theta_nu with
    <theta_nu, phi_mu> = delta_{nu mu} ||phi_nu||^2 for every mu whose
    support meets supp phi_nu, vanishing at the support boundary.

    The solve happens on the support mapped to reference intervals, with
    the true arc measure pulled along, so the constraints hold exactly for
    curved charts as well.
    """
    q = 2 * s.degree + 2
    supports = node_supports(s)
    M = mass_matrix(s, "exact", n_quad=16)
    phi_l2sq = np.diag(M).copy()
    Vq = reference_basis(q, _QUAD.nodes)
    Dq = reference_basis_deriv(q, _QUAD.nodes)
    Vl = reference_basis(s.degree, _QUAD.nodes)
    w_arcs, ds_dxs = _arc_measure(s.mesh)

    local = []
    for nu in range(s.ndof):
        sup = supports[nu]
        if len(sup) == 1:
            panels = [sup[0][0]]
        else:
            # vertex node: order support panels left (node at x=1), right (x=0)
            left = next(p for p, a in sup if a == s.degree)
            right = next(p for p, a in sup if a == 0)
            panels = [left, right]
        # dof table: (panel, local lagrange index); outer boundary dofs are
        # dropped, the junction dof is shared between the two panels
        dofs = []
        if len(panels) == 1:
            dofs = [(panels[0], j) for j in range(1, q)]
        else:
            dofs = [(panels[0], j) for j in range(1, q + 1)]
            dofs += [(panels[1], j) for j in range(1, q)]
        ndof = len(dofs)

        rows = []
        for p in panels:
            rows.extend(int(i) for i in s.conn[p])
        rows = sorted(set(rows))
        row_of = {mu: r for r, mu in enumerate(rows)}

        C = np.zeros((len(rows), ndof))
        H = np.zeros((ndof, ndof))
        for p in panels:
            w_arc, ds_dx = w_arcs[p], ds_dxs[p]
            cols = [j for j, (pp, _) in enumerate(dofs) if pp == p]
            if len(panels) == 2 and p == panels[1]:
                # junction dof (panels[0], q) doubles as local index 0 here
                cols = [q - 1] + cols
                idxs = [0] + [dofs[j][1] for j in cols[1:]]
            else:
                idxs = [dofs[j][1] for j in cols]
            B = Vq[idxs]                 # bubble dof values at quad points
            dB = Dq[idxs]
            for mu in s.conn[p]:
                C[row_of[mu], cols] += B @ (w_arc * Vl[list(s.conn[p]).index(mu)])
            H[np.ix_(cols, cols)] += (dB / ds_dx) @ (dB * _QUAD.weights).T

        g = np.zeros(len(rows))
        g[row_of[nu]] = phi_l2sq[nu]
        kkt = np.block([[2.0 * H, C.T], [C, np.zeros((len(rows), len(rows)))]])
        rhs = np.concatenate([np.zeros(ndof), g])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            raise EnrichmentError(
                f"singular constraint system for node {nu}: enrichment degree "
                f"{q} is insufficient for degree {s.degree}"
            ) from None
        x = sol[:ndof]

        coeffs = {}
        for p in panels:
            vec = np.zeros(q + 1)
            for j, (pp, idx) in enumerate(dofs):
                if pp == p:
                    vec[idx] = x[j]
            if len(panels) == 2 and p == panels[1]:
                vec[0] = x[q - 1]        # junction dof: (panels[0], q) == (panels[1], 0)
            coeffs[p] = vec
        local.append(coeffs)
    return BubbleSet(s, q, tuple(local), phi_l2sq)


def bubble_phi_products(b: BubbleSet) -> np.ndarray:
    """<theta_mu, phi_nu> recomputed by quadrature, shape (N, N)."""
    s = b.space
    Vq = reference_basis(b.degree, _QUAD.nodes)
    Vl = reference_basis(s.degree, _QUAD.nodes)
    G = np.zeros((s.ndof, s.ndof))
    w_arcs, _ = _arc_measure(s.mesh)
    for p, w_arc in enumerate(w_arcs):
        for mu in s.conn[p]:
            cf = b.local[mu].get(p)
            if cf is None:
                continue
            theta = cf @ Vq
            for a, nu in enumerate(s.conn[p]):
                G[mu, nu] += np.dot(w_arc, theta * Vl[a])
    return G


def build_dual_basis(s: FeSpace, b: BubbleSet) -> DualBasis:
    """Dual collection from the nodal basis and the bubbles:

    phi~_nu = phi_nu + (<1,phi_nu>/<theta_nu,phi_nu>) theta_nu
                    - sum_mu (<phi_nu,phi_mu>/<theta_mu,phi_mu>) theta_mu
    """
    M = mass_matrix(s, "exact", n_quad=16)
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
    t_combo = d.combo.sum(axis=1)       # sum over nu of the bubble weights
    worst = 0.0
    per_panel = max(2, -(-n_samples // s.mesh.n_panels))
    xs = np.linspace(0.02, 0.98, per_panel)
    Vq = reference_basis(d.bubbles.degree, xs)
    for p in range(s.mesh.n_panels):
        val = np.ones(xs.size)          # nodal partition of unity, exact
        for mu in s.conn[p]:
            cf = d.bubbles.local[mu].get(p)
            if cf is not None:
                val += t_combo[mu] * (cf @ Vq)
        worst = max(worst, float(np.max(np.abs(val - 1.0))))
    return worst


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
    ell = s.degree
    q = d.bubbles.degree
    m2 = uniform_refine(s.mesh)
    s2 = build_space(m2, ell)
    n2, N = s2.ndof, s.ndof
    dim = n2 + N

    # coordinates of the coarse nodal basis inside the fine nodal basis
    R = np.zeros((n2, N))
    locals_fine = np.linspace(0.0, 1.0, ell + 1)
    for p in range(s.mesh.n_panels):
        for side in (0, 1):
            child = 2 * p + side
            xp = 0.5 * (locals_fine + side)
            vals = reference_basis(ell, xp)      # (l+1 coarse, l+1 fine nodes)
            for a, nu in enumerate(s.conn[p]):
                R[s2.conn[child], nu] = vals[a]

    G = np.zeros((dim, dim))
    G1 = np.zeros((dim, dim))
    Vl = reference_basis(ell, _QUAD.nodes)
    Dl = reference_basis_deriv(ell, _QUAD.nodes)
    Vq_cache = {}
    w_arcs, ds_dxs = _arc_measure(m2)
    for p in range(s.mesh.n_panels):
        for side in (0, 1):
            child = 2 * p + side
            w_arc, ds_dx = w_arcs[child], ds_dxs[child]
            # active functions on this child: fine nodal + parent bubbles
            xp = 0.5 * (_QUAD.nodes + side)
            key = side
            if key not in Vq_cache:
                Vq_cache[key] = (reference_basis(q, xp), reference_basis_deriv(q, xp))
            Vqp, Dqp = Vq_cache[key]
            rows_f = s2.conn[child]
            vals_f = Vl
            ders_f = Dl / ds_dx
            bubbles = [mu for mu in s.conn[p] if d.bubbles.local[mu].get(p) is not None]
            vals_b = np.array([d.bubbles.local[mu][p] @ Vqp for mu in bubbles])
            ders_b = np.array([d.bubbles.local[mu][p] @ (0.5 * Dqp) for mu in bubbles]) / ds_dx
            idx = np.concatenate([rows_f, n2 + np.array(bubbles, dtype=int)])
            vals = np.vstack([vals_f, vals_b]) if bubbles else vals_f
            ders = np.vstack([ders_f, ders_b]) if bubbles else ders_f
            G[np.ix_(idx, idx)] += (vals * w_arc) @ vals.T
            G1[np.ix_(idx, idx)] += (ders * w_arc) @ ders.T

    nodal_rep = np.vstack([R, np.zeros((N, N))])
    dual_rep = np.vstack([R, d.combo])
    ones_rep = np.concatenate([np.ones(n2), np.zeros(N)])
    return HoldingSpace(s2, dim, 0.5 * (G + G.T), 0.5 * (G1 + G1.T),
                        nodal_rep, dual_rep, ones_rep)


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
    fwd = hold.dual_rep

    def inverse(u_hold):
        return (hold.nodal_rep.T @ (hold.gram @ u_hold)) / np.diag(d.pairing)

    return fwd, inverse, hold


def bijection_l2_norm(d: DualBasis, hold: HoldingSpace | None = None) -> float:
    """Discrete L2 operator norm of the nodal-to-dual bijection,
    sup ||I u|| / ||u|| over the coarse space."""
    if hold is None:
        hold = holding_space(d)
    E = hold.dual_rep
    A = E.T @ hold.gram @ E
    M = mass_matrix(d.space, "exact", n_quad=16)
    lam = scipy.linalg.eigh(0.5 * (A + A.T), M, eigvals_only=True)
    return float(np.sqrt(max(lam)))


def l2_project(s: FeSpace, u, n_quad: int = 20):
    """Coefficients of the L2-orthogonal projection of a callable
    u(points, chart) -> values onto the space."""
    g = gauss_rule(n_quad)
    Vl = reference_basis(s.degree, g.nodes)
    rhs = np.zeros(s.ndof)
    pts, speed, dt = panel_samples(s.mesh, g.nodes)
    w_arcs = g.weights * speed * dt[:, None]
    for p, chart in enumerate(s.mesh.chart.tolist()):
        rhs[s.conn[p]] += Vl @ (w_arcs[p] * u(pts[p], chart))
    M = mass_matrix(s, "exact", n_quad=n_quad)
    return np.linalg.solve(M, rhs)


def nodal_norms(s: FeSpace):
    """(L2 norm, H1 seminorm) of every nodal basis function."""
    l2 = np.zeros(s.ndof)
    h1 = np.zeros(s.ndof)
    Vl = reference_basis(s.degree, _QUAD.nodes)
    Dl = reference_basis_deriv(s.degree, _QUAD.nodes)
    for p, (w_arc, ds_dx) in enumerate(zip(*_arc_measure(s.mesh))):
        for a, nu in enumerate(s.conn[p]):
            l2[nu] += np.dot(w_arc, Vl[a] ** 2)
            h1[nu] += np.dot(w_arc, (Dl[a] / ds_dx) ** 2)
    return np.sqrt(l2), np.sqrt(h1)


def bubble_norms(b: BubbleSet):
    """(L2 norm, H1 seminorm) of every bubble."""
    s = b.space
    l2 = np.zeros(s.ndof)
    h1 = np.zeros(s.ndof)
    Vq = reference_basis(b.degree, _QUAD.nodes)
    Dq = reference_basis_deriv(b.degree, _QUAD.nodes)
    for p, (w_arc, ds_dx) in enumerate(zip(*_arc_measure(s.mesh))):
        for mu in s.conn[p]:
            cf = b.local[mu].get(p)
            if cf is None:
                continue
            l2[mu] += np.dot(w_arc, (cf @ Vq) ** 2)
            h1[mu] += np.dot(w_arc, ((cf @ Dq) / ds_dx) ** 2)
    return np.sqrt(l2), np.sqrt(h1)


def dual_norms(d: DualBasis, hold: HoldingSpace | None = None):
    """(L2 norm, H1 seminorm) of every dual function."""
    if hold is None:
        hold = holding_space(d)
    E = hold.dual_rep
    l2 = np.sqrt(np.einsum("in,ij,jn->n", E, hold.gram, E))
    h1 = np.sqrt(np.maximum(np.einsum("in,ij,jn->n", E, hold.gram_h1, E), 0.0))
    return l2, h1
