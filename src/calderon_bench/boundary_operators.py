"""Dense Galerkin matrices of the 2-D Laplace layer operators on a closed
curve.

Single layer: A[nu, nu'] = int int -log|x-y|/(2 pi) phi_nu(y) phi_nu'(x).
Hypersingular: realized through integration by parts, (B~ u)(v) =
(V u_s')(v_s') with arc-length derivatives, plus the rank-one stabilization
alpha <u,1><v,1>; only the log-kernel quadrature is ever needed.

Panel pairs fall in three classes, each with its own rule:

- near (identical and adjacent): the Duffy-log pair rules from
  :mod:`quadrature`, with distances taken from chart chords in
  panel-relative coordinates.  Chords and speeds are evaluated once per
  distinct node of the two rules, the identical rule on one of its two
  mirror halves;
- close (separated, but with a gap below _ETA = 2 times the larger panel):
  the quad_n-point tensor Gauss rule, all pairs in one array operation;
- admissible (every other pair, the bulk): a tensor Gauss rule of
  ceil(quad_n / 2) points per panel, evaluated in bulk.  The order follows
  the distance relative to the panel sizes (Sauter & Schwab, Boundary
  Element Methods, ch. 5).

The kernel is symmetric, so every class is summed on one triangle of panel
pairs into Z, and each matrix is Z + Z^T, symmetric to the bit: the
identical pair contributes one mirror half X of its rule, the adjacent pair
(p, p+1) and the close pairs p > q their blocks once.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from .fespace import FeSpace, reference_basis, reference_basis_deriv
from .gram import lumped_matrix
from .mesh import panel_chords, panel_samples, panel_speeds
from .quadrature import gauss_rule, pair_rule


class AssemblyError(RuntimeError):
    pass


class CoercivityError(AssemblyError):
    """The assembled single layer matrix failed the positive-definiteness
    check; the geometry guard (diameter <= 1) was violated or defeated."""


_KERNEL_HALF = -1.0 / (4.0 * np.pi)  # -log(r)/(2 pi) written as this * log(r^2)
_CHUNK_COLS = 1024
# a separated panel pair is admissible, and takes the coarse rule of
# _coarse_n(quad_n) points per panel, when its gap is at least _ETA times
# its larger panel.  Measured on the level-5 square, degree 3, against the
# full-order rule: 2.2e-11 of max|A| at _ETA = 2, 1.6e-9 at _ETA = 1
_ETA = 2.0


def _coarse_n(quad_n: int) -> int:
    """Gauss points per panel on admissible pairs: ceil(quad_n / 2)."""
    return -(-quad_n // 2)


def _log_kernel_r2(r2):
    return _KERNEL_HALF * np.log(r2)


def _basis_weights(s: FeSpace, rule, speed, dts):
    """Quadrature weight times basis at every sample, (P, n, l+1) each.

    The plain pairing carries weight * speed * dt * basis value; the
    derivative pairing carries weight * local basis derivative, in which
    the arc-length measure cancels the speed and interval length exactly.
    """
    P = s.mesh.n_panels
    n = rule.nodes.size
    V = reference_basis(s.degree, rule.nodes)
    D = reference_basis_deriv(s.degree, rule.nodes)
    w_val = (rule.weights[None, :] * speed * dts[:, None])[:, :, None] * V.T[None, :, :]
    w_der = np.broadcast_to((rule.weights[:, None] * D.T)[None, :, :], (P, n, s.degree + 1))
    return w_val, w_der


def _scatter(s: FeSpace, w):
    """Sparse (P n, ndof) map from sample values to global dofs."""
    P, n, k = w.shape
    rows = np.repeat(np.arange(P * n), k)
    cols = np.repeat(s.conn, n, axis=0).reshape(P, n, k).ravel()
    return sparse.csr_matrix((w.ravel(), (rows, cols)), shape=(P * n, s.ndof))


def _admissible_pairs(mesh):
    """(P, P) mask of the panel pairs far enough apart for the coarse rule.

    With h a panel's arc length and c the midpoint of its end points, the
    pair (p, q) is admissible when gap = |c_p - c_q| - (h_p + h_q)/2 is at
    least _ETA max(h_p, h_q).  Identical and adjacent pairs have gap <= 0
    (a chord is no longer than its arc), so they are never admissible.
    The distance is relative, not a count of panels between the two: next
    to a corner the sizes halve panel by panel, so no index distance keeps
    gap/h away from 0.
    """
    ends, _, _ = panel_samples(mesh, [0.0, 1.0])
    c = 0.5 * (ends[:, 0] + ends[:, 1])
    h = mesh.length
    gap = np.hypot(np.subtract.outer(c[:, 0], c[:, 0]), np.subtract.outer(c[:, 1], c[:, 1]))
    gap -= 0.5 * np.add.outer(h, h)
    return gap >= _ETA * np.maximum.outer(h, h)


def _far_field(s: FeSpace, quad_n: int):
    """Gauss log-kernel sums over all panel pairs that are neither
    identical nor adjacent, on one triangle of the symmetric kernel.

    Separated pairs fall in two classes (see ``_admissible_pairs``):
    admissible pairs take a tensor Gauss rule of ceil(quad_n / 2) points
    per panel, the few close pairs next to the near field the full
    quad_n-point rule.  Returns the coarse pass's sums Z_val, Z_der
    (ndof, ndof), whose Z + Z^T is the admissible part, and the close
    pairs p > q as row and column dof ids (C, l+1) with their blocks
    (C, l+1, l+1) of the basis and of the derivative pairing.

    The coarse pass builds the kernel in column chunks of whole panels,
    each a contiguous view of two preallocated buffers holding the rows on
    and below the chunk's diagonal block; that block holds both (p, q) and
    (q, p) and is halved.  Identical, adjacent and close pairs are set to
    r^2 = 1 before the log, so they add 0.  The close pass evaluates all
    its pairs at once.
    """
    P = s.mesh.n_panels
    far = _admissible_pairs(s.mesh)
    rule = gauss_rule(_coarse_n(quad_n))
    pts, speed, dts = panel_samples(s.mesh, rule.nodes)
    S_val, S_der = (_scatter(s, w) for w in _basis_weights(s, rule, speed, dts))

    n = rule.nodes.size
    N = P * n
    x, y = pts.reshape(N, 2).T
    step = min(max(1, _CHUNK_COLS // n), P)         # panels per chunk
    buf, tmp = np.empty(N * step * n), np.empty(N * step * n)
    Z_val = np.zeros((s.ndof, s.ndof))
    Z_der = np.zeros((s.ndof, s.ndof))
    for q0 in range(0, P, step):
        q1 = min(q0 + step, P)
        a, b = q0 * n, q1 * n
        size = (N - a) * (b - a)
        K, T = buf[:size].reshape(N - a, b - a), tmp[:size].reshape(N - a, b - a)
        np.subtract.outer(x[a:], x[a:b], out=K)
        K *= K
        np.subtract.outer(y[a:], y[a:b], out=T)
        T *= T
        K += T
        i, j = np.nonzero(~far[q0:, q0:q1])
        K.reshape(P - q0, n, q1 - q0, n)[i, :, j, :] = 1.0
        if K.min() <= 0.0:
            raise AssemblyError("far-field quadrature points of distinct panels coincide")
        np.log(K, out=K)
        K *= _KERNEL_HALF
        K[:b - a] *= 0.5                           # holds (p, q) and (q, p)
        Z_val += S_val[a:b].T @ (S_val[a:].T @ K).T    # S[a:b]^T K^T S[a:]
        Z_der += S_der[a:b].T @ (S_der[a:].T @ K).T

    rule = gauss_rule(quad_n)
    pts, speed, dts = panel_samples(s.mesh, rule.nodes)
    w_val, w_der = _basis_weights(s, rule, speed, dts)
    # close pairs p > q: not admissible, and neither identical nor adjacent
    p, q = np.nonzero(np.tril(~far, -2))
    keep = p - q < P - 1                              # (P-1, 0) are adjacent
    p, q = p[keep], q[keep]
    d = pts[p][:, :, None, :] - pts[q][:, None, :, :]
    r2 = (d * d).sum(axis=-1)
    if r2.size and r2.min() <= 0.0:
        raise AssemblyError("far-field quadrature points of distinct panels coincide")
    K = _log_kernel_r2(r2)
    return (Z_val, Z_der, s.conn[p], s.conn[q],
            w_val[p].transpose(0, 2, 1) @ K @ w_val[q],
            w_der[p].transpose(0, 2, 1) @ K @ w_der[q])


def _near_field(s: FeSpace, quad_n: int):
    """Identical and adjacent panel-pair blocks, all panels at once, on one
    triangle of the symmetric kernel.

    Returns the row and column dof ids (2P, l+1) and the blocks (2P, l+1,
    l+1) of the basis pairing and of the derivative pairing: rows 0..P-1
    hold one mirror half X of the identical pair (p, p), whose pair block
    is X + X^T, and rows P..2P-1 the adjacent pairs (p, p+1).  Distances
    come from chords in panel-relative coordinates: chi(u + dt (t - u)) -
    chi(u) inside a panel, and the chords from the shared vertex
    chi(t1_p) = chi(t0_q) for adjacent panels.

    Each chart quantity is evaluated once per distinct reference node.
    The identical rule is two mirror halves, (t, u, w, d) and (u, t, w,
    -d), with one |chord|; only the first is evaluated.  The adjacent
    rule's offsets and u nodes share one node set, on which both vertex
    chord families are evaluated and gathered.  The speeds of both rules
    come from one ``panel_speeds`` call.
    """
    m, ell = s.mesh, s.degree
    nxt = np.roll(np.arange(m.n_panels), -1)
    r_id = pair_rule("identical", quad_n)
    r_ad = pair_rule("adjacent", quad_n)
    half, n_ad = r_id.weights.size // 2, r_ad.weights.size
    t_id, u_id = r_id.tnodes[:half], r_id.unodes[:half]

    # speeds at the t and u nodes of the identical half and of the adjacent rule
    nodes, at_node = np.unique(np.concatenate([t_id, u_id, r_ad.tnodes, r_ad.unodes]),
                               return_inverse=True)
    speed, dt = panel_speeds(m, nodes)
    sp = np.split(speed[:, at_node], np.cumsum([half, half, n_ad]), axis=1)
    # the adjacent chords chi(t1 - dt s) - chi(t0' + dt' u) from the vertex
    steps, at_step = np.unique(np.concatenate([r_ad.offsets, r_ad.unodes]), return_inverse=True)
    c_ad = (panel_chords(m, 1.0, -steps)[:, at_step[:n_ad]]
            - panel_chords(m, 0.0, steps)[nxt[:, None], at_step[n_ad:]])
    c_id = panel_chords(m, u_id, r_id.offsets[:half])

    blocks = []
    for t, u, w, chord, sp_t, sp_u, q in (
            (t_id, u_id, r_id.weights[:half], c_id, sp[0], sp[1], slice(None)),
            (r_ad.tnodes, r_ad.unodes, r_ad.weights, c_ad, sp[2], sp[3][nxt], nxt)):
        wk = w * _log_kernel_r2(chord[..., 0] ** 2 + chord[..., 1] ** 2)    # (P, n)
        wv = wk * sp_t * sp_u * (dt * dt[q])[:, None]
        blocks.append([(reference_basis(ell, t) * wv[:, None, :]) @ reference_basis(ell, u).T,
                       (reference_basis_deriv(ell, t) * wk[:, None, :])
                       @ reference_basis_deriv(ell, u).T])
    (id_val, id_der), (ad_val, ad_der) = blocks
    return (np.concatenate([s.conn, s.conn]), np.concatenate([s.conn, s.conn[nxt]]),
            np.concatenate([id_val, ad_val]), np.concatenate([id_der, ad_der]))


def _require_spd(Mt, what, exc):
    if not np.all(np.isfinite(Mt)):
        raise exc(f"{what}: non-finite entries")
    try:
        np.linalg.cholesky(Mt)
    except np.linalg.LinAlgError:
        raise exc(f"{what}: matrix is not positive definite") from None


def assemble_operator_pair(s: FeSpace, quad_n: int = 12, alpha: float = 0.05):
    """Galerkin matrices (A, B) of the single layer and the stabilized
    hypersingular operator, from one sweep of kernel evaluations.

    A is symmetric positive definite for admissible geometries (diameter
    <= 1).  B = B~ + alpha m m^T: B~ acts on arc-length derivatives through
    the single layer kernel and therefore annihilates constants; the
    rank-one term with m[nu] = <phi_nu, 1>, the exact lumped diagonal,
    restores definiteness for any alpha > 0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive (B~ alone is only semi-coercive)")
    if s.mesh.n_panels < 3:
        raise AssemblyError("assembly requires at least 3 panels on the curve")
    Z_val, Z_der, *close = _far_field(s, quad_n)
    rows, cols, val, der = (np.concatenate(x) for x in zip(_near_field(s, quad_n), close))
    idx = (rows[:, :, None], cols[:, None, :])
    np.add.at(Z_val, idx, val)
    np.add.at(Z_der, idx, der)
    A = Z_val + Z_val.T
    B = Z_der + Z_der.T
    m = lumped_matrix(s, "exact", n_quad=quad_n)
    B += alpha * np.outer(m, m)
    _require_spd(
        A, "single layer (geometry guard diameter <= 1 should ensure coercivity)",
        CoercivityError,
    )
    _require_spd(B, "stabilized hypersingular", AssemblyError)
    return A, B


def write_dense_matrix(Mt: np.ndarray, path):
    """Plain-text dense dump: first line n, then n rows of n decimals."""
    Mt = np.atleast_2d(Mt)
    with open(path, "w") as fh:
        fh.write(f"{Mt.shape[0]}\n")
        for row in Mt:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def write_diagonal(d: np.ndarray, path):
    """One line of diagonal entries."""
    with open(path, "w") as fh:
        fh.write(" ".join(f"{v:.17g}" for v in d) + "\n")
