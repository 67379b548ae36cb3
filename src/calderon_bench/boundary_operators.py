"""Dense Galerkin matrices of the 2-D Laplace layer operators on a closed
curve.

Single layer: A[nu, nu'] = int int -log|x-y|/(2 pi) phi_nu(y) phi_nu'(x).
Hypersingular: realized through integration by parts, (B~ u)(v) =
(V u_s')(v_s') with arc-length derivatives, plus the rank-one stabilization
alpha <u,1><v,1>; only the log-kernel quadrature is ever needed.

Panel pairs are classified as identical / adjacent / separated; the first
two use the Duffy-log pair rules from :mod:`quadrature` with distances
taken from chart chords in panel-relative coordinates, the rest a tensor
Gauss rule evaluated in bulk.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from .fespace import FeSpace, reference_basis, reference_basis_deriv
from .mesh import panel_chords, panel_samples
from .quadrature import gauss_rule, pair_rule


class AssemblyError(RuntimeError):
    pass


class CoercivityError(AssemblyError):
    """The assembled single layer matrix failed the positive-definiteness
    check; the geometry guard (diameter <= 1) was violated or defeated."""


_KERNEL_HALF = -1.0 / (4.0 * np.pi)  # -log(r)/(2 pi) written as this * log(r^2)
_CHUNK_COLS = 1024


def _log_kernel_r2(r2):
    return _KERNEL_HALF * np.log(r2)


def _scatter_matrices(s: FeSpace, rule, speed, dts):
    """Sparse maps from quadrature values to global dofs.

    S_val carries weight * speed * dt * basis value (for the plain pairing);
    S_der carries weight * local basis derivative, in which the arc-length
    measure cancels the speed and interval length exactly.
    """
    P = s.mesh.n_panels
    n = rule.nodes.size
    ell = s.degree
    V = reference_basis(ell, rule.nodes)
    D = reference_basis_deriv(ell, rule.nodes)
    rows = np.repeat(np.arange(P * n), ell + 1)
    cols = np.repeat(s.conn, n, axis=0).reshape(P, n, ell + 1).ravel()
    w_val = (rule.weights[None, :] * speed * dts[:, None])[:, :, None] * V.T[None, :, :]
    w_der = np.broadcast_to((rule.weights[:, None] * D.T)[None, :, :], (P, n, ell + 1))
    shape = (P * n, s.ndof)
    S_val = sparse.csr_matrix((w_val.ravel(), (rows, cols)), shape=shape)
    S_der = sparse.csr_matrix((w_der.ravel(), (rows, cols)), shape=shape)
    return S_val, S_der


def _far_field(s: FeSpace, quad_n: int):
    """Tensor-Gauss log-kernel sums over all panel pairs that are neither
    identical nor adjacent, and m[nu] = <phi_nu, 1> from the same samples.

    The kernel is built in column chunks, each a contiguous (P n, c) view
    of two preallocated buffers, so the sparse products read it without a
    copy; the kernel is symmetric to the bit, so column j of a chunk is row
    j of the kernel.  The near-field blocks are set to r^2 = 1 before the
    log, so they add 0.
    """
    P = s.mesh.n_panels
    grule = gauss_rule(quad_n)
    pts, speed, dts = panel_samples(s.mesh, grule.nodes)
    S_val, S_der = _scatter_matrices(s, grule, speed, dts)

    n = grule.nodes.size
    N = P * n
    x, y = pts.reshape(N, 2).T
    # rows of the identical and adjacent panels of every column
    panel = np.arange(N) // n
    near_rows = ((panel[:, None] + np.array([-1, 0, 1])) % P)[:, :, None] * n + np.arange(n)
    near_rows = near_rows.reshape(N, 3 * n)
    chunk = min(_CHUNK_COLS, N)
    buf, tmp = np.empty(N * chunk), np.empty(N * chunk)
    A_val = np.zeros((s.ndof, s.ndof))
    A_der = np.zeros((s.ndof, s.ndof))
    SvT = S_val.T.tocsr()
    SdT = S_der.T.tocsr()
    for start in range(0, N, chunk):
        stop = min(start + chunk, N)
        c = stop - start
        K, T = buf[:N * c].reshape(N, c), tmp[:N * c].reshape(N, c)
        np.subtract.outer(x, x[start:stop], out=K)
        K *= K
        np.subtract.outer(y, y[start:stop], out=T)
        T *= T
        K += T
        K[near_rows[start:stop], np.arange(c)[:, None]] = 1.0
        if K.min() <= 0.0:
            raise AssemblyError("far-field quadrature points of distinct panels coincide")
        np.log(K, out=K)
        K *= _KERNEL_HALF
        A_val += S_val[start:stop].T @ (SvT @ K).T     # rows start:stop of K S_val
        A_der += S_der[start:stop].T @ (SdT @ K).T
    m = np.asarray(S_val.sum(axis=0)).ravel()
    return A_val, A_der, m


def _near_field(s: FeSpace, quad_n: int):
    """Identical and adjacent panel-pair blocks, all panels at once.

    Returns the row and column dof ids (3P, l+1) and the blocks (3P, l+1,
    l+1) of the basis pairing and of the derivative pairing: rows 0..P-1
    are the identical pairs (p, p), rows P..2P-1 the adjacent pairs
    (p, p+1) and rows 2P..3P-1 their mirrors (p+1, p).  Distances come
    from chords in panel-relative coordinates: chi(u + dt (t - u)) -
    chi(u) inside a panel, and the chords from the shared vertex
    chi(t1_p) = chi(t0_q) for adjacent panels.
    """
    m, ell = s.mesh, s.degree
    nxt = np.roll(np.arange(m.n_panels), -1)
    r_id = pair_rule("identical", quad_n)
    r_ad = pair_rule("adjacent", quad_n)
    c_id = panel_chords(m, r_id.unodes, r_id.offsets)
    c_ad = panel_chords(m, 1.0, -r_ad.offsets) - panel_chords(m, 0.0, r_ad.unodes)[nxt]

    blocks_val, blocks_der = [], []
    for r, chord, q in ((r_id, c_id, slice(None)), (r_ad, c_ad, nxt)):
        _, sp_t, dt = panel_samples(m, r.tnodes)
        _, sp_u, _ = panel_samples(m, r.unodes)
        wk = r.weights * _log_kernel_r2((chord * chord).sum(axis=-1))   # (P, n)
        Vt, Vu = reference_basis(ell, r.tnodes), reference_basis(ell, r.unodes)
        Dt, Du = reference_basis_deriv(ell, r.tnodes), reference_basis_deriv(ell, r.unodes)
        wv = wk * sp_t * sp_u[q] * (dt * dt[q])[:, None]
        blocks_val.append((Vt * wv[:, None, :]) @ Vu.T)
        blocks_der.append((Dt * wk[:, None, :]) @ Du.T)
    blocks_val.append(blocks_val[1].transpose(0, 2, 1))
    blocks_der.append(blocks_der[1].transpose(0, 2, 1))
    rows = np.concatenate([s.conn, s.conn, s.conn[nxt]])
    cols = np.concatenate([s.conn, s.conn[nxt], s.conn])
    return rows, cols, np.concatenate(blocks_val), np.concatenate(blocks_der)


def _assemble_log_galerkin(s: FeSpace, quad_n: int):
    """Galerkin matrices of the log kernel against basis values (single
    layer) and against arc-length derivatives (hypersingular core), and
    the vector m[nu] = <phi_nu, 1>."""
    if s.mesh.n_panels < 3:
        raise AssemblyError("assembly requires at least 3 panels on the curve")
    A_val, A_der, m = _far_field(s, quad_n)
    rows, cols, blocks_val, blocks_der = _near_field(s, quad_n)
    idx = (rows[:, :, None], cols[:, None, :])
    np.add.at(A_val, idx, blocks_val)
    np.add.at(A_der, idx, blocks_der)
    A_val = 0.5 * (A_val + A_val.T)
    A_der = 0.5 * (A_der + A_der.T)
    return A_val, A_der, m


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
    rank-one term with m[nu] = <phi_nu, 1> restores definiteness for any
    alpha > 0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive (B~ alone is only semi-coercive)")
    A, Bt, m = _assemble_log_galerkin(s, quad_n)
    B = Bt + alpha * np.outer(m, m)
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
