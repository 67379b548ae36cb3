"""Dense Galerkin matrices of the 2-D Laplace layer operators on a closed
curve.

Single layer: A[nu, nu'] = int int -log|x-y|/(2 pi) phi_nu(y) phi_nu'(x).
Hypersingular: realized through integration by parts, (B~ u)(v) =
(V u_s')(v_s') with arc-length derivatives, plus the rank-one stabilization
alpha <u,1><v,1>; only the log-kernel quadrature is ever needed.

Panel pairs are classified as identical / adjacent / separated; the first
two use the graded singular rules from :mod:`quadrature`, the rest a tensor
Gauss rule evaluated in bulk.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from .fespace import FeSpace, reference_basis, reference_basis_deriv
from .gram import lumped_matrix
from .mesh import panel_samples
from .quadrature import gauss_rule, pair_rule


class AssemblyError(RuntimeError):
    pass


class CoercivityError(AssemblyError):
    """The assembled single layer matrix failed the positive-definiteness
    check; the geometry guard (diameter <= 1) was violated or defeated."""


_KERNEL_HALF = -1.0 / (4.0 * np.pi)  # -log(r)/(2 pi) written as this * log(r^2)
_CHUNK_ROWS = 1024


def _log_kernel_r2(r2):
    # clamp protects against exact cancellation at the innermost graded
    # cells; the affected weights are O(1e-25)
    return _KERNEL_HALF * np.log(np.maximum(r2, 1e-300))


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


def _assemble_log_galerkin(s: FeSpace, quad_n: int):
    """Galerkin matrices of the log kernel against basis values (single
    layer) and against arc-length derivatives (hypersingular core)."""
    P = s.mesh.n_panels
    if P < 3:
        raise AssemblyError("assembly requires at least 3 panels on the curve")
    grule = gauss_rule(quad_n)
    pts, speed, dts = panel_samples(s.mesh, grule.nodes)
    S_val, S_der = _scatter_matrices(s, grule, speed, dts)

    n = grule.nodes.size
    flat = pts.reshape(P * n, 2)
    A_val = np.zeros((s.ndof, s.ndof))
    A_der = np.zeros((s.ndof, s.ndof))
    SvT = S_val.T.tocsr()
    SdT = S_der.T.tocsr()
    for start in range(0, P * n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, P * n)
        dx = flat[start:stop, 0][:, None] - flat[None, :, 0]
        dy = flat[start:stop, 1][:, None] - flat[None, :, 1]
        K = _log_kernel_r2(dx * dx + dy * dy)
        # the near-field blocks (identical/adjacent panels) come from the
        # graded singular rules instead
        for p in range(start // n, (stop - 1) // n + 1):
            r0, r1 = max(p * n, start) - start, min((p + 1) * n, stop) - start
            for q in ((p - 1) % P, p, (p + 1) % P):
                K[r0:r1, q * n:(q + 1) * n] = 0.0
        Y_val = (SvT @ K.T).T                      # K_chunk @ S_val
        Y_der = (SdT @ K.T).T
        A_val += S_val[start:stop].T @ Y_val
        A_der += S_der[start:stop].T @ Y_der

    # singular pairs
    ell = s.degree
    r_id = pair_rule("identical", quad_n)
    r_ad = pair_rule("adjacent", quad_n)
    basis = {}
    for tag, r in (("id", r_id), ("ad", r_ad)):
        basis[tag] = (
            reference_basis(ell, r.tnodes), reference_basis(ell, r.unodes),
            reference_basis_deriv(ell, r.tnodes), reference_basis_deriv(ell, r.unodes),
        )

    for p in range(P):
        cp = s.conn[p]
        # identical
        Vt, Vu, Dt, Du = basis["id"]
        (x,), (spt,), _ = panel_samples(s.mesh, r_id.tnodes, panels=[p])
        (y,), (spu,), _ = panel_samples(s.mesh, r_id.unodes, panels=[p])
        r2 = ((x - y) ** 2).sum(axis=-1)
        wk = r_id.weights * _log_kernel_r2(r2)
        dt2 = dts[p] * dts[p]
        A_val[np.ix_(cp, cp)] += dt2 * ((Vt * (spt * wk)) @ (Vu * spu).T)
        A_der[np.ix_(cp, cp)] += (Dt * wk) @ Du.T
        # adjacent (p, p+1); the rule's singular corner is (t, u) = (1, 0)
        q = (p + 1) % P
        cq = s.conn[q]
        Vt, Vu, Dt, Du = basis["ad"]
        (x,), (spt,), _ = panel_samples(s.mesh, r_ad.tnodes, panels=[p])
        (y,), (spu,), _ = panel_samples(s.mesh, r_ad.unodes, panels=[q])
        r2 = ((x - y) ** 2).sum(axis=-1)
        wk = r_ad.weights * _log_kernel_r2(r2)
        blockA = (dts[p] * dts[q]) * ((Vt * (spt * wk)) @ (Vu * spu).T)
        blockB = (Dt * wk) @ Du.T
        A_val[np.ix_(cp, cq)] += blockA
        A_val[np.ix_(cq, cp)] += blockA.T
        A_der[np.ix_(cp, cq)] += blockB
        A_der[np.ix_(cq, cp)] += blockB.T

    A_val = 0.5 * (A_val + A_val.T)
    A_der = 0.5 * (A_der + A_der.T)
    return A_val, A_der


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
    A, Bt = _assemble_log_galerkin(s, quad_n)
    m = lumped_matrix(s, "exact", n_quad=quad_n)
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
