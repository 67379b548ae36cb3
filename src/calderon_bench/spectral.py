"""Spectral condition numbers of preconditioned systems.

For SPD G and A the product GA is similar to the symmetric matrix L^T G L
with A = L L^T, so kappa_S(GA) = rho(GA) rho((GA)^{-1}) equals the extreme
eigenvalue ratio of that symmetric pencil; no nonsymmetric eigensolver is
needed.  L^T G L is formed by two triangular BLAS products and its
spectrum by the dense symmetric eigensolver; both run in LAPACK/BLAS.

One factor of A serves every preconditioner of a level, and it is taken by
blocks.  The shipped curves (square, circle, ellipse) are mirror symmetric
about two axes, and so is the corner-graded mesh.  The mirrors permute the
dofs by involutions p_x and p_y, and A, B, M and D are invariant under
both, so they commute with the Klein four-group {1, p_x, p_y, p_x p_y}.
So does every preconditioner, which is X B X with X one of D^{-1},
M^{-1}, diag(M)^{-1} or a polynomial in D^{-1} M.  In the sparse
orthogonal basis Q of the group's four characters (the orbits
{i, p_x(i), p_y(i), p_x p_y(i)} with signs (+-1, +-1), at most 4 nonzeros
per column) all of them are block diagonal.  ``block_factor`` holds the
blocks Q_k and the Cholesky factor of each Q_k^T A Q_k, and ``kappa``
takes the extreme eigenvalues over the blocks: four eigen-solves of about
N/4 in place of one of N.

The guard: the blocks are used only if every matrix that makes up G
commutes with both mirrors to TAU, measured as max|X[p][:, p] - X| /
max|X|.  The residual is at most about 1e-14 for A, M and D; for B it
grows with the corner grading (1.8e-10 on the level-5 square, 2.3e-7 on
the level-6 ellipse), as the corner entries carry the rounding of
absolute chart parameters.  In every measured case the blocks moved
kappa by less than that residual, relative.  Otherwise, and on a curve
or mesh without the mirrors, the factor is one block with Q = I, and
``kappa`` runs the same loop once on the dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg.blas import dtrmm

# largest relative mirror residual of A, B, M or D for which kappa is
# taken by symmetry blocks
TAU = 1e-7


class NotSPDError(np.linalg.LinAlgError):
    pass


def spd_factor(S: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = S; raises NotSPDError otherwise."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise NotSPDError("matrix is not symmetric positive definite") from None


@dataclass(frozen=True)
class BlockFactor:
    """A by blocks for :func:`kappa`: one (Q_k^T, L_k) per block, with Q_k^T
    a sparse row basis (None for Q = I) and L_k the lower Cholesky factor
    of Q_k^T A Q_k.  ``residual`` is the largest mirror residual the guard
    measured (0 when no mirror was offered)."""

    blocks: tuple
    residual: float

    @property
    def sizes(self):
        return tuple(L.shape[0] for _, L in self.blocks)


def mirror_residual(X: np.ndarray, p: np.ndarray) -> float:
    """max|X[p][:, p] - X| / max|X| for a matrix, max|X[p] - X| / max|X|
    for a diagonal given by its entries."""
    X = np.asarray(X)
    Y = X.take(p, axis=0)
    if X.ndim == 2:
        Y = Y.take(p, axis=1)
    Y -= X
    return float(max(Y.max(), -Y.min()) / max(X.max(), -X.min()))


def character_bases(perms, n: int):
    """Sparse orthonormal row bases Q_k^T (CSR, n_k x n) of the character
    blocks of the group generated by the commuting dof involutions
    ``perms``; together their rows form an orthogonal n x n matrix.

    Block k holds, for every orbit, the vector sum over the group of
    chi_k(g) e_{g(r)} (r the orbit's least dof), normalized; orbits whose
    stabilizer is not in the kernel of chi_k give the zero vector and no
    row.
    """
    elems = [np.arange(n)]
    for p in perms:
        elems += [p[e] for e in elems]
    images = np.stack(elems)                            # (|G|, n): g(i)
    reps = np.flatnonzero(images.min(axis=0) == np.arange(n))
    rows = images[:, reps]                              # (|G|, R)
    out = []
    for k in range(len(elems)):
        # element e is the product of the generators in the bits of e, and
        # chi_k(e) = (-1)^(number of generators in both k and e)
        chi = np.array([(-1.0) ** bin(e & k).count("1") for e in range(len(elems))])
        Qt = sparse.csr_matrix(
            (np.broadcast_to(chi[:, None], rows.shape).ravel(),
             (np.broadcast_to(np.arange(reps.size), rows.shape).ravel(), rows.ravel())),
            shape=(reps.size, n))                       # duplicates are summed
        Qt.eliminate_zeros()
        norm = np.sqrt(np.asarray(Qt.multiply(Qt).sum(axis=1)).ravel())
        keep = norm > 0
        out.append(sparse.diags(1.0 / norm[keep]) @ Qt[keep])
    return out


def _project(X: np.ndarray, Qt) -> np.ndarray:
    """Q_k^T X Q_k for symmetric X, by two sparse-times-dense products."""
    return Qt @ (Qt @ X).T


def block_factor(A: np.ndarray, perms=(), commuting=()) -> BlockFactor:
    """Factor of A for :func:`kappa` by the character blocks of the group
    generated by the dof involutions ``perms`` (such as the two mirrors
    of ``fespace.mirror_permutations``).

    The blocks are used only if A and every matrix or diagonal in
    ``commuting`` has a mirror residual of at most TAU under each
    permutation; otherwise, and without permutations, the factor is one
    block with Q = I.
    """
    residual = max((mirror_residual(X, p) for X in (A, *commuting) for p in perms),
                   default=0.0)
    if perms and residual <= TAU:
        bases = character_bases(perms, A.shape[0])
        blocks = tuple((Qt, spd_factor(_project(A, Qt))) for Qt in bases)
    else:
        blocks = ((None, spd_factor(A)),)
    return BlockFactor(blocks, residual)


def _extreme_eigenvalues(G: np.ndarray, L: np.ndarray):
    """Smallest and largest eigenvalue of L^T G L."""
    # U = L^T is L's storage read in Fortran order, so BLAS takes it as is
    U = np.asarray(L, dtype=float).T
    GL = dtrmm(1.0, U, np.array(G, dtype=float, order="F"), overwrite_b=1,
               side=1, lower=0, trans_a=1)                  # G U^T = G L
    C = dtrmm(1.0, U, GL, overwrite_b=1, side=0, lower=0)   # U G L = L^T G L
    lam = np.linalg.eigvalsh(0.5 * (C + C.T))
    return lam[0], lam[-1]


def kappa(G: np.ndarray, A: np.ndarray, factor: BlockFactor | None = None) -> float:
    """Spectral condition number kappa_S(G A) for SPD G and A.

    ``factor`` is a :class:`BlockFactor` of A from :func:`block_factor`;
    pass it to share one factorization of A across several
    preconditioners, or omit it to factor A here as one block.  Over
    blocks, kappa is the largest block eigenvalue over the smallest.
    """
    if factor is None:
        factor = block_factor(A)
    lo, hi = np.inf, -np.inf
    for Qt, L in factor.blocks:
        b_lo, b_hi = _extreme_eigenvalues(G if Qt is None else _project(G, Qt), L)
        lo, hi = min(lo, b_lo), max(hi, b_hi)
    if lo <= 0:
        raise NotSPDError("preconditioned pencil is not positive definite")
    return hi / lo
