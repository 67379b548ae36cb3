"""Spectral condition numbers of preconditioned systems.

Every preconditioner is given by a factor F with G = F^T F: the builders of
:mod:`precond` apply their coupling X once to the lower Cholesky factor of
B, F^T = X L_B, so G = X B X without forming G.  For SPD A = L L^T the
product GA is similar to the symmetric matrix L^T G L = Y^T Y with Y = F L,
so kappa_S(GA) = rho(GA) rho((GA)^{-1}) equals the extreme eigenvalue ratio
of Y^T Y; no nonsymmetric eigensolver is needed.  Y is formed by one
triangular product (BLAS dtrmm) and Y^T Y by one rank-k update (dsyrk);
LAPACK's dsytrd reduces it to a tridiagonal matrix, and two bisections
(dstebz) take its smallest and its largest eigenvalue alone (Golub and Van
Loan, Matrix Computations, 4th ed., sections 8.4 and 8.7).

The whole level is taken by blocks.  The shipped curves (square, circle,
ellipse) and their corner-graded meshes are mirror symmetric, and A, B, M
and D commute with the mirrors' dof maps.  So does every preconditioner,
which is X B X with X one of D^{-1}, M^{-1}, diag(M)^{-1} or a polynomial
in D^{-1} M.  In the sparse orthogonal basis Q of the group's characters
(``character_bases``) all of them are block diagonal, and Q_k^T G Q_k =
X_k B_k X_k: four blocks of about N/4 under the two axis mirrors (the
ellipse), and under D4 (the square and the circle, which also have the
diagonal mirror) four of about N/8 and one of N/4, which span 3N/4 rows.
The group is the space's record, ``FeSpace.mirrors``: the one source of
the dof maps and of the element encoding behind the characters.
``block_factor`` holds the blocks Q_k and the Cholesky factor of each
Q_k^T A Q_k; ``BlockFactor.project`` gives B_k once per level from the
rows of B at the orbits' least dofs, ``project_sparse`` and
``project_diagonal`` give M, D and diag(M) in the same basis, and the
builders of ``precond`` form each F_k on its block from the factor of
B_k.  ``kappa`` takes the extreme eigenvalues over the blocks.  A dense F
is cut into the blocks F Q_k.

The guard: A and B are assembled by orbits of panel pairs under the
mirrors (see :mod:`boundary_operators`), so they commute with them by
construction.  M and D are built without the maps, so the guard reads
them: the blocks are used only if both commute with every generator of
the record to TAU, measured as max|X[p][:, p] - X| / max|X| (about
1e-14).  Otherwise, and on a curve or mesh without the mirrors, the factor
is one block: the character basis of the trivial record, Q = I as a
sparse identity, through which the same code runs once on the full
matrices.  Products with it only multiply by 1 and add 0, so they are
exact.  The Cholesky factors of the blocks are the check that A is SPD,
with the backward error of one dense factor (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 10); the D4 partner has the kept
block's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sparse
from scipy.linalg.blas import dsyrk, dtrmm
from scipy.linalg.lapack import dstebz, dsytrd, dsytrd_lwork

from .fespace import MirrorGroup

# largest relative mirror residual of M and D for which kappa is taken by
# symmetry blocks
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
    a sparse row basis (the identity for one block; on D4 the rows span
    3N/4, see ``character_bases``) and L_k the lower Cholesky factor of
    Q_k^T A Q_k.  ``residual`` is the largest mirror residual the guard
    measured on ``commuting`` (0 when nothing was offered)."""

    blocks: tuple
    residual: float

    @property
    def sizes(self):
        return tuple(L.shape[0] for _, L in self.blocks)

    @cached_property
    def _basis(self):
        """The whole basis Q^T (CSR, rows block by block) and the block of
        each row."""
        return (sparse.vstack([Qt for Qt, _ in self.blocks], format="csr"),
                np.repeat(np.arange(len(self.blocks)), self.sizes))

    def project(self, X: np.ndarray) -> tuple:
        """Q_k^T X Q_k of a dense X that commutes with the group, block by
        block (see :func:`_project`)."""
        return tuple(_project(X, Qt) for Qt, _ in self.blocks)

    def project_sparse(self, S):
        """Q^T S Q of a sparse symmetric S that commutes with the group, as
        one block-diagonal CSR matrix: the rounding left between blocks is
        dropped."""
        Qt, block = self._basis
        P = (Qt @ sparse.csr_matrix(S) @ Qt.T).tocoo()
        keep = (block[P.row] == block[P.col]) & (P.data != 0)
        return sparse.csr_matrix((P.data[keep], (P.row[keep], P.col[keep])), shape=P.shape)

    def project_diagonal(self, d: np.ndarray) -> np.ndarray:
        """The diagonal of Q^T diag(d) Q, blocks concatenated; for d
        constant on the orbits that is the whole of it."""
        Qt = self._basis[0]
        return Qt.multiply(Qt) @ np.asarray(d, dtype=float)


def mirror_residual(X, p: np.ndarray) -> float:
    """max|X[p][:, p] - X| / max|X| for a matrix, read as CSR,
    max|X[p] - X| / max|X| for a diagonal given by its entries."""
    if np.ndim(X) == 1:
        X = np.asarray(X)
        Y = X.take(p) - X
        return float(max(Y.max(), -Y.min()) / max(X.max(), -X.min()))
    X = sparse.csr_matrix(X)
    return float(abs(X[p][:, p] - X).max() / abs(X).max())


def character_bases(group: MirrorGroup):
    """Sparse orthonormal row bases Q_k^T (CSR, n_k x n) of the symmetry
    blocks of the mirror group ``group``.

    Up to two commuting generators (none, for the trivial group, or the
    Klein group {1, p_x, p_y, p_x p_y} of the two axis mirrors) give one
    block per character, and together their rows form an orthogonal n x n
    matrix.

    Three, (p_x, p_y, p_d) with p_d p_x p_d = p_y, generate D4, the group
    of the square.  Its four 1-D characters, those with chi(p_x) =
    chi(p_y), split the Klein blocks (+, +) and (-, -) by chi(p_d) = +-1;
    the fifth block is the Klein block (-, +), one copy of the 2-D
    irreducible representation.  p_d maps it onto its partner (+, -), so
    every matrix that commutes with D4 has the same spectrum on both, and
    the partner is left out: the rows span 3n/4, not n, and carry every
    eigenvalue of such a matrix, though not every multiplicity.

    A 1-D block holds, for every orbit, the vector sum over the group of
    chi(g) e_{g(r)} (r the orbit's least dof), normalized; orbits whose
    stabilizer is not in the kernel of chi give the zero vector and no
    row.  The 2-D block is built the same way over the Klein group.
    """
    g, chi = group.dofs, group.character                # g[e, i]: the image of dof i
    if len(group.perms) < 3:
        blocks = [(g, chi(k)) for k in range(len(g))]
    else:   # D4's characters with chi(p_x) = chi(p_y), then the Klein group's (-, +)
        blocks = [(g, chi(k)) for k in (0, 3, 4, 7)] + [(g[:4], chi(1)[:4])]
    return [_orbit_basis(images, c) for images, c in blocks]


def _orbit_basis(images, chi):
    """The row basis of ``character_bases`` for the character with values
    chi (|G|,) of the group whose element e maps dof i to images[e, i]."""
    n = images.shape[1]
    reps = np.flatnonzero(images.min(axis=0) == np.arange(n))
    rows = images[:, reps]                              # (|G|, R)
    Qt = sparse.csr_matrix(
        (np.broadcast_to(chi[:, None], rows.shape).ravel(),
         (np.broadcast_to(np.arange(reps.size), rows.shape).ravel(), rows.ravel())),
        shape=(reps.size, n))                           # duplicates are summed
    Qt.eliminate_zeros()
    norm = np.sqrt(np.asarray(Qt.multiply(Qt).sum(axis=1)).ravel())
    keep = norm > 0
    return sparse.diags(1.0 / norm[keep]) @ Qt[keep]


def _project(X: np.ndarray, Qt) -> np.ndarray:
    """Q_k^T X Q_k for a dense X that commutes with the group of the block,
    from the rows of X at the orbits' least dofs.

    Row r of Q_k^T holds chi(g)/sqrt|O_r| at dof g(i_r) of the orbit O_r
    of its least dof i_r, and every column q of Q_k has q[g(j)] =
    chi(g) q[j].  As X[g(i), g(j)] = X[i, j], row g(i) of X Q_k is chi(g)
    times row i, so row r of Q_k^T X Q_k is sqrt|O_r| X[i_r] Q_k: one
    product of an n_k x N slab in place of two through N x N.  It agrees
    with Q_k^T (Q_k^T X)^T to the rounding of X's commutation with the
    group, and for Q = I it is X itself."""
    slab = X[np.minimum.reduceat(Qt.indices, Qt.indptr[:-1])]
    slab *= np.sqrt(np.diff(Qt.indptr))[:, None]
    return (Qt @ np.ascontiguousarray(slab.T)).T


def block_factor(A: np.ndarray, group: MirrorGroup | None = None,
                 commuting=()) -> BlockFactor:
    """Factor of A for :func:`kappa` by the blocks of ``character_bases``
    for the mirror group ``group`` (a space's ``FeSpace.mirrors``: the
    Klein group of the two axis mirrors, or D4 with the diagonal one), with
    which A commutes.

    The blocks are used only if every matrix or diagonal in ``commuting``
    (M and D on the run path) has a mirror residual of at most TAU under
    each generator; otherwise, and without a group, the factor is one block
    with Q = I, the basis of the trivial group.  Raises NotSPDError if a
    block of A is not SPD.
    """
    residual = max((mirror_residual(X, p) for X in commuting for p in group.perms),
                   default=0.0) if group else 0.0
    if group is None or residual > TAU:
        group = MirrorGroup.trivial(A.shape[0], 0)      # the basis reads no panel map
    bases = character_bases(group)
    return BlockFactor(tuple((Qt, spd_factor(_project(A, Qt))) for Qt in bases), residual)


@lru_cache(maxsize=None)
def _sytrd_lwork(n: int) -> int:
    """Workspace of the blocked dsytrd for order n (the wrapper's default
    of n takes the unblocked code)."""
    work, info = dsytrd_lwork(n, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dsytrd_lwork failed with info = {info}")
    return int(work)


def _extreme_eigenvalues(F: np.ndarray, L: np.ndarray):
    """Smallest and largest eigenvalue of Y^T Y with Y = F L, for L lower
    triangular: Y by dtrmm, the lower triangle of Y^T Y by dsyrk, its
    tridiagonal form by dsytrd and the two ends of its spectrum by
    bisection (dstebz, to LAPACK's default tolerance ulp * |T|)."""
    Y = dtrmm(1.0, L, F, side=1, lower=1)
    C = dsyrk(1.0, Y, trans=1, lower=1)
    n = C.shape[0]
    _, d, e, _, info = dsytrd(C, lower=1, lwork=_sytrd_lwork(n), overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dsytrd failed with info = {info}")
    ends = []
    for i in (1, n):                    # range "I": the i-th smallest alone
        m, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, i, i, 0.0, "E")
        if info or m != 1:
            raise np.linalg.LinAlgError(f"dstebz failed with info = {info}")
        ends.append(w[0])
    return ends[0], ends[1]


def kappa(F, A: np.ndarray, factor: BlockFactor | None = None) -> float:
    """Spectral condition number kappa_S(G A) for G = F^T F and SPD A.

    ``factor`` is a :class:`BlockFactor` of A from :func:`block_factor`;
    pass it to share one factorization of A across several
    preconditioners, or omit it to factor A here as one block.  F is
    either the tuple of its blocks F_k, with Q_k^T G Q_k = F_k^T F_k, in
    the factor's order (the builders of :mod:`precond` return these), or
    one dense F, which is cut here into the blocks F Q_k; a bare SPD G
    enters as ``spd_factor(G).T``.  Over blocks, kappa is the largest
    block eigenvalue over the smallest.  Raises NotSPDError when the
    smallest is not above the rounding of the largest, as for a singular
    F.
    """
    if factor is None:
        factor = block_factor(A)
    blocks = F if isinstance(F, tuple) else tuple((Qt @ F.T).T for Qt, _ in factor.blocks)
    if len(blocks) != len(factor.blocks):
        raise ValueError(f"F has {len(blocks)} blocks, the factor of A {len(factor.blocks)}")
    lo, hi = np.inf, -np.inf
    for Fk, (_, L) in zip(blocks, factor.blocks):
        b_lo, b_hi = _extreme_eigenvalues(Fk, L)
        lo, hi = min(lo, b_lo), max(hi, b_hi)
    if not lo > max(factor.sizes) * np.finfo(float).eps * hi:
        raise NotSPDError("preconditioned pencil is not positive definite")
    return hi / lo
