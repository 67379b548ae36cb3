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
the dof maps and of the element encoding behind the characters.  The
bases are the closed-form character projectors of Allgower, Boehmer,
Georg and Miranda ("Exploiting symmetry in boundary element methods",
SIAM J. Numer. Anal. 29, 1992): a row per orbit, chi(g)/sqrt|O| at each
image g(r) of the orbit's least dof r.  So each Q_k^T is written as one
CSR matrix from index arithmetic on the group's dof maps, its rows sorted.
``block_factor`` holds the blocks Q_k and the Cholesky factor of each
Q_k^T A Q_k; ``BlockFactor.project`` gives B_k once per level from the
rows of B at the orbits' least dofs, gathered once for all blocks,
``project_sparse`` gives M's blocks as a list and ``project_diagonal`` D
and diag(M) in the same basis, and the builders of ``precond`` form each
F_k on its block from the factor of B_k.  ``kappa`` takes the extreme
eigenvalues over the blocks.  A dense F is cut into the blocks F Q_k.

The guard: A and B are assembled by orbits of panel pairs under the
mirrors (see :mod:`boundary_operators`), so they commute with them by
construction.  M and D are built without the maps, so the guard reads
them: the blocks are used only if both commute with every generator of
the record to TAU, measured as max|X[p][:, p] - X| / max|X| (about
1e-14) by comparing each stored entry with the entry at its image.
Otherwise, and on a curve or mesh without the mirrors, the factor is one
block: the character basis of the trivial record, Q = I as a
sparse identity, through which the same code runs once on the full
matrices.  Products with it only multiply by 1 and add 0, so they are
exact.  The Cholesky factors of the blocks are the check that A is SPD,
with the backward error of one dense factor (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 10); the D4 partner has the kept
block's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

    def project(self, X: np.ndarray) -> tuple:
        """Q_k^T X Q_k of a dense X that commutes with the group, block by
        block (see :func:`_project`)."""
        return _project(X, [Qt for Qt, _ in self.blocks])

    def project_sparse(self, S) -> list:
        """The blocks Q_k^T S Q_k (CSR, sorted rows) of a sparse symmetric S
        that commutes with the group; no entry between blocks is formed."""
        S = sparse.csr_matrix(S)
        out = []
        for Qt, _ in self.blocks:
            P = Qt @ S @ Qt.T
            P.sort_indices()
            out.append(P)
        return out

    def project_diagonal(self, d: np.ndarray) -> np.ndarray:
        """The diagonal of Q^T diag(d) Q, blocks concatenated; for d
        constant on the orbits that is the whole of it."""
        d = np.asarray(d, dtype=float)
        return np.concatenate([np.add.reduceat(Qt.data * Qt.data * d[Qt.indices], Qt.indptr[:-1])
                               for Qt, _ in self.blocks])


def mirror_residual(X, *perms) -> float:
    """The largest over the maps ``perms`` of max|X[p][:, p] - X| / max|X|
    for a matrix, read as CSR, or of max|X[p] - X| / max|X| for a diagonal
    given by its entries; 0 without a map.

    A matrix is compared entry by entry: the entry at (a, b) with the one at
    its image (p(a), p(b)), found by binary search among the sorted keys
    row * n + column; an entry whose image is not stored counts whole."""
    if np.ndim(X) == 1:
        X = np.asarray(X)
        top = max(X.max(), -X.min())
        return max((float(np.abs(X.take(p) - X).max() / top) for p in perms), default=0.0)
    X = sparse.csr_matrix(X, copy=True)
    X.sum_duplicates()                                  # sorted keys, each once
    n, top = X.shape[0], np.abs(X.data).max()
    row = np.repeat(np.arange(n), np.diff(X.indptr))
    key = row * n + X.indices
    out = 0.0
    for p in perms:
        image = p[row] * n + p[X.indices]
        at = np.minimum(np.searchsorted(key, image), key.size - 1)
        Y = np.where(key[at] == image, X.data - X.data[at], X.data)
        out = max(out, float(np.abs(Y).max() / top))
    return out


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
    row.  The 2-D block is built the same way over the Klein group.  In
    closed form a kept row holds chi(g)/sqrt|O_r| at each distinct image
    g(r), and ``_orbit_bases`` writes exactly that: the rows in the order of
    their least dofs, the dofs of each row in ascending order, and no sparse
    algebra.
    """
    g, chi = group.dofs, group.character                # g[e, i]: the image of dof i
    if len(group.perms) < 3:
        return _orbit_bases(g, [chi(k) for k in range(len(g))])
    # D4's characters with chi(p_x) = chi(p_y), then the Klein group's (-, +)
    return _orbit_bases(g, [chi(k) for k in (0, 3, 4, 7)]) + _orbit_bases(g[:4], [chi(1)[:4]])


def _orbit_bases(images, chis) -> list:
    """The row bases of ``character_bases`` for the characters ``chis``,
    each of values (|G|,), of the group whose element e maps dof i to
    images[e, i]: one CSR matrix per character, from its arrays.

    Row r belongs to the orbit O_r of its least dof i_r, kept only if
    chi(g) = 1 on the stabilizer {g : g(i_r) = i_r}; it holds chi(g)/sqrt|O_r|
    at each distinct image g(i_r), in ascending order.  That is the
    normalized sum over the group of chi(g) e_{g(i_r)}: each image is hit by
    a coset of the stabilizer, on which chi is constant exactly when the
    stabilizer lies in its kernel, and the sum vanishes otherwise.  The
    orbits are sorted once for all the characters."""
    n = images.shape[1]
    reps = np.flatnonzero(images.min(axis=0) == np.arange(n))
    orbits = images[:, reps].T                          # (R, |G|): the images of each rep
    order = np.argsort(orbits, axis=1, kind="stable")
    cols = np.take_along_axis(orbits, order, axis=1)
    first = np.ones(cols.shape, dtype=bool)             # the first hit of each image
    first[:, 1:] = cols[:, 1:] != cols[:, :-1]
    fixed = orbits == reps[:, None]                     # the stabilizer of each rep
    out = []
    for chi in chis:
        keep = ~np.any(fixed & (chi < 0), axis=1)       # stabilizer in ker chi
        hit = first[keep]
        size = hit.sum(axis=1)                          # |O_r|
        data = chi[order[keep]][hit] * np.repeat(1.0 / np.sqrt(size), size)
        out.append(sparse.csr_matrix((data, cols[keep][hit], np.concatenate([[0], np.cumsum(size)])),
                                     shape=(size.size, n)))
    return out


def _project(X: np.ndarray, bases) -> tuple:
    """Q_k^T X Q_k for each row basis Q_k^T of ``bases`` and a dense X that
    commutes with the group of the blocks, from the rows of X at the orbits'
    least dofs.

    Row r of Q_k^T holds chi(g)/sqrt|O_r| at dof g(i_r) of the orbit O_r
    of its least dof i_r, its first entry, and every column q of Q_k has
    q[g(j)] = chi(g) q[j].  As X[g(i), g(j)] = X[i, j], row g(i) of X Q_k
    is chi(g) times row i, so row r of Q_k^T X Q_k is sqrt|O_r| X[i_r] Q_k:
    one product with an N x R slab in place of two through N x N.  The rows
    at the least dofs of all blocks are gathered once: D4's four 1-D blocks
    and its 2-D block read subsets of one set.  It agrees with Q_k^T
    (Q_k^T X)^T to the rounding of X's commutation with the group, and for
    Q = I it is X itself."""
    leads = [Qt.indices[Qt.indptr[:-1]] for Qt in bases]
    reps = np.unique(np.concatenate(leads))
    slab = np.ascontiguousarray(X[reps].T)              # (N, R)
    out = []
    for Qt, lead in zip(bases, leads):
        P = Qt @ slab                                   # column r: Q_k^T X[i_r]
        if lead.size < reps.size:
            P = P[:, np.searchsorted(reps, lead)]
        P = P.T
        P *= np.sqrt(np.diff(Qt.indptr))[:, None]
        out.append(P)
    return tuple(out)


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
    residual = max((mirror_residual(X, *group.perms) for X in commuting),
                   default=0.0) if group else 0.0
    if group is None or residual > TAU:
        group = MirrorGroup.trivial(A.shape[0], 0)      # the basis reads no panel map
    bases = character_bases(group)
    return BlockFactor(tuple((Qt, spd_factor(Ak)) for Qt, Ak in zip(bases, _project(A, bases))),
                       residual)


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
