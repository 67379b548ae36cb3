"""Spectral condition numbers of preconditioned systems.

Every preconditioner is given by a factor F with G = F^T F: the builders of
:mod:`precond` apply their coupling X once to the lower Cholesky factor of
B, F^T = X L_B, so G = X B X without forming G.  For SPD A = L L^T the
product GA is similar to the symmetric matrix L^T G L = Y^T Y with Y = F L,
so kappa_S(GA) = rho(GA) rho((GA)^{-1}) equals the extreme eigenvalue ratio
of Y^T Y; no nonsymmetric eigensolver is needed.  Y is formed by one
triangular product (BLAS dtrmm) and C = Y^T Y by one rank-k update
(dsyrk); LAPACK's dsytrd reduces C to a tridiagonal matrix, and two
bisections (dstebz) take its smallest and its largest eigenvalue alone
(Golub and Van Loan, Matrix Computations, 4th ed., sections 8.4 and 8.7).

Over the symmetry blocks below, kappa needs only the smallest and the
largest of the blocks' ends, and most blocks hold neither.  So only block
0 is always tridiagonalized.  Every later block C_k, of order n, is first
tested against the ends [lo, hi] found so far by two Cholesky factors
(dpotrf) of shifted matrices: (hi - 2m) I - C_k, which exists only if
lambda_max(C_k) < hi, and C_k - (lo + m) I, which exists only if
lambda_min(C_k) > lo (Sylvester's law of inertia; Parlett, The Symmetric
Eigenvalue Problem, ch. 3).  With both factors the block cannot move
either end, and it is not tridiagonalized; without them it is, as before.
The margin is m = n^2 eps hi, eps = 2u the machine epsilon.  A factor
that completes is exact for H + dH, with |dH| <= gamma_{n+1} |R^T| |R|
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm.
10.3), so ||dH||_2 <= n gamma_{n+1} ||H + dH||_2, about n(n + 1) u hi;
forming the shifted diagonal adds u hi.  (||H||_2 <= hi for a block that
passes both.)  The certificate's error is thus at most (n^2 + n + 1) eps
hi / 2.  The ends that dsytrd and dstebz would compute for C_k lie within
p(n) eps ||C_k||_2 of its eigenvalues, with p(n) a modestly growing
function of n (LAPACK Users' Guide, 3rd ed., section 4.7).  What m leaves
covers p(n) up to (n^2 - n - 1) / 2 at the bottom, and what 2m leaves up
to (3 n^2 - n - 1) / 2 at the top.  So a certified block's computed ends
lie in [lo, hi], and kappa is, to the bit, that of tridiagonalizing every
block.  On the level-5 square and ellipse, dsytrd and dstebz's ends
differ from eigvalsh's by at most 12 eps lambda_max, where the margin is
n^2 >= 10^4 of those units.

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
read-only CSR record (:class:`Csr`) from the group's record of its dof
orbits (``MirrorGroup.orbits``, which assembly reads too), its rows
sorted.  The records' products run scipy's CSR kernels, and the dense
algebra LAPACK and BLAS, all three loaded by :mod:`_kernels` without
scipy's package imports.
``block_factor`` holds the blocks Q_k and the Cholesky factor of each
Q_k^T A Q_k; ``BlockFactor.project`` gives B_k once per level from the
rows of B at the orbits' least dofs, gathered once for all blocks,
``project_sparse`` gives M's blocks as a list and ``project_diagonal`` D
and diag(M) in the same basis, and the builders of ``precond`` form each
F_k on its block from the factor of B_k.  ``kappa`` takes the extreme
eigenvalues over the blocks (``block_ends``, with the certificate above).
A dense F is cut into the blocks F Q_k.

The group is decided once per level, by the space, and checked once:
A and B are assembled by orbits of panel pairs under the mirrors (see
:mod:`boundary_operators`), so they commute with them by construction;
M and D are built without the maps, and ``cli.build_level`` reads them
before assembly: each must commute with every generator of the group to
TAU, measured as max|X[p][:, p] - X| / max|X| (about 1e-14) by comparing
each stored entry with the entry at its image, or the level fails with a
MirrorError that names the mirror.  On a curve or mesh without the
mirrors the group is the trivial one, whose basis is Q = I as a CSR
identity, through which the same code runs once on the full matrices.
Products with it only multiply by 1 and add 0, so they are exact.  The
Cholesky factors of the blocks are the check that A is SPD, with the
backward error of one dense factor (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 10); the D4 partner has the kept block's
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._kernels import fblas, flapack, sparsetools
from .fespace import MirrorGroup

# largest relative mirror residual of M and D that ``cli.build_level``
# accepts under a generator of the space's mirror group
TAU = 1e-7


class NotSPDError(np.linalg.LinAlgError):
    pass


class MirrorError(RuntimeError):
    """M or D does not commute with a mirror of the space to TAU."""


def spd_factor(S: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = S; raises NotSPDError otherwise."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise NotSPDError(f"matrix of order {len(S)} is not symmetric positive definite") from None


@dataclass(frozen=True, eq=False)
class Csr:
    """A read-only sparse matrix in compressed sparse rows, laid out as
    scipy stores one: row i holds ``data[indptr[i]:indptr[i + 1]]`` at the
    columns ``indices[indptr[i]:indptr[i + 1]]``, each column once, with
    int32 ``indptr`` and ``indices``; the arrays given are made
    read-only.  The character bases, M and M's blocks are held this way,
    every row's columns ascending, and their products go through scipy's
    CSR kernels (``_kernels.sparsetools``), so that they are the products
    scipy.sparse forms, to the bit."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    def __post_init__(self):
        for name, dtype in (("indptr", np.int32), ("indices", np.int32), ("data", float)):
            a = np.asarray(getattr(self, name), dtype=dtype)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "shape", tuple(int(k) for k in self.shape))

    @classmethod
    def from_dense(cls, X) -> Csr:
        """The record of a dense 2-D X from one pass over its nonzeros,
        which come in row-major order, so every row is sorted."""
        X = np.asarray(X, dtype=float)
        n, m = X.shape
        at = np.flatnonzero(X != 0)
        return cls(np.searchsorted(at, m * np.arange(n + 1)), at % m, X.ravel()[at], X.shape)

    @property
    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, X) -> np.ndarray:
        """The dense product with a dense 2-D X, by csr_matvecs."""
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by one of {X.shape}")
        out = np.zeros((self.shape[0], X.shape[1]))
        sparsetools.csr_matvecs(*self.shape, X.shape[1], self.indptr, self.indices, self.data,
                                X.ravel(), out.ravel())
        return out

    def transpose(self) -> Csr:
        """The transpose, by csr_tocsc: its rows sorted."""
        n, m = self.shape
        indptr, indices, data = (np.empty(m + 1, np.int32), np.empty_like(self.indices),
                                 np.empty_like(self.data))
        sparsetools.csr_tocsc(n, m, self.indptr, self.indices, self.data, indptr, indices, data)
        return Csr(indptr, indices, data, (m, n))

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        out = np.zeros(self.shape)
        out[self.rows, self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        """The main diagonal, zero where no entry is stored."""
        row = self.rows
        on = self.indices == row
        out = np.zeros(min(self.shape))
        out[row[on]] = self.data[on]
        return out


def _product(A: Csr, B: Csr, sort: bool) -> Csr:
    """A B as scipy.sparse forms ``A @ B``, by csr_matmat: exact zeros
    dropped and each row's columns in the kernel's order, which the next
    product reads in turn, or ascending if ``sort``, by csr_sort_indices."""
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"cannot multiply a {A.shape} matrix by one of {B.shape}")
    n, m = A.shape[0], B.shape[1]
    nnz = sparsetools.csr_matmat_maxnnz(n, m, A.indptr, A.indices, B.indptr, B.indices)
    indptr, indices, data = np.empty(n + 1, np.int32), np.empty(nnz, np.int32), np.empty(nnz)
    sparsetools.csr_matmat(n, m, A.indptr, A.indices, A.data, B.indptr, B.indices, B.data,
                           indptr, indices, data)
    indices, data = indices[:indptr[-1]], data[:indptr[-1]]
    if sort:
        sparsetools.csr_sort_indices(n, indptr, indices, data)
    return Csr(indptr, indices, data, (n, m))


@dataclass(frozen=True)
class BlockFactor:
    """A by blocks for :func:`kappa`: one (Q_k^T, L_k) per block, with Q_k^T
    a row basis as a :class:`Csr` record (the identity for one block; on
    D4 the rows span 3N/4, see ``character_bases``) and L_k the lower
    Cholesky factor of Q_k^T A Q_k."""

    blocks: tuple

    @property
    def sizes(self):
        return tuple(L.shape[0] for _, L in self.blocks)

    def project(self, X: np.ndarray) -> tuple:
        """Q_k^T X Q_k of a dense X that commutes with the group, block by
        block (see :func:`_project`)."""
        return _project(X, [Qt for Qt, _ in self.blocks])

    def project_sparse(self, S: Csr) -> list:
        """The blocks Q_k^T S Q_k, as Csr records with sorted rows, of a
        symmetric Csr S that commutes with the group, one product per
        block: (Q_k^T S) Q_k, as scipy.sparse forms ``Qt @ S @ Qt.T``."""
        return [_product(_product(Qt, S, sort=False), Qt.transpose(), sort=True)
                for Qt, _ in self.blocks]

    def project_diagonal(self, d: np.ndarray) -> np.ndarray:
        """The diagonal of Q^T diag(d) Q, blocks concatenated; for d
        constant on the orbits that is the whole of it."""
        d = np.asarray(d, dtype=float)
        return np.concatenate([np.add.reduceat(Qt.data * Qt.data * d[Qt.indices], Qt.indptr[:-1])
                               for Qt, _ in self.blocks])


def mirror_residual(X, perms) -> tuple:
    """max|X[p][:, p] - X| / max|X| for each map p of ``perms``, for a
    matrix given as a Csr record with sorted rows, or max|X[p] - X| /
    max|X| for a diagonal given by its entries.

    A matrix is compared entry by entry: the entry at (a, b) with the one at
    its image (p(a), p(b)), found by binary search among the sorted keys
    row * n + column; an entry whose image is not stored counts whole."""
    if np.ndim(X) == 1:
        X = np.asarray(X)
        top = max(X.max(), -X.min())
        return tuple(float(np.abs(X.take(p) - X).max() / top) for p in perms)
    n, top, row = X.shape[0], np.abs(X.data).max(), X.rows
    key = row * n + X.indices
    out = []
    for p in perms:
        image = p[row] * n + p[X.indices]
        at = np.minimum(np.searchsorted(key, image), key.size - 1)
        Y = np.where(key[at] == image, X.data - X.data[at], X.data)
        out.append(float(np.abs(Y).max() / top))
    return tuple(out)


def character_bases(group: MirrorGroup):
    """Orthonormal row bases Q_k^T (Csr records, n_k x n) of the symmetry
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
    row.  The 2-D block is built the same way over the Klein subgroup,
    the first four elements.  In closed form a kept row holds
    chi(g)/sqrt|O_r| at each distinct image g(r), and ``_orbit_bases``
    writes exactly that from the group's dof orbits (``group.orbits``):
    the rows in the order of their least dofs, the dofs of each row in
    ascending order, and no sparse algebra.
    """
    chi = group.character
    if len(group.dofs) < 8:
        return _orbit_bases(group, [chi(k) for k in range(len(group.dofs))])
    # D4's characters with chi(p_x) = chi(p_y), then the Klein group's (-, +)
    klein = MirrorGroup(group.dofs[:4], group.panels[:4])
    return _orbit_bases(group, [chi(k) for k in (0, 3, 4, 7)]) + _orbit_bases(klein, [chi(1)[:4]])


def _orbit_bases(group: MirrorGroup, chis) -> list:
    """The row bases of ``character_bases`` for the characters ``chis`` of
    ``group``, each of values (|G|,): one Csr record per character, from
    the arrays of the group's dof orbits.

    Row r belongs to the orbit O_r of its least dof i_r, kept only if
    chi(fix[i_r]) > 0, the stabilizer lying in the kernel of chi; it
    holds chi(elem[i])/sqrt|O_r| at each dof i of the orbit, in ascending
    order.  That is the normalized sum over the group of chi(g) e_{g(i_r)}:
    each dof i is hit by the coset elem[i] of the stabilizer, on which chi
    is constant exactly when the stabilizer lies in its kernel, and the
    sum vanishes otherwise.  One stable sort of ``rep`` lists the dofs
    orbit by orbit, for all the characters."""
    o, n = group.orbits, group.dofs.shape[1]
    cols = np.argsort(o.rep, kind="stable")             # each orbit's dofs, ascending
    sizes = np.bincount(o.rep)[o.reps]                  # |O_r|
    out = []
    for chi in chis:
        keep = chi[o.fix[o.reps]] > 0                   # stabilizer in ker chi
        size = sizes[keep]
        c = cols[np.repeat(keep, sizes)]
        data = chi[o.elem[c]] * np.repeat(1.0 / np.sqrt(size), size)
        out.append(Csr(np.concatenate([[0], np.cumsum(size)]), c, data, (size.size, n)))
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
    reps = np.flatnonzero(np.bincount(np.concatenate(leads)))
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


def block_factor(A: np.ndarray, group: MirrorGroup | None = None) -> BlockFactor:
    """Factor of A for :func:`kappa` by the blocks of ``character_bases``
    for the mirror group ``group`` (a space's ``FeSpace.mirrors``: the
    Klein group of the two axis mirrors, D4 with the diagonal one, or the
    trivial group), with which A commutes; without a group, one block with
    Q = I.  The group's blocks are taken as given: ``cli.build_level``
    checks M and D against its generators before assembly.  Raises
    NotSPDError if a block of A is not SPD.
    """
    bases = character_bases(MirrorGroup.trivial(A.shape[0], 0) if group is None else group)
    return BlockFactor(tuple((Qt, spd_factor(Ak)) for Qt, Ak in zip(bases, _project(A, bases))))


@lru_cache(maxsize=None)
def _sytrd_lwork(n: int) -> int:
    """Workspace of the blocked dsytrd for order n (the wrapper's default
    of n takes the unblocked code)."""
    work, info = flapack.dsytrd_lwork(n, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dsytrd_lwork failed with info = {info}")
    return int(work)


def _gram(F: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The lower triangle of C = Y^T Y with Y = F L, for L lower
    triangular: Y by dtrmm, C by dsyrk, in Fortran order."""
    Y = fblas.dtrmm(1.0, L, F, side=1, lower=1)
    return fblas.dsyrk(1.0, Y, trans=1, lower=1)


def _extreme_eigenvalues(C: np.ndarray):
    """Smallest and largest eigenvalue of the symmetric C given by its lower
    triangle (from :func:`_gram`, which it overwrites): its tridiagonal form
    by dsytrd and the two ends of its spectrum by bisection (dstebz, to
    LAPACK's default tolerance ulp * |T|)."""
    n = C.shape[0]
    _, d, e, _, info = flapack.dsytrd(C, lower=1, lwork=_sytrd_lwork(n), overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dsytrd failed with info = {info}")
    ends = []
    for i in (1, n):                    # range "I": the i-th smallest alone
        m, w, _, _, info = flapack.dstebz(d, e, 2, 0.0, 0.0, i, i, 0.0, "E")
        if info or m != 1:
            raise np.linalg.LinAlgError(f"dstebz failed with info = {info}")
        ends.append(w[0])
    return ends[0], ends[1]


def _inside(C: np.ndarray, lo: float, hi: float) -> bool:
    """True if two Cholesky factors (dpotrf) prove that the extremes which
    :func:`_extreme_eigenvalues` would compute for C (its lower triangle
    from :func:`_gram`, left as it is) lie in [lo, hi]: the factor of
    (hi - 2m) I - C, so that lambda_max(C) < hi, and that of
    C - (lo + m) I, so that lambda_min(C) > lo, with the margin
    m = n^2 eps hi for C of order n (derived in the module docstring).  A
    factor that breaks down on a pivot <= 0 returns False at once."""
    n = C.shape[0]
    m = n * n * np.finfo(float).eps * hi
    for sign, shift in ((-1.0, hi - 2 * m), (1.0, lo + m)):
        H = sign * C                        # a new array, in C's Fortran order
        H.flat[::n + 1] -= sign * shift
        _, info = flapack.dpotrf(H, lower=1, clean=0, overwrite_a=1)
        if info < 0:
            raise np.linalg.LinAlgError(f"dpotrf failed with info = {info}")
        if info:
            return False
    return True


class Ends(NamedTuple):
    """The extreme eigenvalues of G A over the blocks of a factor of A, and
    how many blocks were tridiagonalized to find them."""

    lo: float
    hi: float
    tridiagonalized: int


def block_ends(F, factor: BlockFactor) -> Ends:
    """The smallest and the largest eigenvalue of G A over the blocks of
    ``factor``, for G = F^T F given as in :func:`kappa`.

    Each block's C_k = Y_k^T Y_k is formed by dtrmm and dsyrk.  Block 0 is
    tridiagonalized; every later block first goes to :func:`_inside`, two
    shifted Cholesky factors against the ends [lo, hi] found so far, and
    only a block that it cannot place inside them is tridiagonalized.  A
    block that it places there cannot move either end (see the module
    docstring), so the ends are those of tridiagonalizing every block, to
    the bit."""
    blocks = F if isinstance(F, tuple) else tuple((Qt @ F.T).T for Qt, _ in factor.blocks)
    if len(blocks) != len(factor.blocks):
        raise ValueError(f"F has {len(blocks)} blocks, the factor of A {len(factor.blocks)}")
    lo, hi, exact = np.inf, -np.inf, 0
    for k, (Fk, (_, L)) in enumerate(zip(blocks, factor.blocks)):
        C = _gram(Fk, L)
        if k and _inside(C, lo, hi):
            continue
        b_lo, b_hi = _extreme_eigenvalues(C)
        lo, hi, exact = min(lo, b_lo), max(hi, b_hi), exact + 1
    return Ends(lo, hi, exact)


def kappa(F, A: np.ndarray, factor: BlockFactor | None = None) -> float:
    """Spectral condition number kappa_S(G A) for G = F^T F and SPD A.

    ``factor`` is a :class:`BlockFactor` of A from :func:`block_factor`;
    pass it to share one factorization of A across several
    preconditioners, or omit it to factor A here as one block.  F is
    either the tuple of its blocks F_k, with Q_k^T G Q_k = F_k^T F_k, in
    the factor's order (the builders of :mod:`precond` return these), or
    one dense F, which is cut here into the blocks F Q_k; a bare SPD G
    enters as ``spd_factor(G).T``.  Over blocks, kappa is the largest
    block eigenvalue over the smallest, found by :func:`block_ends`: block
    0 tridiagonalized, a later block only where two shifted Cholesky
    factors cannot place it strictly inside the ends already found.
    Raises NotSPDError when the smallest is not above the rounding of the
    largest, as for a singular F.
    """
    if factor is None:
        factor = block_factor(A)
    lo, hi, _ = block_ends(F, factor)
    if not lo > max(factor.sizes) * np.finfo(float).eps * hi:
        raise NotSPDError("preconditioned pencil is not positive definite")
    return hi / lo
