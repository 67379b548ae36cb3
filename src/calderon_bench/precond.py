"""Builders for the four preconditioners and the Richardson damping weight.

Each builder applies its coupling X once to the lower Cholesky factor L_B
of B and returns the preconditioner G = X B X as its factor F, G = F^T F:

F^T = D^{-1} L_B            (lumped; exact diagonal inverse)
F^T = M^{-1} L_B            (mass; one banded Cholesky solve with M)
F^T = R^(k) L_B             (k damped Richardson steps toward M^{-1})
F^T = (diag M)^{-1} L_B     (Jacobi; fails for degree > 1)

F^T F is symmetric by construction, and :func:`spectral.kappa` takes
kappa_S(G A) from F without forming G.  Each builder works block by
block.  Every coupling X commutes with the curve's mirrors, so in the
symmetry basis of ``spectral.BlockFactor`` F_k^T = X_k L_Bk with L_Bk the
factor of B_k.  B is passed as the tuple of the factors L_Bk, M as a
:class:`Coupling` (the blocks of M in that basis as CSR records, and
diag(M) diagonal), and D as its diagonal in that basis.  A dense B and M
are one block with Q = I: B is factored on entry, and F is dense.

The coupling matrices are sparse and banded: M couples only dofs of a
common panel, so in reverse Cuthill-McKee order of its graph its band is
2l wide on a closed curve (l on each symmetry block, which holds a piece
of the curve without the wrap-around: a quarter under the two axis
mirrors, and an eighth for a 1-D block of D4 on the square).  A
:class:`Coupling` does the sparse work once for every builder of its
level, on each block of M as it was projected: one RCM order, one band
storage and one banded factor per block, one Richardson contraction check
and one Richardson chain Y_j = R^(j) L_B, which passes each k on its way
to the largest asked for.  Each F_k then costs one banded solve, one
diagonal scaling or the chain's steps, each a sparse-times-dense product
with M_k.

The damping weight omega = 2 / (lambda- + lambda+) comes from the extremal
generalized eigenvalues of the lumped-preconditioned mass matrix on the
reference simplex; element-wise bounds are global bounds because both
matrices are assembled from element contributions.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice, product
from math import factorial

import numpy as np

from ._kernels import flapack
from .spectral import Csr, NotSPDError, spd_factor


class RichardsonDivergenceError(RuntimeError):
    pass


class Coupling:
    """The coupling matrices of one level in the symmetry basis, and the
    sparse work the builders share.

    ``blocks`` holds the blocks Q_k^T M Q_k (CSR records, ``spectral.Csr``)
    from the start, in the order of the blocks of B, ``m`` the diagonal
    Q^T diag(M) Q with the blocks concatenated, and ``sizes`` the block
    sizes.  No block-diagonal matrix is formed, so nothing is cut out of
    one again.  For Q = I they are M and diag(M) themselves, as one block.
    The lumped diagonal d (Q^T D Q) and the factors of B are passed to the
    builders that use them; they must not change while the Coupling is in
    use.
    """

    def __init__(self, blocks, m: np.ndarray):
        self.blocks = tuple(blocks)
        self.m = np.asarray(m, dtype=float)
        self.sizes = tuple(Mk.shape[0] for Mk in self.blocks)
        self._cuts = np.cumsum((0,) + self.sizes)[1:-1]
        self._chain = None          # (L_B, d, omega, j, [Y_j per block])

    @classmethod
    def dense(cls, M):
        """One block with Q = I, for M a Csr or dense."""
        M = M if isinstance(M, Csr) else Csr.from_dense(M)
        return cls((M,), M.diagonal())

    def pieces(self, x: np.ndarray) -> list:
        """A vector cut like the blocks."""
        return np.split(x, self._cuts)

    @cached_property
    def order(self):
        """The RCM order of each block of M, which keeps its band."""
        return [reverse_cuthill_mckee(Mk) for Mk in self.blocks]

    @cached_property
    def bands(self):
        """Each block of M in its RCM order, in LAPACK's lower band storage."""
        return [_lower_band(Mk, pk) for Mk, pk in zip(self.blocks, self.order)]

    @cached_property
    def factors(self):
        """Lower banded Cholesky factor of each block of M in its RCM order;
        raises NotSPDError if M is not SPD."""
        return [_banded_cholesky(ab) for ab in self.bands]

    def richardson(self, LB: tuple, d: np.ndarray, k: int, omega: float) -> list:
        """Y_k = R^(k) L_Bk on each block, for the lumped diagonal d, by
        Y_{j+1} = Y_j + omega D^{-1} (L_B - M Y_j) from Y_0 = 0.  The
        contraction check runs once per (L_B, d, omega), and the chain
        continues from the last step taken, so k = 2, 4 and 6 cost six
        steps in all."""
        if k < 1:
            raise ValueError("k must be >= 1")
        chain, x = self._chain, np.asarray(d, dtype=float)
        if (chain is None or chain[0] is not LB or chain[1] is not d or chain[2] != omega
                or chain[3] > k):
            if np.any(x <= 0):
                raise ValueError("lumped diagonal must be positive")
            _check_contraction(self, x, omega)
            chain = (LB, d, omega, 0, [np.zeros_like(L) for L in LB])
        j, Y = chain[3], chain[4]
        rs = self.pieces(omega / x)
        for _ in range(k - j):
            Y = [_richardson_step(Yb, L, Mb, rb) for Yb, L, Mb, rb in zip(Y, LB, self.blocks, rs)]
        self._chain = (LB, d, omega, k, Y)
        return Y


def _richardson_step(Y, L, Ms, r):
    """Y + r (L - Ms Y) for r the diagonal omega D^{-1}, in one new array
    (the caller may hold Y)."""
    T = Ms @ Y
    np.subtract(L, T, out=T)
    T *= r[:, None]
    T += Y
    return T


def _as_blocks(B, M=None):
    """(the factors L_Bk of the blocks of B, the Coupling, whether B came as
    blocks): a tuple holds the factors, a dense B is one block and is
    factored here, with M dense."""
    if isinstance(B, tuple):
        return B, M, True
    if M is not None and not isinstance(M, Coupling):
        M = Coupling.dense(M)
    return (spd_factor(np.asarray(B, dtype=float)),), M, False


def _scaled(Ls, x: np.ndarray, what: str) -> tuple:
    """Each F_k = (L_Bk / x_k)^T, for x positive and cut like the factors."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError(f"{what} must be positive")
    cuts = np.cumsum([L.shape[0] for L in Ls])[:-1]
    return tuple((L / xk[:, None]).T for L, xk in zip(Ls, np.split(x, cuts)))


def lumped_precond(B, d: np.ndarray):
    Ls, _, as_blocks = _as_blocks(B)
    F = _scaled(Ls, d, "lumped diagonal")
    return F if as_blocks else F[0]


def reverse_cuthill_mckee(Ms: Csr) -> np.ndarray:
    """The reverse Cuthill-McKee order of the graph of a structurally
    symmetric Csr Ms: scipy's ``reverse_cuthill_mckee(Ms,
    symmetric_mode=True)``, entry for entry.

    As there, a node's degree is its row's stored entries, plus one if the
    diagonal is stored; each component is searched breadth first from its
    first node in ``np.argsort`` of the degrees (int32, as the kernel has
    them); each node, taken in the order reached, appends its neighbours
    not yet reached, in its row's order, stably sorted by degree; and the
    order is reversed.  The search is a plain queue: the graphs of M's
    blocks are bands, whose fronts hold one to four nodes, too few for
    array operations per front to pay."""
    n, row = Ms.shape[0], Ms.rows
    degree = np.diff(Ms.indptr)
    degree[row[Ms.indices == row]] += 1
    deg, ptr, ind = degree.tolist(), Ms.indptr.tolist(), Ms.indices.tolist()
    seen, order = bytearray(n), []
    for seed in np.argsort(degree).tolist():
        if seen[seed]:
            continue
        seen[seed] = 1
        order.append(seed)
        for i in islice(order, len(order) - 1, None):   # the queue: order grows as it is read
            new = []
            for j in ind[ptr[i]:ptr[i + 1]]:
                if not seen[j]:
                    seen[j] = 1
                    new.append(j)
            new.sort(key=deg.__getitem__)
            order += new
        if len(order) == n:
            break
    return np.array(order[::-1], dtype=np.int32)


def _lower_band(Ms: Csr, perm) -> np.ndarray:
    """Ms[perm][:, perm] of a symmetric Csr Ms in LAPACK's lower band
    storage, by relabelling its entries."""
    n = Ms.shape[0]
    at = np.empty_like(perm)
    at[perm] = np.arange(n)
    row, col = at[Ms.rows], at[Ms.indices]
    off = row - col
    low = off >= 0
    ab = np.zeros((off[low].max() + 1, n))
    ab[off[low], col[low]] = Ms.data[low]
    return ab


def _finite(*arrays):
    """Raise ValueError, as scipy.linalg's checked routines do, unless
    every entry is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _banded_cholesky(ab) -> np.ndarray:
    """Lower banded Cholesky factor of the matrix in lower band storage ab
    (LAPACK dpbtrf); raises NotSPDError if it is not SPD."""
    _finite(ab)
    c, info = flapack.dpbtrf(ab, lower=1)
    if info > 0:
        raise NotSPDError("matrix is not symmetric positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")
    return c


def _banded_solve(c, b) -> np.ndarray:
    """The solution of S x = b for the lower banded Cholesky factor c of S
    (LAPACK dpbtrs)."""
    _finite(c, b)
    x, info = flapack.dpbtrs(c, b, lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of dpbtrs")
    return x


def mass_precond(B, M):
    Ls, C, as_blocks = _as_blocks(B, M)
    F = []
    for L, ab, perm in zip(Ls, C.factors, C.order):
        Ft = np.empty_like(L)                      # M_k^{-1} L_Bk
        Ft[perm] = _banded_solve(ab, L[perm])
        F.append(Ft.T)
    return tuple(F) if as_blocks else F[0]


def jacobi_precond(B, M):
    Ls, C, as_blocks = _as_blocks(B, M)
    F = _scaled(Ls, C.m, "mass diagonal")
    return F if as_blocks else F[0]


# ---------------------------------------------------------------------------
# reference-simplex eigenvalue bounds


def _simplex_lagrange_nodes(d, ell):
    nodes = [idx for idx in product(range(ell + 1), repeat=d) if sum(idx) <= ell]
    return np.array(sorted(nodes), dtype=float) / ell


def _monomial_powers(d, ell):
    return [p for p in product(range(ell + 1), repeat=d) if sum(p) <= ell]


def _simplex_moment(powers):
    # integral over the unit simplex of prod x_i^{a_i}
    num = 1
    for a in powers:
        num *= factorial(a)
    return num / factorial(sum(powers) + len(powers))


@lru_cache(maxsize=None)
def reference_mass_and_lumped(d: int, ell: int):
    """Mass matrix and its lumped diagonal for equispaced degree-ell
    Lagrange nodes on the unit d-simplex."""
    if d < 1 or ell < 1:
        raise ValueError("need d >= 1 and degree >= 1")
    nodes = _simplex_lagrange_nodes(d, ell)
    powers = _monomial_powers(d, ell)
    V = np.array(
        [[np.prod([x ** p for x, p in zip(node, pw)]) for pw in powers] for node in nodes]
    )
    S = np.array(
        [[_simplex_moment(tuple(a + b for a, b in zip(p, q))) for q in powers]
         for p in powers]
    )
    C = np.linalg.inv(V)
    M = C.T @ S @ C
    D = M.sum(axis=1)
    if np.any(D <= 0):
        raise ValueError(
            f"lumped reference weights are not positive for d={d}, degree={ell}"
        )
    return 0.5 * (M + M.T), D


def richardson_weight(d: int, ell: int):
    """Extremal generalized eigenvalues of (M, D) on the reference simplex
    and the damping weight omega = 2 / (lambda- + lambda+)."""
    M, D = reference_mass_and_lumped(d, ell)
    lam, _, info = flapack.dsygvd(M, np.diag(D), jobz="N", uplo="L")   # as scipy's eigh
    if info:
        raise np.linalg.LinAlgError(f"dsygvd failed with info = {info}")
    lam_minus, lam_plus = lam[0], lam[-1]
    return lam_minus, lam_plus, 2.0 / (lam_minus + lam_plus)


# ---------------------------------------------------------------------------
# Richardson approximate inverse


def _check_contraction(C: Coupling, d: np.ndarray, omega: float):
    """Raise unless |1 - omega*lambda| < 1 for every eigenvalue lambda of
    D^{-1} M, for M the coupling ``C``.  With D > 0 that holds exactly when
    omega > 0, M is SPD (its block factors, ``Coupling.factors``, exist)
    and (2/omega) D - M is SPD: one banded Cholesky factorization per block,
    on the band of M_k in its own RCM order.  Both cost linear work."""
    if not omega > 0:
        raise RichardsonDivergenceError(f"omega={omega} must be positive")
    what = "M"
    try:
        C.factors                                   # raises unless M is SPD
        what = "(2/omega) D - M"
        for ab, perm, dk in zip(C.bands, C.order, C.pieces(d)):
            S = -ab
            S[0] += 2.0 / omega * dk[perm]
            _banded_cholesky(S)
    except NotSPDError:
        raise RichardsonDivergenceError(
            f"omega={omega} violates |1 - omega*lambda| < 1 on this mesh: "
            f"{what} is not positive definite") from None


def richardson_precond(B, M, d: np.ndarray, k: int, omega: float):
    Ls, C, as_blocks = _as_blocks(B, M)
    F = tuple(Y.T for Y in C.richardson(Ls, d, k, omega))
    return F if as_blocks else F[0]
