"""Builders for the four preconditioners and the Richardson damping weight.

G^D = D^{-1} B D^{-1}            (lumped; exact diagonal inverse)
G^M = M^{-1} B M^{-1}            (mass; banded Cholesky solves with M)
G^(k) = R^(k) B R^(k)            (k damped Richardson steps toward M^{-1})
G^J = (diag M)^{-1} B (diag M)^{-1}   (Jacobi; fails for degree > 1)

Each builder works block by block.  Every coupling X commutes with the
curve's mirrors, so in the symmetry basis of ``spectral.BlockFactor``
G_k = X_k B_k X_k.  B is passed as the tuple of its blocks B_k, M as a
:class:`Coupling` (M block diagonal and sparse in that basis, diag(M)
diagonal), and D as its diagonal in that basis.  A dense B and M are one
block with Q = I, and give a dense G.  With several blocks no G is formed
at full size.

The coupling matrices are sparse and banded: M couples only dofs of a
common panel, so in reverse Cuthill-McKee order of its graph its band is
2l wide on a closed curve (l on each symmetry block, which holds a piece
of the curve without the wrap-around: a quarter under the two axis
mirrors, and an eighth for a 1-D block of D4 on the square), and R^(k), a
polynomial of degree k - 1 in D^{-1} M, widens it by that much per step.  A
:class:`Coupling` does the sparse work once for every builder of its
level: one RCM order, one banded factor of M per block, one Richardson
contraction check and one chain of sparse products that passes each R^(k)
on its way to the largest k asked for.  Each G_k then costs two banded
solves or two sparse-times-dense products with B_k.

The damping weight omega = 2 / (lambda- + lambda+) comes from the extremal
generalized eigenvalues of the lumped-preconditioned mass matrix on the
reference simplex; element-wise bounds are global bounds because both
matrices are assembled from element contributions.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from math import factorial

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .spectral import NotSPDError


class RichardsonDivergenceError(RuntimeError):
    pass


def _sym(X):
    return 0.5 * (X + X.T)


class Coupling:
    """The coupling matrices of one level in the symmetry basis, and the
    sparse work the builders share.

    ``M`` is Q^T M Q as one block-diagonal CSR matrix, ``m`` the diagonal
    Q^T diag(M) Q, and ``sizes`` the block sizes, in the order of the
    blocks of B.  For Q = I these are M and diag(M) themselves, as one
    block.  The lumped diagonal d (Q^T D Q) is passed to the builders that
    use it; it must not change while the Coupling is in use.
    """

    def __init__(self, M, m: np.ndarray, sizes):
        self.M = sparse.csr_matrix(M)
        self.m = np.asarray(m, dtype=float)
        self.sizes = tuple(sizes)
        self._cuts = np.cumsum((0,) + self.sizes)
        self._chain = None          # (d, omega, k, unsymmetrized R^(k), D^{-1})

    @classmethod
    def dense(cls, M):
        """One block with Q = I."""
        M = sparse.csr_matrix(M)
        return cls(M, M.diagonal(), M.shape[:1])

    def blocks(self, X):
        """The diagonal blocks of a block-diagonal sparse matrix, or the
        pieces of a vector."""
        cuts = zip(self._cuts[:-1], self._cuts[1:])
        if sparse.issparse(X):
            return [X[a:b, a:b] for a, b in cuts]
        return [X[a:b] for a, b in cuts]

    @cached_property
    def order(self):
        """The RCM order of M, and each block's share of it.  M has no
        entry between blocks, so the order keeps the rows of each connected
        component together, and each share keeps its band."""
        perm = reverse_cuthill_mckee(self.M, symmetric_mode=True)
        block = np.searchsorted(self._cuts, perm, side="right") - 1
        return perm, [perm[block == b] - a for b, a in enumerate(self._cuts[:-1])]

    @cached_property
    def factors(self):
        """Lower banded Cholesky factor of each block of M in its share of
        the RCM order; raises NotSPDError if M is not SPD."""
        return [_banded_cholesky(Mk, pk) for Mk, pk in zip(self.blocks(self.M), self.order[1])]

    def richardson(self, d: np.ndarray, k: int, omega: float):
        """R^(k) for the lumped diagonal d, as one block-diagonal sparse
        matrix.  The contraction check runs once per (d, omega), and the
        chain continues from the last step taken, so R^(2), R^(4) and
        R^(6) cost six steps in all."""
        if k < 1:
            raise ValueError("k must be >= 1")
        chain = self._chain
        if chain is None or chain[0] is not d or chain[1] != omega or chain[2] > k:
            d = np.asarray(d, dtype=float)
            if np.any(d <= 0):
                raise ValueError("lumped diagonal must be positive")
            _check_contraction(self.M, d, omega, self.order[0])
            Dinv = sparse.diags(1.0 / d, format="csr")
            chain = (d, omega, 1, omega * Dinv, Dinv)
        d, _, j, R, Dinv = chain
        eye = sparse.identity(self.M.shape[0], format="csr")
        for _ in range(k - j):
            R = R + omega * (Dinv @ (eye - self.M @ R))
        self._chain = (d, omega, k, R, Dinv)
        return _sym(R)


def _as_blocks(B, M=None):
    """(blocks of B, the Coupling, whether B came as blocks): a dense B and
    M are one block."""
    if isinstance(B, tuple):
        return B, M, True
    if M is not None and not isinstance(M, Coupling):
        M = Coupling.dense(M)
    return (B,), M, False


def _scaled(B, x: np.ndarray, what: str):
    """Each block B_k / (x_k x_k^T), for x positive and cut like B."""
    if np.any(x <= 0):
        raise ValueError(f"{what} must be positive")
    Bs, _, as_blocks = _as_blocks(B)
    cuts = np.cumsum([Bk.shape[0] for Bk in Bs])[:-1]
    G = tuple(Bk / np.outer(xk, xk) for Bk, xk in zip(Bs, np.split(x, cuts)))
    return G if as_blocks else G[0]


def lumped_precond(B, d: np.ndarray):
    return _scaled(B, np.asarray(d, dtype=float), "lumped diagonal")


def _banded_cholesky(Ms, perm) -> np.ndarray:
    """Lower banded Cholesky factor of Ms[perm][:, perm], in LAPACK's
    lower band storage; raises NotSPDError if Ms is not SPD."""
    C = Ms[perm][:, perm].tocoo()
    off = C.row - C.col
    low = off >= 0
    ab = np.zeros((off[low].max() + 1, Ms.shape[0]))
    ab[off[low], C.col[low]] = C.data[low]
    try:
        return scipy.linalg.cholesky_banded(ab, lower=True)
    except np.linalg.LinAlgError:
        raise NotSPDError("matrix is not symmetric positive definite") from None


def mass_precond(B, M):
    Bs, C, as_blocks = _as_blocks(B, M)
    G = []
    for Bk, ab, perm in zip(Bs, C.factors, C.order[1]):
        c = (ab, True)

        def solve(X):                              # M_k^{-1} X
            Y = np.empty_like(X)
            Y[perm] = scipy.linalg.cho_solve_banded(c, X[perm])
            return Y

        G.append(_sym(solve(solve(Bk).T).T))       # (M_k^{-1} B_k) M_k^{-1}
    return tuple(G) if as_blocks else G[0]


def jacobi_precond(B, M):
    _, C, _ = _as_blocks(B, M)
    return _scaled(B, C.m, "mass diagonal")


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
    return _sym(M), D


def richardson_weight(d: int, ell: int):
    """Extremal generalized eigenvalues of (M, D) on the reference simplex
    and the damping weight omega = 2 / (lambda- + lambda+)."""
    M, D = reference_mass_and_lumped(d, ell)
    lam = scipy.linalg.eigh(M, np.diag(D), eigvals_only=True)
    lam_minus, lam_plus = lam[0], lam[-1]
    return lam_minus, lam_plus, 2.0 / (lam_minus + lam_plus)


# ---------------------------------------------------------------------------
# Richardson approximate inverse


def _check_contraction(Ms, d: np.ndarray, omega: float, perm):
    """Raise unless |1 - omega*lambda| < 1 for every eigenvalue lambda of
    D^{-1} M.  With D > 0 that holds exactly when omega > 0, M is SPD and
    (2/omega) D - M is SPD; both are tested by a banded Cholesky
    factorization in the RCM order ``perm`` of M, which costs linear work."""
    if not omega > 0:
        raise RichardsonDivergenceError(f"omega={omega} must be positive")
    for S, what in ((Ms, "M"), (sparse.diags(2.0 / omega * d) - Ms, "(2/omega) D - M")):
        try:
            _banded_cholesky(S, perm)
        except NotSPDError:
            raise RichardsonDivergenceError(
                f"omega={omega} violates |1 - omega*lambda| < 1 on this mesh: "
                f"{what} is not positive definite") from None


def richardson_inverse(M: np.ndarray, d: np.ndarray, k: int, omega: float) -> np.ndarray:
    """R^(k) from k damped Richardson iterations for M^{-1} preconditioned
    by the diagonal d, starting from R^(0) = 0; a dense array."""
    return Coupling.dense(M).richardson(d, k, omega).toarray()


def richardson_precond(B, M, d: np.ndarray, k: int, omega: float):
    Bs, C, as_blocks = _as_blocks(B, M)
    G = tuple(_sym(Rk @ (Rk @ Bk).T)               # (R B R)^T, as R = R^T
              for Rk, Bk in zip(C.blocks(C.richardson(d, k, omega)), Bs))
    return G if as_blocks else G[0]
