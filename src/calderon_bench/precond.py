"""Builders for the four preconditioners and the Richardson damping weight.

G^D = D^{-1} B D^{-1}            (lumped; exact diagonal inverse)
G^M = M^{-1} B M^{-1}            (mass; banded Cholesky solves with M)
G^(k) = R^(k) B R^(k)            (k damped Richardson steps toward M^{-1})
G^J = (diag M)^{-1} B (diag M)^{-1}   (Jacobi; fails for degree > 1)

The coupling matrices are sparse and banded: M couples only dofs of a
common panel, so in reverse Cuthill-McKee order of its graph its band is
2l wide on a closed curve, and R^(k), a polynomial of degree k - 1 in
D^{-1} M, widens it by that much per step.  M is factored as a banded SPD
matrix, R^(k) is built by k - 1 sparse products, and each G costs two
solves or two sparse-times-dense products with B; G itself stays dense.

The damping weight omega = 2 / (lambda- + lambda+) comes from the extremal
generalized eigenvalues of the lumped-preconditioned mass matrix on the
reference simplex; element-wise bounds are global bounds because both
matrices are assembled from element contributions.
"""

from __future__ import annotations

from functools import lru_cache
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


def lumped_precond(B: np.ndarray, d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("lumped diagonal must be positive")
    return B / np.outer(d, d)


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


def mass_precond(B: np.ndarray, M: np.ndarray) -> np.ndarray:
    Ms = sparse.csr_matrix(M)
    perm = reverse_cuthill_mckee(Ms, symmetric_mode=True)
    c = (_banded_cholesky(Ms, perm), True)

    def solve(X):                                  # M^{-1} X
        Y = np.empty_like(X)
        Y[perm] = scipy.linalg.cho_solve_banded(c, X[perm])
        return Y

    G = solve(solve(B).T).T                        # (M^{-1} B) M^{-1}
    return _sym(G)


def jacobi_precond(B: np.ndarray, M: np.ndarray) -> np.ndarray:
    d = np.diag(M).copy()
    if np.any(d <= 0):
        raise ValueError("mass diagonal must be positive")
    return B / np.outer(d, d)


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


def _check_contraction(Ms, d: np.ndarray, omega: float):
    """Raise unless |1 - omega*lambda| < 1 for every eigenvalue lambda of
    D^{-1} M.  With D > 0 that holds exactly when omega > 0, M is SPD and
    (2/omega) D - M is SPD; both are tested by a banded Cholesky
    factorization, which costs linear work."""
    if not omega > 0:
        raise RichardsonDivergenceError(f"omega={omega} must be positive")
    perm = reverse_cuthill_mckee(Ms, symmetric_mode=True)
    for S, what in ((Ms, "M"), (sparse.diags(2.0 / omega * d) - Ms, "(2/omega) D - M")):
        try:
            _banded_cholesky(S, perm)
        except NotSPDError:
            raise RichardsonDivergenceError(
                f"omega={omega} violates |1 - omega*lambda| < 1 on this mesh: "
                f"{what} is not positive definite") from None


def _richardson_sparse(M: np.ndarray, d: np.ndarray, k: int, omega: float):
    """R^(k) as a sparse matrix, from k - 1 sparse products."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("lumped diagonal must be positive")
    Ms = sparse.csr_matrix(M)
    _check_contraction(Ms, d, omega)
    Dinv = sparse.diags(1.0 / d, format="csr")
    eye = sparse.identity(M.shape[0], format="csr")
    R = omega * Dinv
    for _ in range(k - 1):
        R = R + omega * (Dinv @ (eye - Ms @ R))
    return _sym(R)


def richardson_inverse(M: np.ndarray, d: np.ndarray, k: int, omega: float) -> np.ndarray:
    """R^(k) from k damped Richardson iterations for M^{-1} preconditioned
    by the diagonal d, starting from R^(0) = 0; a dense array."""
    return _richardson_sparse(M, d, k, omega).toarray()


def richardson_precond(B: np.ndarray, M: np.ndarray, d: np.ndarray, k: int,
                       omega: float) -> np.ndarray:
    R = _richardson_sparse(M, d, k, omega)
    G = R @ (R @ B).T                              # (R B R)^T, as R = R^T
    return _sym(G)
