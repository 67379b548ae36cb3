"""Builders for the four preconditioners and the Richardson damping weight.

G^D = D^{-1} B D^{-1}            (lumped; exact diagonal inverse)
G^M = M^{-1} B M^{-1}            (mass; dense inverse via Cholesky)
G^(k) = R^(k) B R^(k)            (k damped Richardson steps toward M^{-1})
G^J = (diag M)^{-1} B (diag M)^{-1}   (Jacobi; fails for degree > 1)

The damping weight omega = 2 / (lambda- + lambda+) comes from the extremal
generalized eigenvalues of the lumped-preconditioned mass matrix on the
reference simplex; element-wise bounds are global bounds because both
matrices are assembled from element contributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import factorial

import numpy as np
import scipy.linalg

from .spectral import spd_factor


class RichardsonDivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class Precond:
    kind: str
    matrix: np.ndarray
    params: dict = field(default_factory=dict)


def _sym(X):
    return 0.5 * (X + X.T)


def lumped_precond(B: np.ndarray, d: np.ndarray) -> Precond:
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("lumped diagonal must be positive")
    G = B / np.outer(d, d)
    return Precond("lumped", G)


def mass_precond(B: np.ndarray, M: np.ndarray) -> Precond:
    c = (spd_factor(M), True)                     # lower Cholesky factor of M
    X = scipy.linalg.cho_solve(c, B)              # M^{-1} B
    G = scipy.linalg.cho_solve(c, X.T).T          # (M^{-1} B) M^{-1}
    return Precond("mass", _sym(G))


def jacobi_precond(B: np.ndarray, M: np.ndarray) -> Precond:
    d = np.diag(M).copy()
    if np.any(d <= 0):
        raise ValueError("mass diagonal must be positive")
    return Precond("jacobi", B / np.outer(d, d))


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


def richardson_inverse(M: np.ndarray, d: np.ndarray, k: int, omega: float) -> np.ndarray:
    """R^(k) from k damped Richardson iterations for M^{-1} preconditioned
    by the diagonal d, starting from R^(0) = 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = np.asarray(d, dtype=float)
    lam = np.linalg.eigvalsh(M / np.outer(np.sqrt(d), np.sqrt(d)))
    if np.max(np.abs(1.0 - omega * lam)) >= 1.0:
        raise RichardsonDivergenceError(
            f"omega={omega} violates |1 - omega*lambda| < 1 on this mesh "
            f"(lambda in [{lam[0]:.4g}, {lam[-1]:.4g}])"
        )
    dinv = 1.0 / d
    R = omega * np.diag(dinv)
    for _ in range(k - 1):
        R = R + omega * (dinv[:, None] * (np.eye(M.shape[0]) - M @ R))
    return _sym(R)


def richardson_precond(B: np.ndarray, M: np.ndarray, d: np.ndarray, k: int,
                       omega: float) -> Precond:
    R = richardson_inverse(M, d, k, omega)
    return Precond(f"richardson:{k}", _sym(R @ B @ R), {"k": k, "omega": omega})
