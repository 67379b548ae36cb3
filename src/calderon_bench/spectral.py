"""Spectral condition numbers of preconditioned systems.

For SPD G and A the product GA is similar to the symmetric matrix L^T G L
with A = L L^T, so kappa_S(GA) = rho(GA) rho((GA)^{-1}) equals the extreme
eigenvalue ratio of that symmetric pencil; no nonsymmetric eigensolver is
needed.  One Cholesky factor of A serves every preconditioner of a level:
``kappa`` takes it as an optional argument.  L^T G L is formed by two
triangular BLAS products and its spectrum by the dense symmetric
eigensolver; both run in LAPACK/BLAS.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrmm


class NotSPDError(np.linalg.LinAlgError):
    pass


def spd_factor(S: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = S; raises NotSPDError otherwise."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise NotSPDError("matrix is not symmetric positive definite") from None


def kappa(G, A: np.ndarray, L: np.ndarray | None = None) -> float:
    """Spectral condition number kappa_S(G A) for SPD G and A.

    ``G`` may be a dense matrix or any object with a ``matrix`` attribute
    (a preconditioner).  ``L`` is the lower Cholesky factor of A from
    :func:`spd_factor`; pass it to share one factorization of A across
    several preconditioners, or omit it to factor A here.
    """
    Gm = getattr(G, "matrix", G)
    if L is None:
        L = spd_factor(A)
    # U = L^T is L's storage read in Fortran order, so BLAS takes it as is
    U = np.asarray(L, dtype=float).T
    GL = dtrmm(1.0, U, np.array(Gm, dtype=float, order="F"), overwrite_b=1,
               side=1, lower=0, trans_a=1)                  # G U^T = G L
    C = dtrmm(1.0, U, GL, overwrite_b=1, side=0, lower=0)   # U G L = L^T G L
    lam = np.linalg.eigvalsh(0.5 * (C + C.T))
    lo, hi = lam[0], lam[-1]
    if lo <= 0:
        raise NotSPDError("preconditioned pencil is not positive definite")
    return hi / lo
