"""Spectral condition numbers of preconditioned systems.

For SPD G and A the product GA is similar to the symmetric matrix L^T G L
with A = L L^T, so kappa_S(GA) = rho(GA) rho((GA)^{-1}) equals the extreme
eigenvalue ratio of that symmetric pencil; no nonsymmetric eigensolver is
needed.  The dense symmetric eigensolver and the SPD factorization are
delegated to LAPACK via numpy.
"""

from __future__ import annotations

import numpy as np


class NotSPDError(np.linalg.LinAlgError):
    pass


def spd_factor(S: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = S; raises NotSPDError otherwise."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise NotSPDError("matrix is not symmetric positive definite") from None


def kappa(G, A: np.ndarray) -> float:
    """Spectral condition number kappa_S(G A) for SPD G and A.

    ``G`` may be a dense matrix or any object with a ``matrix`` attribute
    (a preconditioner).
    """
    Gm = getattr(G, "matrix", G)
    L = spd_factor(A)
    C = L.T @ Gm @ L
    lam = np.linalg.eigvalsh(0.5 * (C + C.T))
    lo, hi = lam[0], lam[-1]
    if lo <= 0:
        raise NotSPDError("preconditioned pencil is not positive definite")
    return hi / lo
