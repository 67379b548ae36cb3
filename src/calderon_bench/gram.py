"""Mass matrix, lumped (diagonal) coupling matrix, and the scaled-basis
transform.

Two inner products are supported: the exact L2 product on the curve and the
mesh-dependent product in which the Jacobian (speed) is replaced by its
per-panel average |T| / |parameter interval|.  On affine charts the two
coincide; the averaged product makes every lumped entry exactly computable
on curved geometries.

``panel_products`` (per-panel pairings, summed through the panels' node
ids) builds the mass matrix, the lumped diagonal and every Gram block of
the duals.
"""

from __future__ import annotations

import numpy as np

from .fespace import FeSpace, reference_basis
from .mesh import panel_speeds
from .quadrature import gauss_rule

KINDS = ("exact", "mesh-averaged")


def panel_products(w: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Per-panel pairings sum_k w[p, k] U[a, k] V[b, k], shape (P, a, b), of
    values U and V at the nodes of the weights w (P, n); U and V are shared
    by every panel, (a, n), or per panel, (P, a, n)."""
    return (U * w[:, None, :]) @ np.swapaxes(V, -1, -2)


def _panel_blocks(s: FeSpace, kind: str, n_quad: int) -> np.ndarray:
    """Per-panel Gram blocks <phi_a, phi_b> on each panel, shape (P, l+1, l+1)."""
    g = gauss_rule(n_quad)
    V = reference_basis(s.degree, g.nodes)          # (l+1, n)
    if kind == "exact":
        speed, dt = panel_speeds(s.mesh, g.nodes)
        jac = speed * dt[:, None]
    elif kind == "mesh-averaged":
        jac = s.mesh.length[:, None]
    else:
        raise ValueError(f"inner-product kind must be one of {KINDS}, got {kind!r}")
    return panel_products(g.weights * jac, V, V)


def mass_matrix(s: FeSpace, kind: str = "exact", n_quad: int = 12) -> np.ndarray:
    """Dense symmetric Gram matrix <phi_nu, phi_nu'> in the chosen product."""
    M = np.zeros((s.ndof, s.ndof))
    np.add.at(M, (s.conn[:, :, None], s.conn[:, None, :]), _panel_blocks(s, kind, n_quad))
    return M


def lumped_matrix(s: FeSpace, kind: str = "exact", n_quad: int = 12) -> np.ndarray:
    """Diagonal entries <1, phi_nu>, computed as mass-matrix row sums.

    The basis is a partition of unity, so row sums and the defining
    integrals agree identically; summing the same per-panel blocks that
    ``mass_matrix`` scatters keeps the lumping identity exact by
    construction, without forming the N x N matrix.
    """
    rows = _panel_blocks(s, kind, n_quad).sum(axis=2)   # (P, l+1)
    return np.bincount(s.conn.ravel(), weights=rows.ravel(), minlength=s.ndof)


def scaled_basis(A: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Similarity rescaling D^{-1/2} A D^{-1/2} for a diagonal D given by
    its entries; maps D itself to the identity."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("diagonal entries must be positive")
    r = 1.0 / np.sqrt(d)
    return A * np.outer(r, r)
