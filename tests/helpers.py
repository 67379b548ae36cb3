"""Shared cached builders for the heavy benchmark artifacts.

Meshes and spaces are memoized for the whole pytest session, and so are the
level records and Gram pairs of spaces with at most LARGE dofs.  Those of
larger spaces (levels 5 and 6 of the cubic family: 12 to 36 MB per N x N
array) are kept for the RECENT most recently used keys only.  Tests use
them in runs, so this rebuilds none of them in a tier-1 session, while
holding every level for the session made the test process peak above 1 GB.
A key spells out the default inner product, so that one level is not built
twice under two spellings.  The returned matrices are read-only, as the
meshes and spaces are, so a test that writes into a shared one fails at the
write.
"""

from functools import lru_cache, wraps

import numpy as np

from calderon_bench.boundary_operators import assemble_operator_pair
from calderon_bench.cli import build_level
from calderon_bench.fespace import build_space
from calderon_bench.geometry import make_geometry
from calderon_bench.gram import lumped_matrix, mass_matrix
from calderon_bench.mesh import corner_schedule, initial_mesh

ALPHA = 0.05
QUAD_N = 12
LARGE = 1000
RECENT = 2


# block sizes of the mirror blocks on corner levels 1-4: D4's four 1-D
# blocks and its 2-D block on the square (3N/4 rows), the axis mirrors'
# four blocks on the ellipse (N rows)
BLOCK_SIZES = {
    ("square", 1): [(7, 6, 6, 5, 12), (13, 12, 12, 11, 24), (21, 20, 20, 19, 40),
                    (33, 32, 32, 31, 64)],
    ("square", 3): [(19, 18, 18, 17, 36), (37, 36, 36, 35, 72), (61, 60, 60, 59, 120),
                    (97, 96, 96, 95, 192)],
    ("ellipse", 1): [(13, 12, 12, 11), (25, 24, 24, 23), (41, 40, 40, 39), (65, 64, 64, 63)],
}


@lru_cache(maxsize=None)
def geom(kind):
    return make_geometry(kind, 0.5, 2.0)


@lru_cache(maxsize=None)
def corner_mesh(kind, k):
    return corner_schedule(geom(kind), k)


@lru_cache(maxsize=None)
def corner_space(kind, k, ell):
    return build_space(corner_mesh(kind, k), ell)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def corner_operators(kind, k, ell):
    """A and B of the cached level record, so that the operators and the
    level come from one assembly."""
    lev = corner_level(kind, k, ell)
    return lev.A, lev.B


def _by_size(build):
    """``build(kind, k, ell, inner)`` cached for the session on spaces of at
    most LARGE dofs, and for the RECENT most recent keys on larger ones."""
    small, large = lru_cache(maxsize=None)(build), lru_cache(maxsize=RECENT)(build)

    @wraps(build)
    def cached(kind, k, ell, inner="exact"):
        return (small if corner_space(kind, k, ell).ndof <= LARGE else large)(kind, k, ell, inner)
    return cached


@_by_size
def corner_gram(kind, k, ell, inner):
    s = corner_space(kind, k, ell)
    return _read_only(mass_matrix(s, inner, n_quad=QUAD_N), lumped_matrix(s, inner, n_quad=QUAD_N))


@_by_size
def corner_level(kind, k, ell, inner):
    """The run path's level record on corner level k."""
    lev = build_level(corner_space(kind, k, ell), inner, QUAD_N, ALPHA)
    _read_only(lev.A, lev.B, lev.D, lev.d, *lev.B_factors)
    return lev


@lru_cache(maxsize=None)
def circle_uniform_space(n_panels, ell):
    m = initial_mesh(geom("circle"), n_panels)
    return build_space(m, ell)


@lru_cache(maxsize=None)
def circle_uniform_operators(n_panels, ell):
    return _read_only(*assemble_operator_pair(circle_uniform_space(n_panels, ell), QUAD_N, ALPHA))


def faddeev_leverrier(A):
    """Characteristic polynomial coefficients (monic, descending powers)
    via trace recursion; independent of any eigensolver."""
    n = A.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(A)
    c = 1.0
    I = np.eye(n)
    for k in range(1, n + 1):
        Mk = A @ Mk + c * I
        c = -np.trace(A @ Mk) / k
        coeffs.append(c)
    return np.array(coeffs)
