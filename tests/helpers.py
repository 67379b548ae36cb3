"""Shared cached builders for the heavy benchmark artifacts.

Everything is memoized so the expensive assemblies (corner families up to
level 6, the 128-panel circle) are computed once per pytest session and
shared between the module tests and the acceptance suite.  The returned
matrices are read-only, as the meshes and spaces are, so a test that writes
into a shared one fails at the write.
"""

from functools import lru_cache

import numpy as np

from calderon_bench.boundary_operators import assemble_operator_pair
from calderon_bench.cli import build_level
from calderon_bench.fespace import build_space
from calderon_bench.geometry import make_geometry
from calderon_bench.gram import lumped_matrix, mass_matrix
from calderon_bench.mesh import corner_schedule, initial_mesh

ALPHA = 0.05
QUAD_N = 12


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


@lru_cache(maxsize=None)
def corner_operators(kind, k, ell):
    return _read_only(*assemble_operator_pair(corner_space(kind, k, ell), QUAD_N, ALPHA))


@lru_cache(maxsize=None)
def corner_gram(kind, k, ell, inner="exact"):
    s = corner_space(kind, k, ell)
    return _read_only(mass_matrix(s, inner, n_quad=QUAD_N), lumped_matrix(s, inner, n_quad=QUAD_N))


@lru_cache(maxsize=None)
def corner_level(kind, k, ell, inner="exact"):
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
