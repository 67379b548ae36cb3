"""Continuous piecewise-polynomial spaces on a mesh.

Degree-l Lagrange elements with equispaced nodes per panel; vertex nodes are
shared between neighbouring panels, so on a closed curve the space has
l * n_panels degrees of freedom.  ``FeSpace.mirrors`` is the space's mirror
group (:class:`MirrorGroup`), searched once and expanded once: the one
source of the dof and panel maps, and of the dof orbits
(``MirrorGroup.orbits``), for assembly and the symmetry basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .mesh import Mesh


@lru_cache(maxsize=None)
def _lagrange_coeffs(degree: int) -> np.ndarray:
    """Monomial coefficients of the Lagrange basis on equispaced nodes of
    [0, 1]; column a holds the coefficients of basis function a."""
    nodes = np.linspace(0.0, 1.0, degree + 1)
    V = np.vander(nodes, degree + 1, increasing=True)
    return np.linalg.inv(V)


def reference_basis(degree: int, x):
    """Values of the l+1 reference basis functions, shape (l+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    C = _lagrange_coeffs(degree)
    powers = x[None, :] ** np.arange(degree + 1)[:, None]
    return C.T @ powers


def reference_basis_deriv(degree: int, x):
    """Derivatives (w.r.t. the local coordinate) of the reference basis."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    C = _lagrange_coeffs(degree)
    k = np.arange(degree + 1)
    dpowers = np.vstack(
        [np.zeros_like(x)] + [k[p] * x ** (p - 1) for p in range(1, degree + 1)]
    )
    return C.T @ dpowers


@dataclass(frozen=True)
class FeSpace:
    mesh: Mesh
    degree: int
    conn: np.ndarray        # (n_panels, degree+1) global node ids, left to right

    def __post_init__(self):
        self.conn.flags.writeable = False

    @property
    def ndof(self):
        return self.degree * self.mesh.n_panels

    @cached_property
    def mirrors(self) -> MirrorGroup:
        """The mirror group from one search and one expansion, on first use;
        each generator maps dofs and panels as one map of range(N + P)."""
        gens, N = mirror_permutations(self), self.ndof
        maps = group_elements([np.concatenate([p, N + j]) for p, j in gens],
                              N + self.mesh.n_panels)
        return MirrorGroup(maps[:, :N], maps[:, N:] - N)


def build_space(m: Mesh, degree: int) -> FeSpace:
    """Continuous Lagrange space of the given degree on the mesh.

    Vertex node i sits at the start of panel i (equivalently the end of
    panel i-1); interior nodes are equispaced in parameter.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    P = m.n_panels
    if P < 3:
        raise ValueError("need at least 3 panels on a closed curve")
    vertex = np.arange(P)
    interior = P + np.arange(P * (degree - 1)).reshape(P, degree - 1)
    conn = np.column_stack([vertex, interior, np.roll(vertex, -1)])
    return FeSpace(m, degree, conn)


# a mirrored panel's end points must land on its image panel's end points to
# this fraction of the panel's length; near a corner an absolute tolerance
# would exceed a whole panel.  Assembly copies every entry to its mirror
# images, so a match gap becomes an error of A and B that no check sees:
# the guard in ``cli.build_level`` reads only M and D (measured gaps:
# 0 on the square, at most 3.0e-8 on the ellipse and the circle through
# level 5, 1.1e-6 on the level-6 ellipse)
MIRROR_MATCH = 1e-7

# the mirrors x, y and the diagonal about the mirror centre, acting on the
# offset from it (as a row vector), and their names, in the order of the
# generators of every MirrorGroup
_MIRRORS = (np.diag([-1.0, 1.0]), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
MIRROR_NAMES = ("x", "y", "diagonal")


def mirror_permutations(s: FeSpace):
    """The curve's mirrors about the geometry's mirror centre c, each as its
    dof map p (N,) and its panel map j (P,): those of x -> 2 c_x - x,
    y -> 2 c_y - y and the diagonal mirror (x, y) -> (c_x + y - c_y,
    c_y + x - c_x) when the mesh has all three (the square and the circle),
    the first two when it has only the axis mirrors (the ellipse), or ()
    otherwise.

    A mirror reverses the cyclic panel order, panel i -> j[i] = (c - i) mod
    P, and the local node order inside a panel, so p[conn[i, a]] =
    conn[j[i], l - a].  The offset c comes from the image of panel 0's start
    point; the map is accepted only if every panel's mirrored ``Mesh.ends``
    match its image panel's end points to MIRROR_MATCH times its length.
    Node positions are not searched: the mesh structure fixes the map.
    """
    m, ends = s.mesh, s.mesh.ends                        # (P, 2, 2): start, end
    centre = np.asarray(m.geometry.mirror_centre, dtype=float)
    P, out = m.n_panels, []
    for k, R in enumerate(_MIRRORS):
        image = centre + (ends - centre) @ R
        c = np.argmin(np.linalg.norm(ends[:, 1] - image[0, 0], axis=-1))
        j = (c - np.arange(P)) % P
        gap = np.linalg.norm(image - ends[j, ::-1], axis=-1).max(axis=1)
        if not np.all(gap <= MIRROR_MATCH * m.length):
            return tuple(out) if k == 2 else ()
        p = np.empty(s.ndof, dtype=int)
        p[s.conn] = s.conn[j, ::-1]
        out.append((p, j))
    return tuple(out)


def group_elements(perms, n: int) -> np.ndarray:
    """The maps (2^k, n) of the products of the k involutions ``perms`` of
    range(n): row e is the product of the generators by the bits of e (1
    the first, 2 the second, 4 the third), so row 0 is the identity."""
    elems = [np.arange(n)]
    for p in perms:
        elems += [p[e] for e in elems]
    return np.stack(elems)


class DofOrbits(NamedTuple):
    """The orbits of the dofs under a mirror group: the representatives
    ``reps`` (R,), each orbit's least dof; for every dof i its
    representative ``rep[i]`` and the first element ``elem[i]`` (in the
    group's order) that maps rep[i] to i; and for every dof an element
    other than the identity that fixes it, or the identity (``fix``).  A
    point of a curve other than the mirror centre lies on at most one
    mirror, so no dof is fixed by more than one element besides the
    identity."""

    reps: np.ndarray
    rep: np.ndarray
    elem: np.ndarray
    fix: np.ndarray


@dataclass(frozen=True, eq=False)
class MirrorGroup:
    """The mirror group of a space: the Klein group {1, p_x, p_y, p_x p_y}
    of the two axis mirrors, D4 with the diagonal mirror p_d, or {1}.
    ``dofs`` (|G|, N) and ``panels`` (|G|, P) hold the dof and panel maps
    of every element; element e is the product of the generators by the
    bits of e, 1 p_x, 2 p_y and 4 p_d, so row 0 is the identity."""

    dofs: np.ndarray
    panels: np.ndarray

    def __post_init__(self):
        for a in (self.dofs, self.panels):
            a.flags.writeable = False

    @classmethod
    def trivial(cls, n_dofs: int, n_panels: int) -> MirrorGroup:
        """The group {1} of a space with n_dofs dofs and n_panels panels."""
        return cls(np.arange(n_dofs)[None], np.arange(n_panels)[None])

    @property
    def perms(self) -> tuple:
        """The generators' dof maps, rows 1, 2 and 4 of ``dofs``."""
        return tuple(self.dofs[1 << k] for k in range(len(self.dofs).bit_length() - 1))

    @cached_property
    def orbits(self) -> DofOrbits:
        """The dof orbits, derived once from ``dofs``: the one record of
        them for assembly's write and for the character bases."""
        dofs, N = self.dofs, self.dofs.shape[1]
        rep = dofs.min(axis=0).astype(np.int32)
        fixed = dofs == np.arange(N)
        fixed[0] = False
        o = DofOrbits(np.flatnonzero(rep == np.arange(N)), rep,
                      np.argmax(dofs[:, rep] == np.arange(N), axis=0).astype(np.int8),
                      fixed.argmax(axis=0).astype(np.int8))
        for a in o:
            a.flags.writeable = False
        return o

    @cached_property
    def inverses(self) -> np.ndarray:
        """(|G|, N): the inverse of every element's dof map, derived once,
        for assembly's write (the character bases do not read it)."""
        inv = np.empty(self.dofs.shape, dtype=np.int32)
        np.put_along_axis(inv, self.dofs, np.arange(self.dofs.shape[1], dtype=np.int32)[None],
                          axis=1)
        inv.flags.writeable = False
        return inv

    def character(self, k: int) -> np.ndarray:
        """chi_k(e) = (-1)^(number of generators in both k and e), by
        element: a 1-D character of the Klein group, or of D4 for k = 0, 3, 4, 7."""
        return np.array([(-1.0) ** bin(e & k).count("1") for e in range(len(self.dofs))])

    @property
    def reverses(self) -> np.ndarray:
        """Whether each element, a product of mirrors, reverses the cyclic
        panel order: an odd number of them does."""
        return self.character(-1) < 0
