"""Dense Galerkin matrices of the 2-D Laplace layer operators on a closed
curve.

Single layer: A[nu, nu'] = int int -log|x-y|/(2 pi) phi_nu(y) phi_nu'(x).
Hypersingular: realized through integration by parts, (B~ u)(v) =
(V u_s')(v_s') with arc-length derivatives, plus the rank-one stabilization
alpha <u,1><v,1>; only the log-kernel quadrature is ever needed.

Panel pairs fall in three classes, each with its own rule:

- near (identical and adjacent): the Duffy-log pair rules from
  :mod:`quadrature`, with distances taken from chart chords in
  panel-relative coordinates.  Chords and speeds are evaluated once per
  distinct node of the two rules, the identical rule on one of its two
  mirror halves;
- close (separated, but with a gap below _ETA = 2 times the larger panel):
  the quad_n-point tensor Gauss rule;
- admissible (every other pair, the bulk): a tensor Gauss rule of
  ceil(quad_n / 2) points per panel.  The order follows the distance
  relative to the panel sizes (Sauter & Schwab, Boundary Element Methods,
  ch. 5).

Close and admissible pairs go through one per-pair routine, which differs
only in its rule.

Only one pair per orbit is evaluated.  The mesh's mirrors
(``fespace.mirror_permutations``: the two axis mirrors, or D4 with the
diagonal one) map panel pairs onto panel pairs, and A[g i, g j] = A[i, j]
for every element g of their group.  So the identical pairs take one panel
per panel orbit, the adjacent pairs one edge per edge orbit, and the
separated pairs one pair per pair orbit; a pair orbit is admissible only
if every pair in it is.  Each block is copied to its images through the
group's dof maps, and an image that several elements give (an object a
mirror fixes) takes the mean of their copies.  The representative of an
orbit is chosen by geometry, the least (chart, t0), so that a relabelling
of the panels selects the same blocks: the quadrature is not exactly
mirror-invariant (on the 8-panel cubic ellipse an identical-pair block
and its mirror image differ by up to 7.8e-8 of the block).  That
is about 4 times fewer kernel sums on the ellipse, 8 on the square; A and
B commute with every mirror to rounding, and differ from a sweep over all
pairs by up to the mirror residual that sweep leaves in B.  Without
mirrors the group is trivial, and every pair is its own orbit.

Then one triangle: the kernel is symmetric, so every class is summed on
one triangle of panel pairs into Z, and each matrix is Z + Z^T, symmetric
to the bit: the identical pair contributes one mirror half X of its rule,
the adjacent pair (p, p+1) and the separated pairs p > q their blocks
once (an image may land in the other triangle, which Z + Z^T does not
mind).  Z + Z^T (and B's rank-one term) is formed in Z's own buffer, one
pair of transposed tiles at a time, so a level holds two N x N arrays,
Z_val and Z_der, which become A and B.  Each entry is the same sum of the
same terms as in Z + Z^T, so the result is the same to the bit.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .fespace import (FeSpace, group_elements, mirror_permutations, reference_basis,
                      reference_basis_deriv)
from .gram import lumped_matrix
from .mesh import Mesh, panel_chords, panel_samples, panel_speeds
from .quadrature import gauss_rule, pair_rule


class AssemblyError(RuntimeError):
    pass


class CoercivityError(AssemblyError):
    """A symmetry block of the single layer matrix failed its Cholesky
    factor in ``cli.build_level``; the geometry guard (diameter <= 1)
    was violated or defeated."""


_KERNEL_HALF = -1.0 / (4.0 * np.pi)  # -log(r)/(2 pi) written as this * log(r^2)
_PAIR_BLOCK = 2048  # panel pairs per far-field block
_TILE = 128  # rows and columns of one tile of the in-place Z + Z^T
# a separated panel pair is admissible, and takes the coarse rule of
# _coarse_n(quad_n) points per panel, when its gap is at least _ETA times
# its larger panel.  Measured on the level-5 square, degree 3, against the
# full-order rule: 2.2e-11 of max|A| at _ETA = 2, 1.6e-9 at _ETA = 1
_ETA = 2.0


def _coarse_n(quad_n: int) -> int:
    """Gauss points per panel on admissible pairs: ceil(quad_n / 2)."""
    return -(-quad_n // 2)


def _log_kernel_r2(r2):
    return _KERNEL_HALF * np.log(r2)


def _basis_weights(s: FeSpace, rule, speed, dts):
    """Quadrature weight times basis at every sample, (P, n, l+1) each.

    The plain pairing carries weight * speed * dt * basis value; the
    derivative pairing carries weight * local basis derivative, in which
    the arc-length measure cancels the speed and interval length exactly.
    """
    P = s.mesh.n_panels
    n = rule.nodes.size
    V = reference_basis(s.degree, rule.nodes)
    D = reference_basis_deriv(s.degree, rule.nodes)
    w_val = (rule.weights[None, :] * speed * dts[:, None])[:, :, None] * V.T[None, :, :]
    w_der = np.broadcast_to((rule.weights[:, None] * D.T)[None, :, :], (P, n, s.degree + 1))
    return w_val, w_der


def _admissible_pairs(mesh):
    """(P, P) mask of the panel pairs far enough apart for the coarse rule.

    With h a panel's arc length and c the midpoint of its end points, the
    pair (p, q) is admissible when gap = |c_p - c_q| - (h_p + h_q)/2 is at
    least _ETA max(h_p, h_q).  Identical and adjacent pairs have gap <= 0
    (a chord is no longer than its arc), so they are never admissible.
    The distance is relative, not a count of panels between the two: next
    to a corner the sizes halve panel by panel, so no index distance keeps
    gap/h away from 0.
    """
    ends, _, _ = panel_samples(mesh, [0.0, 1.0])
    c = 0.5 * (ends[:, 0] + ends[:, 1])
    h = mesh.length
    gap = np.hypot(np.subtract.outer(c[:, 0], c[:, 0]), np.subtract.outer(c[:, 1], c[:, 1]))
    gap -= 0.5 * np.add.outer(h, h)
    return gap >= _ETA * np.maximum.outer(h, h)


def _panel_rank(mesh):
    """Each panel's place in the order of (chart, t0): a label of the panel
    by its geometry, not by its index in the cyclic order."""
    rank = np.empty(mesh.n_panels, dtype=np.int64)
    rank[np.lexsort((mesh.t0, mesh.chart))] = np.arange(mesh.n_panels)
    return rank


def _mirror_group(s: FeSpace, perms):
    """The dof maps (|G|, N) and the panel maps (|G|, P) of every element of
    the group generated by the mirrors ``perms`` of
    ``mirror_permutations(s)``; row 0 is the identity, and without mirrors
    it is the only row.

    Vertex dof i starts panel i.  An element that keeps the orientation
    maps panel i onto the panel that starts at the image of vertex i; one
    that reverses it, onto the panel that starts at the image of vertex
    i + 1.
    """
    P = s.mesh.n_panels
    dofs = group_elements(perms, s.ndof)
    start, end = dofs[:, :P], np.roll(dofs[:, :P], -1, axis=1)
    return dofs, np.where(end == (start + 1) % P, start, end)


def _orbits(keys):
    """Representatives of the orbits of some objects under a group, and the
    order of each one's stabilizer.

    ``keys`` yields, for each element of the group (the identity first),
    a label (M,) of each object's image under it; equal labels mean the
    same object.  Labels come from geometry, and the representative of an
    orbit is its member of least label.  The labels are read one element
    at a time, so only O(M) is held.  Returns the representatives' ids
    (R,) and the number of elements (R,) that map each onto itself.
    """
    keys = iter(keys)
    own = next(keys)
    least, stab = own.copy(), np.ones(own.size, dtype=np.int64)
    for key in keys:
        np.minimum(least, key, out=least)
        stab += key == own
    reps = np.flatnonzero(own == least)
    return reps, stab[reps]


def _mean_over_stabilizer(stab, *blocks):
    """Divide each block in place by ``stab`` (R,), the number of group
    elements that map its object onto itself (a power of 2, so exact).

    ``_scatter`` adds a block at its images under every element, so an
    object fixed by k elements gets k copies, each permuted by one of them.
    Scaled, their sum is the mean of the block over its stabilizer, which
    the quadrature keeps only to its own accuracy; the sum of all images
    then commutes with the group to rounding."""
    fixed = np.flatnonzero(stab > 1)
    for b in blocks:
        b[fixed] /= stab[fixed, None, None]
    return blocks


def _pair_blocks(s: FeSpace, rule, p, q, stab):
    """Tensor Gauss blocks of the panel pairs (p[i], q[i]), _PAIR_BLOCK
    pairs at a time, each scaled by one over its stabilizer's order
    ``stab[i]`` (see ``_mean_over_stabilizer``).

    Yields the row and column dof ids (C, l+1) and the blocks (C, l+1,
    l+1) of the basis pairing and of the derivative pairing, each the
    pair's sample weights around its (n, n) log-kernel matrix.
    """
    pts, speed, dts = panel_samples(s.mesh, rule.nodes)
    w_val, w_der = _basis_weights(s, rule, speed, dts)
    x, y = pts[..., 0], pts[..., 1]
    for i in range(0, p.size, _PAIR_BLOCK):
        a, b = p[i:i + _PAIR_BLOCK], q[i:i + _PAIR_BLOCK]
        dx = x[a][:, :, None] - x[b][:, None, :]
        dy = y[a][:, :, None] - y[b][:, None, :]
        r2 = dx * dx + dy * dy
        if r2.min() <= 0.0:
            raise AssemblyError("far-field quadrature points of distinct panels coincide")
        K = _log_kernel_r2(r2)
        yield (s.conn[a], s.conn[b],
               *_mean_over_stabilizer(stab[i:i + _PAIR_BLOCK],
                                      w_val[a].transpose(0, 2, 1) @ K @ w_val[b],
                                      w_der[a].transpose(0, 2, 1) @ K @ w_der[b]))


def _separated_orbits(mesh, panels):
    """One pair per orbit of the separated panel pairs (neither identical
    nor adjacent) under the group with the panel maps ``panels`` (|G|, P).

    The representative is the pair of least panel ranks (``_panel_rank``),
    given as (higher rank, lower rank); with the trivial group on a mesh
    in chart order that is every pair p > q, in row order.  Returns the
    pairs' panels p and q (R,), whether each orbit is admissible, which
    it is only if all its pairs are, and the order of each stabilizer.
    """
    P = mesh.n_panels
    p, q = np.nonzero(np.tri(P, k=-2, dtype=bool))
    keep = p - q < P - 1                              # (P-1, 0) are adjacent
    p, q = p[keep], q[keep]
    rank = _panel_rank(mesh)

    def keys():
        for g in rank[panels]:
            a, b = g[p], g[q]
            yield np.maximum(a, b) * P + np.minimum(a, b)

    reps, stab = _orbits(keys())
    p, q = p[reps], q[reps]
    far = _admissible_pairs(mesh)[panels[:, p], panels[:, q]].all(axis=0)
    swap = rank[p] < rank[q]
    return np.where(swap, q, p), np.where(swap, p, q), far, stab


def _far_field(s: FeSpace, quad_n: int, panels=None):
    """Gauss log-kernel blocks of the panel pairs that are neither identical
    nor adjacent, one pair per orbit of the mirror group with the panel
    maps ``panels`` (from ``_mirror_group``; the trivial group by default,
    and then every pair p > q), for ``_scatter`` to copy to the orbit's
    other pairs (see ``_separated_orbits``).

    Separated pairs fall in two classes (see ``_admissible_pairs``):
    admissible pairs take a tensor Gauss rule of ceil(quad_n / 2) points
    per panel, the few close pairs next to the near field the full
    quad_n-point rule.  Yields the blocks of ``_pair_blocks``, the
    admissible orbits first.
    """
    if panels is None:
        panels = np.arange(s.mesh.n_panels)[None]
    p, q, far, stab = _separated_orbits(s.mesh, panels)
    for rule, c in ((gauss_rule(_coarse_n(quad_n)), far), (gauss_rule(quad_n), ~far)):
        yield from _pair_blocks(s, rule, p[c], q[c], stab[c])


def _near_field(s: FeSpace, quad_n: int, panels=None):
    """Identical and adjacent panel-pair blocks on one triangle of the
    symmetric kernel, one panel and one edge per orbit of the mirror group
    with the panel maps ``panels`` (from ``_mirror_group``; the trivial
    group by default), for ``_scatter`` to copy to the orbit's other
    panels and edges.  Each block is scaled by one over its stabilizer's
    order (see ``_mean_over_stabilizer``).

    Returns the row and column dof ids (K, l+1) and the blocks (K, l+1,
    l+1) of the basis pairing and of the derivative pairing: first the
    identical pairs (p, p), each block one mirror half X of the pair block
    X + X^T, then the adjacent pairs (p, p+1).  With the trivial group
    these are all P of each, in panel order.  The representative of an
    orbit is its panel of least rank (``_panel_rank``), or its edge
    (p, p+1) of least rank of p; both are evaluated on the sub-mesh of
    the representatives and their next neighbours.  Distances come from
    chords in panel-relative coordinates: chi(u + dt (t - u)) - chi(u)
    inside a panel, and the chords from the shared vertex chi(t1_p) =
    chi(t0_q) for adjacent panels.

    Each chart quantity is evaluated once per distinct reference node.
    The identical rule is two mirror halves, (t, u, w, d) and (u, t, w,
    -d), with one |chord|; only the first is evaluated.  The adjacent
    rule's offsets and u nodes share one node set, on which both vertex
    chord families are evaluated and gathered.  The speeds of both rules
    come from one ``panel_speeds`` call.
    """
    m, ell, P = s.mesh, s.degree, s.mesh.n_panels
    if panels is None:
        panels = np.arange(P)[None]
    nxt = np.roll(np.arange(P), -1)
    rank = _panel_rank(m)
    ids, id_stab = _orbits(rank[panels])
    # an element that reverses the orientation maps the edge (p, p+1) onto
    # the edge that starts at the image of p + 1
    keeps = (panels[:, 1] == nxt[panels[:, 0]])[:, None]
    eds, ed_stab = _orbits(rank[np.where(keeps, panels, panels[:, nxt])])
    sub = np.unique(np.concatenate([ids, eds, nxt[eds]]))
    m = Mesh(m.geometry, *(x[sub] for x in (m.chart, m.t0, m.t1, m.length, m.qlength)))
    li, le, ln = (np.searchsorted(sub, x) for x in (ids, eds, nxt[eds]))

    r_id = pair_rule("identical", quad_n)
    r_ad = pair_rule("adjacent", quad_n)
    half, n_ad = r_id.weights.size // 2, r_ad.weights.size
    t_id, u_id = r_id.tnodes[:half], r_id.unodes[:half]

    # speeds at the t and u nodes of the identical half and of the adjacent rule
    nodes, at_node = np.unique(np.concatenate([t_id, u_id, r_ad.tnodes, r_ad.unodes]),
                               return_inverse=True)
    speed, dt = panel_speeds(m, nodes)
    sp = np.split(speed[:, at_node], np.cumsum([half, half, n_ad]), axis=1)
    # the adjacent chords chi(t1 - dt s) - chi(t0' + dt' u) from the vertex
    steps, at_step = np.unique(np.concatenate([r_ad.offsets, r_ad.unodes]), return_inverse=True)
    c_ad = (panel_chords(m, 1.0, -steps)[le[:, None], at_step[:n_ad]]
            - panel_chords(m, 0.0, steps)[ln[:, None], at_step[n_ad:]])
    c_id = panel_chords(m, u_id, r_id.offsets[:half])[li]

    blocks = []
    for t, u, w, chord, sp_t, sp_u, p, q in (
            (t_id, u_id, r_id.weights[:half], c_id, sp[0], sp[1], li, li),
            (r_ad.tnodes, r_ad.unodes, r_ad.weights, c_ad, sp[2], sp[3], le, ln)):
        wk = w * _log_kernel_r2(chord[..., 0] ** 2 + chord[..., 1] ** 2)    # (R, n)
        wv = wk * sp_t[p] * sp_u[q] * (dt[p] * dt[q])[:, None]
        blocks.append(((reference_basis(ell, t) * wv[:, None, :]) @ reference_basis(ell, u).T,
                       (reference_basis_deriv(ell, t) * wk[:, None, :])
                       @ reference_basis_deriv(ell, u).T))
    (id_val, id_der), (ad_val, ad_der) = blocks
    return (np.concatenate([s.conn[ids], s.conn[eds]]),
            np.concatenate([s.conn[ids], s.conn[nxt[eds]]]),
            *_mean_over_stabilizer(np.concatenate([id_stab, ed_stab]),
                                   np.concatenate([id_val, ad_val]),
                                   np.concatenate([id_der, ad_der])))


def _scatter(dofs, blocks):
    """The sums Z_val and Z_der (N, N) of the blocks (rows, cols, val, der)
    at their rows and columns mapped by each of the group's dof maps
    ``dofs`` (|G|, N): every block at every one of its images.  The last
    block is released on return; ``_fold`` then turns the two buffers into
    A and B in place."""
    N = dofs.shape[1]
    Z_val, Z_der = np.zeros(N * N), np.zeros(N * N)
    for rows, cols, val, der in blocks:
        for d in dofs:
            idx = (d[rows][:, :, None] * N + d[cols][:, None, :]).ravel()  # 1-D: the fast path
            np.add.at(Z_val, idx, val.ravel())
            np.add.at(Z_der, idx, der.ravel())
    return Z_val.reshape(N, N), Z_der.reshape(N, N)


def _fold(Z, what, alpha=0.0, m=None):
    """Z + Z^T, plus alpha m m^T if ``m`` is given, written into Z itself.

    One pass over the tile pairs (I, J) with I <= J: S = Z[I, J] + Z[J, I]^T
    (+ alpha outer(m[I], m[J])) goes to Z[I, J] and S^T to Z[J, I], so the
    entries (i, j) and (j, i) are the same sum, as in Z + Z^T.  A tile with
    a non-finite entry raises AssemblyError naming ``what``.
    """
    N = Z.shape[0]
    for i in range(0, N, _TILE):
        I = slice(i, i + _TILE)
        for j in range(i, N, _TILE):
            J = slice(j, j + _TILE)
            S = Z[I, J] + Z[J, I].T
            if m is not None:
                S += alpha * np.outer(m[I], m[J])
            if not np.isfinite(S).all():
                raise AssemblyError(f"{what}: non-finite entries")
            Z[I, J] = S
            Z[J, I] = S.T
    return Z


def assemble_operator_pair(s: FeSpace, quad_n: int = 12, alpha: float = 0.05):
    """Galerkin matrices (A, B) of the single layer and the stabilized
    hypersingular operator, from one sweep of kernel evaluations over the
    orbits of panel pairs under the mesh's mirrors.

    A is symmetric positive definite for admissible geometries (diameter
    <= 1).  B = B~ + alpha m m^T: B~ acts on arc-length derivatives through
    the single layer kernel and therefore annihilates constants; the
    rank-one term with m[nu] = <phi_nu, 1>, the exact lumped diagonal,
    restores definiteness for any alpha > 0.  Non-finite entries raise
    AssemblyError; ``cli.build_level`` checks that A and B are SPD.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive (B~ alone is only semi-coercive)")
    if s.mesh.n_panels < 3:
        raise AssemblyError("assembly requires at least 3 panels on the curve")
    dofs, panels = _mirror_group(s, mirror_permutations(s))
    Z_val, Z_der = _scatter(dofs, chain([_near_field(s, quad_n, panels)],
                                        _far_field(s, quad_n, panels)))
    A = _fold(Z_val, "single layer")
    B = _fold(Z_der, "stabilized hypersingular", alpha, lumped_matrix(s, "exact", n_quad=quad_n))
    return A, B


def write_dense_matrix(Mt: np.ndarray, path):
    """Plain-text dense dump: first line n, then n rows of n decimals."""
    Mt = np.atleast_2d(Mt)
    with open(path, "w") as fh:
        fh.write(f"{Mt.shape[0]}\n")
        for row in Mt:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def write_diagonal(d: np.ndarray, path):
    """One line of diagonal entries."""
    with open(path, "w") as fh:
        fh.write(" ".join(f"{v:.17g}" for v in d) + "\n")
