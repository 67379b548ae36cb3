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

Only one pair per orbit is evaluated.  The mesh's mirrors (the two axis
mirrors, or D4 with the diagonal one) map panel pairs onto panel pairs,
and A[g i, g j] = A[i, j] for every element g of their group, whose panel
maps, orientations and dof maps come from the space's record
(``FeSpace.mirrors``).  So the identical pairs take one panel per panel
orbit, the adjacent pairs one edge per edge orbit, and the separated
pairs one pair per pair orbit; a pair orbit is admissible only if every
pair in it is.  A block whose object an element fixes is scaled by one
over the order of its stabilizer, so that the sum of its images is the
mean of its copies.  The representative of an orbit is chosen by
geometry, the least (chart, t0), so that a relabelling of the panels
selects the same blocks: the quadrature is not exactly mirror-invariant
(on the 8-panel cubic ellipse an identical-pair block and its mirror
image differ by up to 7.8e-8 of the block).  That is about 4 times fewer
kernel sums on the ellipse, 8 on the square; A and B differ from a sweep
over all pairs by up to the mirror residual that sweep leaves in B.
Without mirrors the group is trivial, and every pair is its own orbit.

Then one triangle: the kernel is symmetric, so every class is summed on
one triangle of panel pairs into Z, and each matrix is Z + Z^T: the
identical pair contributes one mirror half X of its rule, the adjacent
pair (p, p+1) and the separated pairs p > q their blocks once (an image
may land in the other triangle, which Z + Z^T does not mind).

Each block is written once.  Z is the sum of every block at each of its
images under the group, so it commutes with the group, and its row i is
the row of i's dof-orbit representative (the least dof of the orbit)
with columns permuted by an element that maps i back to it; the orbits,
representatives and elements are the group's record
(``MirrorGroup.orbits``), which the symmetry basis reads too.  So each
entry of a block is added once, at the row of its representative, in
the N x N buffer that becomes its matrix (Allgower, Boehmer, Georg and
Miranda, "Exploiting symmetry in boundary element methods", SIAM J.
Numer. Anal. 29, 1992: a fundamental part, and the rest by the group).
Z + Z^T (and B's rank-one term) is formed on the representatives' rows
alone, and every other row is copied from them through the dof maps.
A and B are then symmetric, and commute with every mirror, to the bit.
With the trivial group every row is a representative, and this is the
plain one-triangle sum and Z + Z^T.

Working memory: besides A and B, assembly holds O(P) arrays and one
chunk.  The separated pair orbits are found one row block of panels at
a time, admissibility is decided per pair (``_admissible``) and ANDed
over each orbit's images, and the admissible orbits are evaluated as
they are found, so no P x P array and no array over all P^2/2 pairs is
made.  Both the far and the near field evaluate the kernel in chunks of
_CHUNK = 73,728 entries: 2048 admissible pairs or 512 close pairs at the
default quad_n = 12, or 184 identical or 153 adjacent near-field
representatives.  A chunk's working arrays are a few of _CHUNK floats
(0.6 MB each); Z + Z^T and the copies work in place, in row blocks of a
quarter chunk.  So A and B set the peak: a level-5 assembly peaks at
5.3 MiB on the linear ellipse (2.6 MiB of A and B) and at 27.0 MiB on
the cubic square (23.8 MiB of A and B).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .fespace import FeSpace, MirrorGroup, reference_basis, reference_basis_deriv
from .gram import lumped_matrix, panel_products
from .mesh import Mesh, panel_chords, panel_samples, panel_speeds
from .quadrature import gauss_rule, pair_rule


class AssemblyError(RuntimeError):
    pass


class CoercivityError(AssemblyError):
    """A symmetry block of the single layer matrix failed its Cholesky
    factor in ``cli.build_level``."""


_KERNEL_HALF = -1.0 / (4.0 * np.pi)  # -log(r)/(2 pi) written as this * log(r^2)
# kernel entries per chunk of the far and the near field (see the module
# docstring): 2048 admissible pairs of 6 x 6 points at quad_n = 12
_CHUNK = 2048 * 36
# a separated panel pair is admissible, and takes the coarse rule of
# _coarse_n(quad_n) points per panel, when its gap is at least _ETA times
# its larger panel.  Measured on the level-5 square, degree 3, against the
# full-order rule: 2.2e-11 of max|A| at _ETA = 2, 1.6e-9 at _ETA = 1
_ETA = 2.0


def _coarse_n(quad_n: int) -> int:
    """Gauss points per panel on admissible pairs: ceil(quad_n / 2)."""
    return -(-quad_n // 2)


def _log_kernel_r2(r2):
    """-log(r)/(2 pi) from r^2, written over ``r2``."""
    np.log(r2, out=r2)
    r2 *= _KERNEL_HALF
    return r2


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


def _admissible(mesh, p, q):
    """Whether each panel pair (p, q), for panel ids p and q of one shape,
    is far enough apart for the coarse rule.

    With h a panel's arc length and c the midpoint of its ``Mesh.ends``,
    the pair is admissible when gap = |c_p - c_q| - (h_p + h_q)/2 is at
    least _ETA max(h_p, h_q); the test is symmetric in p and q to the bit.
    Identical and adjacent pairs have gap <= 0 (a chord is no longer than
    its arc), so they are never admissible.  The distance is relative, not
    a count of panels between the two: next to a corner the sizes halve
    panel by panel, so no index distance keeps gap/h away from 0.
    """
    c, h = 0.5 * (mesh.ends[:, 0] + mesh.ends[:, 1]), mesh.length
    gap = np.hypot(c[p, 0] - c[q, 0], c[p, 1] - c[q, 1]) - 0.5 * (h[p] + h[q])
    return gap >= _ETA * np.maximum(h[p], h[q])


def _panel_rank(mesh):
    """Each panel's place in the order of (chart, t0): a label of the panel
    by its geometry, not by its index in the cyclic order."""
    rank = np.empty(mesh.n_panels, dtype=np.int64)
    rank[np.lexsort((mesh.t0, mesh.chart))] = np.arange(mesh.n_panels)
    return rank


def _orbits(keys):
    """Representatives of the orbits of some objects under a group, and the
    order of each one's stabilizer.

    ``keys`` yields, for each element of the group (the identity first),
    a label (M,) of each object's image under it; equal labels mean the
    same object.  Labels come from geometry, and the representative of an
    orbit is its member of least label.  The labels are read one element
    at a time, so only O(M) is held.  Returns the representatives' ids
    (R,) and the number of elements (R,), as int8, that map each onto
    itself.
    """
    keys = iter(keys)
    own = next(keys)
    least, stab = own.copy(), np.ones(own.size, dtype=np.int8)
    for key in keys:
        np.minimum(least, key, out=least)
        stab += key == own
    reps = np.flatnonzero(own == least)
    return reps, stab[reps]


def _pair_key(a, b, n):
    """One label of each unordered pair {a, b} of labels below n."""
    return np.maximum(a, b) * n + np.minimum(a, b)


def _mean_over_stabilizer(stab, *blocks):
    """Divide each block in place by ``stab`` (R,), the number of group
    elements that map its object onto itself (a power of 2, so exact).

    A and B hold each block at its images under every element (see
    ``_write``), so an object fixed by k elements gets k copies, each
    permuted by one of them.  Scaled, their sum is the mean of the block
    over its stabilizer, which the quadrature keeps only to its own
    accuracy."""
    fixed = np.flatnonzero(stab > 1)
    for b in blocks:
        b[fixed] /= stab[fixed, None, None]
    return blocks


def _gauss_samples(s: FeSpace, n: int):
    """The n-point tensor Gauss rule's data on every panel: the points'
    coordinates x and y (P, n) and the weights of ``_basis_weights``."""
    rule = gauss_rule(n)
    pts, speed, dts = panel_samples(s.mesh, rule.nodes)
    return (pts[..., 0], pts[..., 1], *_basis_weights(s, rule, speed, dts))


def _pair_blocks(s: FeSpace, samples, p, q, stab):
    """Tensor Gauss blocks of the panel pairs (p, q) on the rule of
    ``samples`` (``_gauss_samples``), in chunks of _CHUNK kernel entries,
    each block scaled by one over its stabilizer's order ``stab`` (see
    ``_mean_over_stabilizer``).

    Yields the row and column dof ids (C, l+1) and the blocks (C, l+1,
    l+1) of the basis pairing and of the derivative pairing, each the
    pair's sample weights around its (n, n) log-kernel matrix.  r^2 and
    the kernel are formed in one buffer of the chunk.
    """
    x, y, w_val, w_der = samples
    size = max(1, _CHUNK // x.shape[1] ** 2)
    for i in range(0, p.size, size):
        a, b, st = p[i:i + size], q[i:i + size], stab[i:i + size]
        r2 = x[a][:, :, None] - x[b][:, None, :]        # dx, then r^2, then the kernel
        dy = y[a][:, :, None] - y[b][:, None, :]
        r2 *= r2
        dy *= dy
        r2 += dy
        del dy
        if r2.min() <= 0.0:
            raise AssemblyError("far-field quadrature points of distinct panels coincide")
        K = _log_kernel_r2(r2)
        yield (s.conn[a], s.conn[b],
               *_mean_over_stabilizer(st, w_val[a].transpose(0, 2, 1) @ K @ w_val[b],
                                      w_der[a].transpose(0, 2, 1) @ K @ w_der[b]))


def _separated_orbits(s: FeSpace, panels):
    """The orbits of the separated panel pairs (neither identical nor
    adjacent) under the group of the panel maps ``panels`` (|G|, P), found
    one row block of p at a time.

    Yields, per block, each orbit's representative as int32 (p, q), the
    order of its stabilizer and whether the orbit is admissible, that is,
    whether ``_admissible`` holds for each of its pairs.  The
    representative is the pair of least panel ranks (``_panel_rank``),
    given as (higher rank, lower rank); with the trivial group on a mesh
    in chart order that is every pair p > q, in row order.  A block spans
    about _CHUNK / 4 pairs, so that its int64 labels weigh a quarter of a
    chunk of kernel entries.  The representatives and their order do not
    depend on the block size: a pair's orbit and its least label are the
    same whichever block finds it.
    """
    P = s.mesh.n_panels
    rank = _panel_rank(s.mesh)
    images = rank[panels]
    rows = max(1, _CHUNK // (4 * P))
    for i in range(2, P, rows):
        p, q = np.nonzero(np.tri(min(rows, P - i), P, k=i - 2, dtype=bool))
        p += i
        keep = p - q < P - 1                              # (P-1, 0) are adjacent
        p, q = p[keep], q[keep]
        reps, stab = _orbits(_pair_key(g[p], g[q], P) for g in images)
        p, q = p[reps], q[reps]
        far = _admissible(s.mesh, panels[:, p], panels[:, q]).all(axis=0)
        swap = rank[p] < rank[q]
        yield (np.where(swap, q, p).astype(np.int32), np.where(swap, p, q).astype(np.int32),
               stab, far)


def _far_field(s: FeSpace, quad_n: int, group: MirrorGroup | None = None):
    """Gauss log-kernel blocks of one panel pair per orbit of the separated
    pairs under the mirror group ``group`` (the trivial group by default),
    for ``_write`` to copy to the orbit's other pairs.

    The orbits come from ``_separated_orbits``.  The admissible ones take
    a tensor Gauss rule of ceil(quad_n / 2) points per panel, and are
    evaluated as the search finds them; the few close orbits next to the
    near field are held until the search ends and take the full
    quad_n-point rule.  Yields the blocks of ``_pair_blocks``, the
    admissible orbits first.
    """
    panels = (group or MirrorGroup.trivial(s.ndof, s.mesh.n_panels)).panels
    coarse, close = _gauss_samples(s, _coarse_n(quad_n)), []
    for p, q, stab, far in _separated_orbits(s, panels):
        close.append((p[~far], q[~far], stab[~far]))
        yield from _pair_blocks(s, coarse, p[far], q[far], stab[far])
    yield from _pair_blocks(s, _gauss_samples(s, quad_n), *map(np.concatenate, zip(*close)))


def _near_field(s: FeSpace, quad_n: int, group: MirrorGroup | None = None):
    """Identical and adjacent panel-pair blocks on one triangle of the
    symmetric kernel, one panel and one edge per orbit of the mirror group
    ``group`` (the trivial group by default), for ``_write`` to copy to
    the orbit's other panels and edges.  Each block is scaled by one over
    its stabilizer's order (see ``_mean_over_stabilizer``).

    Returns the row and column dof ids (R, l+1) and the blocks (R, l+1,
    l+1) of the basis pairing and of the derivative pairing: first the
    identical pairs (p, p), each block one mirror half X of the pair block
    X + X^T, then the adjacent pairs (p, p+1).  With the trivial group
    these are all P of each, in panel order.  The representative of an
    orbit is its panel of least rank (``_panel_rank``), or its edge
    (p, p+1) of least rank of p.  Distances come from chords in
    panel-relative coordinates: chi(u + dt (t - u)) - chi(u) inside a
    panel, and the chords from the shared vertex chi(t1_p) = chi(t0_q)
    for adjacent panels.

    The representatives are evaluated in chunks of _CHUNK kernel entries,
    each on the sub-meshes of its panels p and q.  Each chart quantity is
    evaluated once per distinct reference node, found once per call.  The
    identical rule is two mirror halves, (t, u, w, d) and (u, t, w, -d),
    with one |chord|; only the first is evaluated.  The adjacent rule's
    offsets and u nodes share one node set, on which both vertex chord
    families are evaluated and gathered.
    """
    m, ell, P = s.mesh, s.degree, s.mesh.n_panels
    group = group or MirrorGroup.trivial(s.ndof, P)
    panels = group.panels
    nxt = np.roll(np.arange(P), -1)
    rank = _panel_rank(m)
    ids, id_stab = _orbits(rank[panels])
    # an element that reverses the orientation maps the edge (p, p+1) onto
    # the edge that starts at the image of p + 1
    eds, ed_stab = _orbits(rank[np.where(group.reverses[:, None], panels[:, nxt], panels)])

    r_id = pair_rule("identical", quad_n)
    r_ad = pair_rule("adjacent", quad_n)
    half, n_ad = r_id.weights.size // 2, r_ad.weights.size
    t_id, u_id, d_id = r_id.tnodes[:half], r_id.unodes[:half], r_id.offsets[:half]
    steps, at_step = np.unique(np.concatenate([r_ad.offsets, r_ad.unodes]), return_inverse=True)

    def id_chords(mp, mq):
        return panel_chords(mp, u_id, d_id)

    def ad_chords(mp, mq):
        # chi(t1 - dt s) - chi(t0' + dt' u) from the shared vertex
        c = panel_chords(mp, 1.0, -steps)[:, at_step[:n_ad]]
        c -= panel_chords(mq, 0.0, steps)[:, at_step[n_ad:]]
        return c

    def sub(rows):
        return Mesh(m.geometry, *(x[rows] for x in (m.chart, m.t0, m.t1, m.qlength)))

    R = ids.size + eds.size
    val, der = np.empty((R, ell + 1, ell + 1)), np.empty((R, ell + 1, ell + 1))
    start = 0
    for t, u, w, chords, ps, qs in ((t_id, u_id, r_id.weights[:half], id_chords, ids, ids),
                                    (r_ad.tnodes, r_ad.unodes, r_ad.weights, ad_chords,
                                     eds, nxt[eds])):
        (tn, at_t), (un, at_u) = (np.unique(x, return_inverse=True) for x in (t, u))
        Vt, Vu = reference_basis(ell, t), reference_basis(ell, u)
        Dt, Du = reference_basis_deriv(ell, t), reference_basis_deriv(ell, u)
        size = max(1, _CHUNK // w.size)
        for i in range(0, ps.size, size):
            mp, mq = sub(ps[i:i + size]), sub(qs[i:i + size])
            chord = chords(mp, mq)
            wk = _log_kernel_r2(chord[..., 0] ** 2 + chord[..., 1] ** 2)    # (C, n)
            del chord
            wk *= w
            (sp_t, dt_p), (sp_u, dt_q) = panel_speeds(mp, tn), panel_speeds(mq, un)
            wv = wk * sp_t[:, at_t]
            wv *= sp_u[:, at_u]
            wv *= (dt_p * dt_q)[:, None]
            rows = slice(start + i, start + i + wv.shape[0])
            val[rows] = panel_products(wv, Vt, Vu)
            del wv
            der[rows] = panel_products(wk, Dt, Du)
        start += ps.size
    return (np.concatenate([s.conn[ids], s.conn[eds]]),
            np.concatenate([s.conn[ids], s.conn[nxt[eds]]]),
            *_mean_over_stabilizer(np.concatenate([id_stab, ed_stab]), val, der))


def _write(group: MirrorGroup, blocks, alpha, m):
    """A = Z_val + Z_val^T and B = Z_der + Z_der^T + alpha m~ m~^T, for Z the
    sums of the blocks (rows, cols, val, der) at their images under every
    element of the mirror group ``group``, with m~ = m at each dof's
    representative; the orbits are the group's record, ``group.orbits``, and
    the inverse maps ``group.inverses``.

    Z commutes with the group, so its row i is row rep[i] with columns
    permuted by e_i^-1, e_i = elem[i].  So an entry (i, j) of a block is
    added once, at (rep[i], e_i^-1(j)), in the N x N buffer that becomes
    its matrix.  A representative r fixed by a mirror h also takes the
    entries that the images under h put in its row: its row plus the row
    permuted by h, which is h-invariant to the bit.  ``_pair`` forms Z +
    Z^T on the rows of the representatives, and every other row is copied
    from them, row g(r) from row r with columns permuted by g^-1, one row
    block at a time."""
    o, inv, N = group.orbits, group.inverses, group.dofs.shape[1]
    A, B = np.zeros((N, N)), np.zeros((N, N))
    a, b = A.reshape(-1), B.reshape(-1)
    for rows, cols, val, der in blocks:
        idx = inv[o.elem[rows][:, :, None], cols[:, None, :]]
        idx += o.rep[rows][:, :, None] * N
        np.add.at(a, idx.ravel(), val.ravel())
        np.add.at(b, idx.ravel(), der.ravel())
    fixed = o.reps[o.fix[o.reps] > 0]
    h = group.dofs[o.fix[fixed]]                        # (F, N): the mirror of each
    for X in (A, B):
        X[fixed] += X[fixed[:, None], h]
    _pair(group, (A, "single layer", 0.0, None),
          (B, "stabilized hypersingular", alpha, m[o.rep]))
    i, j = np.nonzero(h < np.arange(N))                 # the columns _pair leaves out
    step = _rows_per_block(N)
    for X in (A, B):
        X[fixed[i], j] = X[fixed[i], h[i, j]]
        for k in range(0, o.reps.size, step):
            r = o.reps[k:k + step]
            T = X[r]
            for g, ginv in zip(group.dofs[1:], inv[1:]):
                X[g[r]] = T[:, ginv]
    return A, B


def _rows_per_block(N):
    """Rows of an N-column block of about _CHUNK / 4 entries."""
    return max(1, _CHUNK // (4 * N))


def _pair(group: MirrorGroup, *targets):
    """Z + Z^T (+ alpha outer(m, m)) on the rows of the representatives,
    in place, for each (Z, what, alpha, m) of ``targets``; a non-finite
    entry raises AssemblyError naming ``what``.

    Entry (r, c) of Z^T is Z[c, r] = Z[rep[c], e_c^-1(r)], its partner.  A
    row r fixed by a mirror h holds equal entries at c and h(c), so only
    the canonical column of each such pair, the lesser, is formed here,
    and a partner is taken at the canonical column of its row.  Between
    canonical entries the partner map is then an involution, so each pair
    is summed once, by the one of its entries with the lesser flat index,
    and written at both, as by the tile pairs of a plain Z + Z^T: with
    the trivial group this pairs the upper triangle with the lower.  The
    partner index is built once per row block for all targets."""
    o, N = group.orbits, group.dofs.shape[1]
    col = np.arange(N)
    inv, at = group.inverses.reshape(-1), o.elem.astype(np.intp) * N   # flat e_c^-1 of column c
    row_at = o.rep.astype(np.intp) * N
    cf = np.flatnonzero(o.fix[o.rep])                  # columns of orbits a mirror fixes
    hf = group.dofs[o.fix[o.rep[cf]]]
    flat = [X.reshape(-1) for X, _, _, _ in targets]
    step = _rows_per_block(N)
    for k in range(0, o.reps.size, step):
        r = o.reps[k:k + step]
        pc = inv[at + r[:, None]]
        p = pc[:, cf]
        pc[:, cf] = np.minimum(p, hf[np.arange(cf.size), p])
        here, there = r[:, None] * N + col, row_at + pc
        keep = here <= there
        for f in np.flatnonzero(o.fix[r]):
            keep[f] &= col <= group.dofs[o.fix[r[f]]]
        here, there = here[keep], there[keep]
        for z, (_, what, alpha, m) in zip(flat, targets):
            S = z[here]
            S += z[there]
            if m is not None:
                S += alpha * (m[r][:, None] * m)[keep]
            if not np.isfinite(S).all():
                raise AssemblyError(f"{what}: non-finite entries")
            z[here] = S
            z[there] = S


def assemble_operator_pair(s: FeSpace, quad_n: int = 12, alpha: float = 0.05, m=None):
    """Galerkin matrices (A, B) of the single layer and the stabilized
    hypersingular operator, from one sweep of kernel evaluations over the
    orbits of panel pairs under the mesh's mirrors.

    A is symmetric positive definite for admissible geometries (diameter
    <= 1).  B = B~ + alpha m m^T: B~ acts on arc-length derivatives through
    the single layer kernel and therefore annihilates constants; the
    rank-one term with m[nu] = <phi_nu, 1>, the exact lumped diagonal,
    restores definiteness for any alpha > 0.  ``m`` is computed here
    unless given: ``cli.build_level`` passes its D when D is the exact
    lumped diagonal.  Non-finite entries raise AssemblyError;
    ``cli.build_level`` checks that A and B are SPD.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive (B~ alone is only semi-coercive)")
    if s.mesh.n_panels < 3:
        raise AssemblyError("assembly requires at least 3 panels on the curve")
    if m is None:
        m = lumped_matrix(s, "exact", n_quad=quad_n)
    group = s.mirrors
    return _write(group, chain([_near_field(s, quad_n, group)], _far_field(s, quad_n, group)),
                  alpha, m)
