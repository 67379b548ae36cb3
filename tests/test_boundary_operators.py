import dataclasses
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sparse

from calderon_bench import boundary_operators as bops
from calderon_bench import cli, fespace
from calderon_bench.boundary_operators import (AssemblyError, CoercivityError,
                                               _admissible_pairs, _far_field, _log_kernel_r2,
                                               _near_field, _scatter,
                                               assemble_operator_pair, write_dense_matrix)
from calderon_bench.fespace import build_space, reference_basis, reference_basis_deriv
from calderon_bench.geometry import AffineChart, make_geometry
from calderon_bench.gram import lumped_matrix, mass_matrix
from calderon_bench.mesh import (Mesh, corner_schedule, initial_mesh, panel_chords,
                                 panel_samples, refine)
from calderon_bench.precond import lumped_precond
from calderon_bench.quadrature import adaptive_integrate, gauss_rule, pair_rule
from calderon_bench.spectral import kappa

from helpers import (QUAD_N, circle_uniform_operators, circle_uniform_space,
                     corner_operators, corner_space, geom)

RADIUS = 0.25


def test_exact_symmetry():
    A, B = corner_operators("square", 1, 1)
    assert np.array_equal(A, A.T)
    assert np.array_equal(B, B.T)


def test_spd_cholesky():
    for ell in (1, 3):
        A, B = corner_operators("square", 1, ell)
        np.linalg.cholesky(A)
        np.linalg.cholesky(B)


def test_single_layer_circle_symbols():
    """Rayleigh quotients against the mass matrix tend to the log-kernel
    circle symbol: -a log a for constants, a/(2|k|) for mode k."""
    s = circle_uniform_space(128, 1)
    A, _ = circle_uniform_operators(128, 1)
    M = mass_matrix(s)
    ones = np.ones(s.ndof)
    r0 = (ones @ A @ ones) / (ones @ M @ ones)
    assert abs(r0 / (-RADIUS * np.log(RADIUS)) - 1) < 0.02
    theta = s.node_param
    for k in (1, 2, 4):
        u = np.cos(k * theta)
        r = (u @ A @ u) / (u @ M @ u)
        assert abs(r / (RADIUS / (2 * k)) - 1) < 0.02, k


def test_hypersingular_circle_symbols():
    s = circle_uniform_space(128, 1)
    _, B = circle_uniform_operators(128, 1)
    M = mass_matrix(s)
    D = lumped_matrix(s)
    theta = s.node_param
    for k in (1, 2, 4):
        u = np.cos(k * theta)
        r = (u @ B @ u - 0.05 * (D @ u) ** 2) / (u @ M @ u)
        assert abs(r / (k / (2 * RADIUS)) - 1) < 0.05, k


def test_hypersingular_on_constants():
    # derivative part annihilates constants; only the rank-one term remains
    s = circle_uniform_space(32, 1)
    _, B = circle_uniform_operators(32, 1)
    glen = s.mesh.total_length()
    c = 2.0
    ones = np.full(s.ndof, c)
    assert ones @ B @ ones == pytest.approx(0.05 * c * c * glen**2, rel=1e-12)
    D = lumped_matrix(s)
    Bt = B - 0.05 * np.outer(D, D)
    assert abs(np.ones(s.ndof) @ Bt @ np.ones(s.ndof)) < 1e-12 * np.abs(Bt).max()


def test_alpha_must_be_positive():
    s = circle_uniform_space(8, 1)
    with pytest.raises(ValueError):
        assemble_operator_pair(s, alpha=0.0)
    with pytest.raises(ValueError):
        assemble_operator_pair(s, alpha=-0.1)


def test_far_field_entry_matches_adaptive_oracle():
    """Interior-node (degree 3) entries on well-separated panels reduce to a
    single panel-pair integral that the oracle can check directly."""
    g = geom("circle")
    s = build_space(initial_mesh(g, 16), 3)
    A, _ = assemble_operator_pair(s)
    chart = g.charts[0]
    for pa, pb, a, b in ((0, 8, 1, 2), (2, 10, 2, 2), (5, 12, 1, 1)):
        panel_a, panel_b = s.mesh.panels[pa], s.mesh.panels[pb]
        nu, mu = s.conn[pa][a], s.conn[pb][b]
        dta, dtb = panel_a.t1 - panel_a.t0, panel_b.t1 - panel_b.t0
        from calderon_bench.fespace import reference_basis

        def f(t, u):
            ta = panel_a.t0 + dta * t
            tb = panel_b.t0 + dtb * u
            x, y = chart.point(ta), chart.point(tb)
            r = np.sqrt(((x - y) ** 2).sum(axis=-1))
            va = reference_basis(3, t)[a]
            vb = reference_basis(3, u)[b]
            sp = np.linalg.norm(chart.velocity(ta), axis=-1) * np.linalg.norm(
                chart.velocity(tb), axis=-1
            )
            return -np.log(r) / (2 * np.pi) * va * vb * sp * dta * dtb

        ref = adaptive_integrate(f, ((0, 1), (0, 1)), tol=1e-12)
        assert A[nu, mu] == pytest.approx(ref, rel=1e-8)


def test_galerkin_refinement_consistency():
    """For fixed smooth u, v the successive bilinear-form values settle at
    an empirical rate >= l+1 once the meshes resolve the integrands."""
    g = geom("circle")
    for ell, panel_counts in ((1, (16, 32, 64, 128)), (3, (8, 16, 32, 64))):
        vals = []
        for n in panel_counts:
            s = circle_uniform_space(n, ell)
            A, _ = circle_uniform_operators(n, ell)
            theta = s.node_param
            # share mode 2 so the limiting form value is nonzero
            u = np.cos(2 * theta)
            v = np.cos(2 * theta) + 0.3 * np.sin(theta)
            vals.append(u @ A @ v)
        diffs = np.abs(np.diff(vals))
        assert np.all(np.diff(diffs) < 0)      # monotone settling
        rates = np.log2(diffs[:-1] / diffs[1:])
        assert rates[-1] >= ell + 1 - 0.4, (ell, rates)


def test_panel_order_invariance():
    """Rotating the cyclic panel order permutes dofs but reproduces the same
    matrix entries (exercises the separated/adjacent code paths)."""
    g = geom("ellipse")
    m = initial_mesh(g, 8)
    r = 3
    rotated = Mesh(g, *(np.roll(a, -r) for a in (m.chart, m.t0, m.t1, m.length, m.qlength)))
    ell = 3
    s = build_space(m, ell)
    s_rot = build_space(rotated, ell)
    A, _ = assemble_operator_pair(s)
    A_rot, _ = assemble_operator_pair(s_rot)
    P = m.n_panels
    perm = np.empty(s.ndof, dtype=int)
    for i in range(P):                       # vertex i is start of panel i
        perm[(i - r) % P] = i
    for i in range(P):                       # interior nodes, panel blocks
        for j in range(ell - 1):
            perm[P + ((i - r) % P) * (ell - 1) + j] = P + i * (ell - 1) + j
    diff = np.abs(A_rot[np.ix_(perm.argsort(), perm.argsort())] - A)
    assert diff.max() <= 1e-12 * np.abs(A).max()


def test_spd_guard_raises(monkeypatch):
    # an indefinite A or B from assembly is refused on the run path by the
    # Cholesky factors of its symmetry blocks: on the square's D4 blocks,
    # and on the ellipse with one panel refined on one side, which has no
    # mirrors, so that its one block is the dense factor
    real = bops.assemble_operator_pair

    def one_side(cfg, g, k):
        return refine(corner_schedule(g, 1), {1})

    for geometry, level_mesh in (("square", cli.level_mesh), ("ellipse", one_side)):
        for which, cause in ((0, CoercivityError), (1, AssemblyError)):
            def indefinite(*args):
                out = list(real(*args))
                out[which] = -out[which]
                return tuple(out)

            with monkeypatch.context() as mp:
                mp.setattr(cli, "level_mesh", level_mesh)
                mp.setattr(bops, "assemble_operator_pair", indefinite)
                with pytest.raises(RuntimeError) as info:
                    cli.run_experiment(cli.ExperimentConfig(geometry=geometry, levels=1))
            assert type(info.value.__cause__) is cause, (geometry, which)
    # a non-finite entry of A or B is refused by assembly itself
    s = corner_space("square", 1, 1)
    with monkeypatch.context() as mp:
        mp.setattr(bops, "_log_kernel_r2", lambda r2: np.full_like(r2, np.nan))
        with pytest.raises(AssemblyError, match="single layer"):
            assemble_operator_pair(s)
    with monkeypatch.context() as mp:
        mp.setattr(bops, "lumped_matrix", lambda s, *args, **kw: np.full(s.ndof, np.inf))
        with pytest.raises(AssemblyError, match="hypersingular"):
            assemble_operator_pair(s)


def test_too_few_panels_rejected():
    g = make_geometry("circle", 0.5)
    s = build_space(initial_mesh(g, 3), 1)
    assemble_operator_pair(s)                  # 3 panels is the minimum
    with pytest.raises(Exception):
        build_space(initial_mesh(g, 2), 1)


def test_coincident_far_field_points_rejected():
    """A curve traversed twice puts panel i and panel i + P on the same
    points; the far field must refuse it rather than take log 0."""
    m = initial_mesh(geom("circle"), 4)
    s = build_space(Mesh(m.geometry, *(np.tile(a, 2) for a in
                                       (m.chart, m.t0, m.t1, m.length, m.qlength))), 1)
    with pytest.raises(AssemblyError, match="coincide"):
        assemble_operator_pair(s)


def test_dense_dump_roundtrip(tmp_path):
    A, _ = corner_operators("square", 1, 1)
    path = tmp_path / "A.txt"
    write_dense_matrix(A, path)
    lines = path.read_text().strip().splitlines()
    n = int(lines[0])
    assert n == A.shape[0] and len(lines) == n + 1
    back = np.array([[float(x) for x in line.split()] for line in lines[1:]])
    assert np.array_equal(back, A)


@pytest.mark.parametrize("kind, ell", [("square", 3), ("ellipse", 1)])
def test_stabilization_moments_match_lumped_diagonal(kind, ell):
    """B = B~ + alpha m m^T with m[nu] = <phi_nu, 1> the exact-product lumped
    diagonal D: raising alpha by 1 adds D D^T, up to rounding (measured:
    3.0e-15 of max|D D^T| on the square, 2.0e-14 on the ellipse)."""
    s = corner_space(kind, 2, ell)
    _, B = corner_operators(kind, 2, ell)
    _, B1 = assemble_operator_pair(s, QUAD_N, 1.05)
    D = lumped_matrix(s, "exact", n_quad=QUAD_N)
    DD = np.outer(D, D)
    assert np.abs(B1 - B - DD).max() <= 1e-12 * np.abs(DD).max()


def test_shifted_chart_parameters_give_same_matrices():
    """Moving every chart's parameter interval by +1000 moves no point of
    the curve, so A and B must not change: every distance is taken
    relative to a panel, not from absolute parameters."""
    g = geom("square")
    shift = 1000.0
    charts = tuple(AffineChart(c.t0 + shift, c.t1 + shift, c.p0, c.p1) for c in g.charts)
    corners = tuple(tuple((i, t + shift) for i, t in c) for c in g.corners)
    moved = dataclasses.replace(g, charts=charts, corners=corners)
    A, B = corner_operators("square", 5, 3)
    A1, B1 = assemble_operator_pair(build_space(corner_schedule(moved, 5), 3), QUAD_N, 0.05)
    for X, X1 in ((A, A1), (B, B1)):
        assert np.abs(X1 - X).max() <= 1e-12 * np.abs(X).max()


# measured relative change of the level-6 lumped kappa (square, degree 3)
# between quad_n = 12 and 20: 9.6e-11
KAPPA_QUAD_TOL = 1e-9


def test_kappa_stable_under_quadrature_order():
    s = corner_space("square", 6, 3)
    D = lumped_matrix(s, "exact", n_quad=QUAD_N)
    A12, B12 = corner_operators("square", 6, 3)
    A20, B20 = assemble_operator_pair(s, 20, 0.05)
    k12 = kappa(lumped_precond(B12, D), A12)
    k20 = kappa(lumped_precond(B20, D), A20)
    assert abs(k20 / k12 - 1) <= KAPPA_QUAD_TOL


# ---------------------------------------------------------------------------
# the far field at two orders against the full-order sweep it replaced: the
# quad_n-point tensor Gauss rule on every separated pair, summed as S^T K S
# in column chunks with the identical and adjacent blocks set to r^2 = 1


def _full_order_far_field(s, quad_n):
    P, ell = s.mesh.n_panels, s.degree
    g = gauss_rule(quad_n)
    pts, speed, dts = panel_samples(s.mesh, g.nodes)
    n = g.nodes.size
    N = P * n
    rows = np.repeat(np.arange(N), ell + 1)
    cols = np.repeat(s.conn, n, axis=0).reshape(P, n, ell + 1).ravel()
    V, D = reference_basis(ell, g.nodes), reference_basis_deriv(ell, g.nodes)
    w_val = (g.weights[None, :] * speed * dts[:, None])[:, :, None] * V.T[None, :, :]
    w_der = np.broadcast_to((g.weights[:, None] * D.T)[None, :, :], (P, n, ell + 1))
    S_val = sparse.csr_matrix((w_val.ravel(), (rows, cols)), shape=(N, s.ndof))
    S_der = sparse.csr_matrix((w_der.ravel(), (rows, cols)), shape=(N, s.ndof))
    x, y = pts.reshape(N, 2).T
    panel = np.arange(N) // n
    near_rows = ((panel[:, None] + np.array([-1, 0, 1])) % P)[:, :, None] * n + np.arange(n)
    near_rows = near_rows.reshape(N, 3 * n)
    A_val = np.zeros((s.ndof, s.ndof))
    A_der = np.zeros((s.ndof, s.ndof))
    for start in range(0, N, 1024):
        stop = min(start + 1024, N)
        K = np.subtract.outer(x, x[start:stop]) ** 2 + np.subtract.outer(y, y[start:stop]) ** 2
        K[near_rows[start:stop], np.arange(stop - start)[:, None]] = 1.0
        K = -np.log(K) / (4.0 * np.pi)
        A_val += (S_val.T @ K) @ S_val[start:stop]
        A_der += (S_der.T @ K) @ S_der[start:stop]
    return A_val, A_der, np.asarray(S_val.sum(axis=0)).ravel()


FAR_CASES = {
    "square-6-p3": lambda: corner_space("square", 6, 3),
    "ellipse-6-p1": lambda: corner_space("ellipse", 6, 1),
    "circle-128-p1": lambda: circle_uniform_space(128, 1),
}


def _far_sum(s):
    """The far field as assembly uses it: the admissible and close blocks
    scattered into one triangle Z, then Z + Z^T."""
    Z_val, Z_der = np.zeros((s.ndof, s.ndof)), np.zeros((s.ndof, s.ndof))
    for rows, cols, val, der in _far_field(s, QUAD_N):
        idx = (rows[:, :, None], cols[:, None, :])
        np.add.at(Z_val, idx, val)
        np.add.at(Z_der, idx, der)
    return Z_val + Z_val.T, Z_der + Z_der.T


@lru_cache(maxsize=None)
def _far_pair(case):
    s = FAR_CASES[case]()
    return s, _far_sum(s), _full_order_far_field(s, QUAD_N)


@pytest.mark.parametrize("case", list(FAR_CASES))
def test_far_field_matches_full_order_sweep(case):
    """Admissible pairs at ceil(quad_n / 2) points move no entry by more
    than 1e-10 of the largest (measured: 2e-11 on the degree-3 square,
    2e-14 on the degree-1 curves); m, the exact lumped diagonal, is the
    full-order sum of the sample weights."""
    s, (A_val, A_der), (R_val, R_der, m_ref) = _far_pair(case)
    for got, ref in ((A_val, R_val), (A_der, R_der)):
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max(), case
    m = lumped_matrix(s, "exact", n_quad=QUAD_N)
    assert np.abs(m / m_ref - 1).max() <= 1e-14


@pytest.mark.parametrize("case", list(FAR_CASES))
def test_far_field_evaluates_each_separated_pair_once(case, monkeypatch):
    """The kernel is evaluated n_c^2 times per admissible pair p > q and n^2
    times per close pair p > q, with n_c = ceil(n / 2): no pair twice, no
    identical or adjacent pair, and no masked entry."""
    calls = []

    def counted(r2):
        calls.append(r2.size)
        return _log_kernel_r2(r2)

    monkeypatch.setattr(bops, "_log_kernel_r2", counted)
    s = FAR_CASES[case]()
    P = s.mesh.n_panels
    admissible = int(_admissible_pairs(s.mesh).sum()) // 2
    close = P * (P - 1) // 2 - P - admissible        # P adjacent pairs on the ring
    for _ in _far_field(s, QUAD_N):
        pass
    n_c = -(-QUAD_N // 2)
    assert sum(calls) == n_c ** 2 * admissible + QUAD_N ** 2 * close, case


def test_assembly_allocation_peak():
    """The far field holds one block of pairs at a time: the allocation peak
    of a level-5 ellipse assembly (degree 1, N = 416) stays below 43 MiB
    (measured: 9.3 MiB; a column-chunked far field with two buffers of
    6P x 1020 floats read 65.3 MiB).  A and B are formed in the two scatter
    buffers, so the level-5 cubic square (N = 1248, 11.9 MiB per N x N
    array) stays below 45 MiB (measured: 30.6 MiB; with A = Z + Z^T and
    B = Z_der + Z_der^T as new arrays it read 59.7 MiB)."""
    for kind, ell, bound in (("ellipse", 1, 43), ("square", 3, 45)):
        s = corner_space(kind, 5, ell)
        tracemalloc.start()
        try:
            assemble_operator_pair(s, QUAD_N, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2 ** 20, (kind, peak / 2 ** 20)


@pytest.mark.parametrize("k, ell", [(1, 3), (5, 3)])
def test_fold_in_place_is_z_plus_z_transpose(k, ell):
    """A and B, folded in the scatter buffers tile by tile, are to the bit
    Z_val + Z_val^T and Z_der + Z_der^T + alpha m m^T formed whole.  The
    square at degree 3 has N = 144 at level 1 and 1248 at level 5, so the
    last tile is partial in both."""
    s = corner_space("square", k, ell)
    group = s.mirrors
    Z_val, Z_der = _scatter(group.dofs, [_near_field(s, QUAD_N, group),
                                         *_far_field(s, QUAD_N, group)])
    m = lumped_matrix(s, "exact", n_quad=QUAD_N)
    B_ref = Z_der + Z_der.T
    B_ref += 0.05 * np.outer(m, m)
    A, B = corner_operators("square", k, ell)
    assert A.shape[0] % bops._TILE
    assert np.array_equal(A, Z_val + Z_val.T)
    assert np.array_equal(B, B_ref)


OPERATORS = {
    "square-6-p3": lambda: corner_operators("square", 6, 3),
    "ellipse-6-p1": lambda: corner_operators("ellipse", 6, 1),
    "circle-128-p1": lambda: circle_uniform_operators(128, 1),
}


@pytest.mark.parametrize("case", list(FAR_CASES))
def test_operators_exactly_symmetric(case):
    """Every panel pair is summed on one triangle Z and each matrix is
    Z + Z^T, so A and B are symmetric to the bit."""
    for X in OPERATORS[case]():
        assert np.array_equal(X, X.T), case


@pytest.mark.parametrize("case", list(FAR_CASES))
def test_close_pairs_never_admissible(case):
    """A pair whose gap is below 2 max(h_p, h_q), from the panel end points
    and arc lengths, is never given the coarse rule; the identical and
    adjacent pairs are never admissible."""
    mesh = FAR_CASES[case]().mesh
    P = mesh.n_panels
    charts = mesh.geometry.charts
    ends = np.array([[charts[p.chart].point(p.t0), charts[p.chart].point(p.t1)]
                     for p in mesh.panels])
    h = np.array([p.length for p in mesh.panels])
    c = ends.mean(axis=1)
    gap = np.linalg.norm(c[:, None] - c[None], axis=-1) - (h[:, None] + h[None]) / 2
    far = _admissible_pairs(mesh)
    assert np.array_equal(far, far.T)
    assert not far[gap < 2.0 * np.maximum.outer(h, h)].any()
    ring = np.arange(P)
    for k in (-1, 0, 1):
        assert not far[ring, (ring + k) % P].any()
    assert far.sum() > 0.9 * P * P        # the coarse rule carries the bulk


def test_close_pass_is_the_full_order_rule(monkeypatch):
    """With no pair admissible, every separated pair takes the close pass,
    which must then reproduce the full-order sweep up to summation order."""
    s = corner_space("square", 2, 3)
    monkeypatch.setattr(bops, "_admissible_pairs",
                        lambda mesh: np.zeros((mesh.n_panels,) * 2, dtype=bool))
    A_val, A_der = _far_sum(s)
    R_val, R_der, m_ref = _full_order_far_field(s, QUAD_N)
    for got, ref in ((A_val, R_val), (A_der, R_der)):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    m = lumped_matrix(s, "exact", n_quad=QUAD_N)
    assert np.abs(m / m_ref - 1).max() <= 1e-14


# ---------------------------------------------------------------------------
# the near field against the sweep it replaced: every sample of both pair
# rules mapped onto its panel, both mirror halves of the identical rule, and
# the adjacent chords at every rule point


def _reference_near_field(s, quad_n):
    m, ell = s.mesh, s.degree
    nxt = np.roll(np.arange(m.n_panels), -1)
    r_id = pair_rule("identical", quad_n)
    r_ad = pair_rule("adjacent", quad_n)
    c_id = panel_chords(m, r_id.unodes, r_id.offsets)
    c_ad = panel_chords(m, 1.0, -r_ad.offsets) - panel_chords(m, 0.0, r_ad.unodes)[nxt]

    blocks_val, blocks_der = [], []
    for r, chord, q in ((r_id, c_id, slice(None)), (r_ad, c_ad, nxt)):
        _, sp_t, dt = panel_samples(m, r.tnodes)
        _, sp_u, _ = panel_samples(m, r.unodes)
        wk = r.weights * _log_kernel_r2((chord * chord).sum(axis=-1))
        Vt, Vu = reference_basis(ell, r.tnodes), reference_basis(ell, r.unodes)
        Dt, Du = reference_basis_deriv(ell, r.tnodes), reference_basis_deriv(ell, r.unodes)
        wv = wk * sp_t * sp_u[q] * (dt * dt[q])[:, None]
        blocks_val.append((Vt * wv[:, None, :]) @ Vu.T)
        blocks_der.append((Dt * wk[:, None, :]) @ Du.T)
    blocks_val.append(blocks_val[1].transpose(0, 2, 1))
    blocks_der.append(blocks_der[1].transpose(0, 2, 1))
    rows = np.concatenate([s.conn, s.conn, s.conn[nxt]])
    cols = np.concatenate([s.conn, s.conn[nxt], s.conn])
    return rows, cols, np.concatenate(blocks_val), np.concatenate(blocks_der)


@pytest.mark.parametrize("kind, ell", [("square", 3), ("circle", 3), ("ellipse", 1),
                                       ("ellipse", 3)])
def test_near_field_matches_full_sample_sweep(kind, ell):
    """One mirrored half X of the identical rule and the adjacent chords at
    their distinct nodes give the same blocks as the full sweep, to
    rounding: X + X^T its identical block, and the adjacent block (p, p+1)
    its adjacent block (measured: 5.2e-16 of the largest block entry)."""
    for k in range(1, 7):
        s = corner_space(kind, k, ell)
        P = s.mesh.n_panels
        rows, cols, val, der = _near_field(s, QUAD_N)
        R, C, V, D = _reference_near_field(s, QUAD_N)
        assert np.array_equal(rows, R[:2 * P]) and np.array_equal(cols, C[:2 * P]), k
        for got, ref in ((val, V), (der, D)):
            assert got.shape == (2 * P,) + ref.shape[1:]
            got = np.concatenate([got[:P] + got[:P].transpose(0, 2, 1), got[P:]])
            assert np.abs(got - ref[:2 * P]).max() <= 1e-14 * np.abs(ref).max(), k


# ---------------------------------------------------------------------------
# the orbit sweep: one panel pair per orbit of the mirror group, copied to
# its images, against the sweep over every pair (the trivial group)


def _trivial_group(monkeypatch, kind, k, ell):
    """A fresh space of corner level k whose mirror search finds nothing."""
    monkeypatch.setattr(fespace, "mirror_permutations", lambda s: ())
    return build_space(corner_space(kind, k, ell).mesh, ell)


@pytest.mark.parametrize("kind, k, ell", [("square", 5, 3), ("square", 6, 3),
                                          ("ellipse", 5, 1)])
def test_orbit_sweep_matches_full_sweep(kind, k, ell, monkeypatch):
    """A copied block differs from the one the full sweep evaluates by the
    quadrature's mirror asymmetry: rounding for A, and for B up to about
    its mirror residual (measured: 3.3e-14 of max|A|; 2.0e-10, 7.4e-9 and
    7.1e-9 of max|B|)."""
    A, B = corner_operators(kind, k, ell)
    A0, B0 = assemble_operator_pair(_trivial_group(monkeypatch, kind, k, ell), QUAD_N, 0.05)
    assert np.abs(A - A0).max() <= 1e-13 * np.abs(A0).max()
    assert np.abs(B - B0).max() <= 2e-8 * np.abs(B0).max()


@pytest.mark.parametrize("kind, ell, levels", [("square", 3, range(1, 7)),
                                               ("ellipse", 1, range(1, 6))])
def test_orbit_sweep_commutes_with_every_mirror(kind, ell, levels):
    """Every block is copied to all its images, and one fixed by a mirror
    takes the mean over its stabilizer, so A and B commute with each mirror
    to rounding (the full sweep leaves up to 7.4e-9 in B)."""
    for k in levels:
        perms = corner_space(kind, k, ell).mirrors.perms
        assert len(perms) == (3 if kind == "square" else 2), k
        for X in corner_operators(kind, k, ell):
            for p in perms:
                # spectral.mirror_residual's measure, by a dense gather
                assert np.abs(X[np.ix_(p, p)] - X).max() <= 1e-14 * np.abs(X).max(), k


def _pair_orbits(s):
    """The orbits of the separated panel pairs {p, q} under the mirrors, as
    sets of unordered pairs, from the dof maps and a search; independent of
    the code under test."""
    P = s.mesh.n_panels
    panel_of = {frozenset(row.tolist()): i for i, row in enumerate(s.conn)}
    maps = [[panel_of[frozenset(p[row].tolist())] for row in s.conn]
            for p in s.mirrors.perms]
    seen, orbits = set(), []
    for p in range(P):
        for q in range(p - 1):
            pair = frozenset((p, q))
            if (p - q) % P == P - 1 or pair in seen:
                continue
            orbit, todo = {pair}, [pair]
            while todo:
                a, b = tuple(todo.pop())
                for j in maps:
                    image = frozenset((j[a], j[b]))
                    if image not in orbit:
                        orbit.add(image)
                        todo.append(image)
            seen |= orbit
            orbits.append(orbit)
    return orbits


def _one_admissible_pair_made_close(mesh):
    far = _admissible_pairs(mesh)
    p, q = np.argwhere(np.tril(far, -1))[0]
    far[p, q] = far[q, p] = False
    return far


@pytest.mark.parametrize("kind, ell, ratio", [("square", 3, 8), ("ellipse", 1, 4)])
def test_far_field_evaluates_each_orbit_once(kind, ell, ratio, monkeypatch):
    """With the mirror group, the kernel runs n_c^2 times per admissible
    orbit and n^2 times per close orbit, and about |G| times less often
    than over every pair (measured on levels 1-6: 7.4-7.9 times on the
    square, 3.8-4.0 on the ellipse).  An orbit is admissible only if every
    pair of it is: one admissible pair is made close here, which the
    mirrors do not do to its images."""
    calls = []

    def counted(r2):
        calls.append(r2.size)
        return _log_kernel_r2(r2)

    monkeypatch.setattr(bops, "_log_kernel_r2", counted)
    monkeypatch.setattr(bops, "_admissible_pairs", _one_admissible_pair_made_close)
    n_c = -(-QUAD_N // 2)
    for k in (2, 3):
        s = corner_space(kind, k, ell)
        far = _one_admissible_pair_made_close(s.mesh)
        orbits = _pair_orbits(s)
        admissible = sum(all(far[tuple(pair)] for pair in orbit) for orbit in orbits)
        calls.clear()
        for _ in _far_field(s, QUAD_N, s.mirrors):
            pass
        assert sum(calls) == n_c ** 2 * admissible + QUAD_N ** 2 * (len(orbits) - admissible)
        orbit_calls = sum(calls)
        calls.clear()
        for _ in _far_field(s, QUAD_N):
            pass
        assert 0.9 * ratio < sum(calls) / orbit_calls <= ratio, k


def test_mirror_group_maps_panels_onto_their_images():
    """Each element's panel map sends a panel's dofs onto the dofs its dof
    map gives, on the square (D4, 8 elements) and the ellipse (4), and an
    element reverses the cyclic panel order exactly when it is a product
    of an odd number of mirrors."""
    for kind, size in (("square", 8), ("ellipse", 4)):
        s = corner_space(kind, 2, 3)
        group = s.mirrors
        dofs, panels = group.dofs, group.panels
        assert dofs.shape == (size, s.ndof) and panels.shape == (size, s.mesh.n_panels)
        assert np.array_equal(dofs[0], np.arange(s.ndof))
        for d, j in zip(dofs, panels):
            assert np.array_equal(np.sort(d[s.conn], axis=1), np.sort(s.conn[j], axis=1))
        nxt = np.roll(np.arange(s.mesh.n_panels), -1)
        assert np.array_equal(group.reverses, panels[:, 1] != nxt[panels[:, 0]])
        assert group.reverses.sum() == size // 2
