import numpy as np
import pytest

from calderon_bench.duals import (bijection_l2_norm, bijection_matrix,
                                  bubble_norms, bubble_phi_products,
                                  build_bubbles, build_dual_basis, dual_norms,
                                  eval_dual_sum, fortin_l2_norm, fortin_matrix,
                                  holding_space, l2_project, nodal_norms)
from calderon_bench.fespace import build_space, reference_basis, reference_basis_deriv
from calderon_bench.gram import mass_matrix
from calderon_bench.mesh import initial_mesh, panel_speeds
from calderon_bench.quadrature import adaptive_integrate, gauss_rule

from helpers import corner_mesh, geom

rng = np.random.RandomState(4)


@pytest.fixture(scope="module", params=[("square", 1), ("square", 3), ("ellipse", 3)])
def dual_setup(request):
    kind, ell = request.param
    s = build_space(corner_mesh(kind, 2), ell)
    b = build_bubbles(s)
    d = build_dual_basis(s, b)
    return kind, ell, s, b, d


def _reference_bubbles(s):
    """The bubbles node by node: one dense KKT system per node on its
    support, rows in global node order, returned in the conn layout."""
    q = 2 * s.degree + 2
    quad = gauss_rule(16)
    phi_l2sq = np.diag(mass_matrix(s, "exact", n_quad=16))
    Vq = reference_basis(q, quad.nodes)
    Dq = reference_basis_deriv(q, quad.nodes)
    Vl = reference_basis(s.degree, quad.nodes)
    speed, dt = panel_speeds(s.mesh, quad.nodes)
    ds_dxs = speed * dt[:, None]
    w_arcs = quad.weights * ds_dxs
    coef = np.zeros((s.mesh.n_panels, s.degree + 1, q + 1))

    for nu in range(s.ndof):
        sup = [(p, a) for p, a in zip(*np.nonzero(s.conn == nu))]
        if len(sup) == 1:
            panels = [sup[0][0]]
        else:
            # vertex node: order support panels left (node at x=1), right (x=0)
            left = next(p for p, a in sup if a == s.degree)
            right = next(p for p, a in sup if a == 0)
            panels = [left, right]
        # dof table: (panel, local lagrange index); outer boundary dofs are
        # dropped, the junction dof is shared between the two panels
        if len(panels) == 1:
            dofs = [(panels[0], j) for j in range(1, q)]
        else:
            dofs = [(panels[0], j) for j in range(1, q + 1)]
            dofs += [(panels[1], j) for j in range(1, q)]
        ndof = len(dofs)

        rows = sorted({int(i) for p in panels for i in s.conn[p]})
        row_of = {mu: r for r, mu in enumerate(rows)}

        C = np.zeros((len(rows), ndof))
        H = np.zeros((ndof, ndof))
        for p in panels:
            w_arc, ds_dx = w_arcs[p], ds_dxs[p]
            cols = [j for j, (pp, _) in enumerate(dofs) if pp == p]
            if len(panels) == 2 and p == panels[1]:
                # junction dof (panels[0], q) doubles as local index 0 here
                cols = [q - 1] + cols
                idxs = [0] + [dofs[j][1] for j in cols[1:]]
            else:
                idxs = [dofs[j][1] for j in cols]
            B = Vq[idxs]
            dB = Dq[idxs]
            for a, mu in enumerate(s.conn[p]):
                C[row_of[mu], cols] += B @ (w_arc * Vl[a])
            H[np.ix_(cols, cols)] += (dB / ds_dx) @ (dB * quad.weights).T

        g = np.zeros(len(rows))
        g[row_of[nu]] = phi_l2sq[nu]
        kkt = np.block([[2.0 * H, C.T], [C, np.zeros((len(rows), len(rows)))]])
        x = np.linalg.solve(kkt, np.concatenate([np.zeros(ndof), g]))[:ndof]

        for p, a in sup:
            for j, (pp, idx) in enumerate(dofs):
                if pp == p:
                    coef[p, a, idx] = x[j]
            if len(panels) == 2 and p == panels[1]:
                coef[p, a, 0] = x[q - 1]     # junction dof: (panels[0], q) == (panels[1], 0)
    return coef


def test_bubbles_match_per_node_reference(dual_setup):
    _, _, s, b, _ = dual_setup
    ref = _reference_bubbles(s)
    assert b.coef.shape == ref.shape
    assert np.abs(b.coef - ref).max() <= 1e-13 * np.abs(ref).max()


def test_bubbles_continuous_at_vertices(dual_setup):
    # a vertex bubble's value at its node is one unknown, read from both panels
    _, ell, s, b, _ = dual_setup
    q = b.degree
    assert np.array_equal(np.roll(b.coef, 1, axis=0)[:, ell, q], b.coef[:, 0, 0])


def test_bubble_constraints(dual_setup):
    _, _, s, b, _ = dual_setup
    G = bubble_phi_products(b).toarray()
    off = G - np.diag(np.diag(G))
    assert np.abs(off).max() <= 1e-12 * b.phi_l2sq.max()
    assert np.abs(np.diag(G) - b.phi_l2sq).max() <= 1e-12 * b.phi_l2sq.max()


def test_bubbles_carry_the_exact_mass_matrix(dual_setup):
    # the one mass matrix the bubbles, the duals and the bijection norm use
    _, _, s, b, d = dual_setup
    assert np.array_equal(b.mass, mass_matrix(s, "exact", n_quad=16))
    assert d.bubbles.mass is b.mass
    assert np.array_equal(b.phi_l2sq, np.diag(b.mass))


def test_bubble_supports_inside_nodal_supports(dual_setup):
    # coef holds a bubble exactly on its node's panels; none of them is idle
    _, _, s, b, _ = dual_setup
    assert b.coef.shape[:2] == s.conn.shape
    assert np.all(np.any(b.coef != 0.0, axis=2))


def test_bubble_h1_ratio_regression():
    """||theta_nu||_H1 / ||phi_nu||_H1 stays inside a mesh-independent
    bracket: measured at level 1, then required not to grow by more than
    10% through level 6."""
    for ell in (1, 3):
        ratios = []
        for k in range(1, 7):
            s = build_space(corner_mesh("square", k), ell)
            b = build_bubbles(s)
            _, nh1 = nodal_norms(s)
            _, bh1 = bubble_norms(b)
            ratios.append((bh1 / nh1).max())
        assert max(ratios[1:]) <= 1.1 * ratios[0]


def test_biorthogonality(dual_setup):
    _, _, s, _, d = dual_setup
    err = np.abs(d.pairing.toarray() - np.diag(d.lumped)).max()
    assert err <= 1e-10 * d.lumped.max()


def test_dual_sum_is_one(dual_setup):
    _, _, _, _, d = dual_setup
    assert eval_dual_sum(d, n_samples=1000) < 1e-10


def test_dual_support_is_uniformly_local(dual_setup):
    # the construction spreads each dual over the supports of the
    # mass-neighbours of its node: one ring beyond supp phi_nu, never more
    _, _, s, _, d = dual_setup
    M = mass_matrix(s)
    combo = d.combo.toarray()
    for nu in range(s.ndof):
        carriers = np.nonzero(np.abs(combo[:, nu]) > 1e-14)[0]
        neighbors = set(np.nonzero(np.abs(M[nu]) > 1e-14 * M[nu, nu])[0]) | {nu}
        assert set(carriers) <= neighbors


def test_dual_norm_ratios_bounded(dual_setup):
    _, _, s, _, d = dual_setup
    hold = holding_space(d)
    nl2, nh1 = nodal_norms(s)
    dl2, dh1 = dual_norms(d, hold)
    assert (dl2 / nl2).max() < 4.0
    assert (dh1 / np.maximum(nh1, 1e-300)).max() < 4.0


def test_fortin_projector_identities(dual_setup):
    _, _, s, _, d = dual_setup
    hold = holding_space(d)
    P, _ = fortin_matrix(d, hold)
    scale = np.abs(P).max()
    assert np.abs(P @ P - P).max() <= 1e-10 * scale
    assert np.abs(P @ hold.ones_rep - hold.ones_rep).max() <= 1e-10
    assert np.abs(P @ hold.dual_rep - hold.dual_rep).max() <= 1e-10 * scale
    # ran(1 - P) is L2-orthogonal to the coarse space
    resid = hold.nodal_rep.T @ hold.gram @ (np.eye(hold.dim) - P)
    assert np.abs(resid).max() <= 1e-12


def test_fortin_norm_moderate(dual_setup):
    _, _, _, _, d = dual_setup
    norm = fortin_l2_norm(d)
    assert 1.0 - 1e-10 <= norm <= 2.0


def _quotient_norm(P, G, rank_tol=1e-10):
    """Operator norm of the coefficient matrix P in the norm induced by the
    (possibly rank-deficient) Gram matrix G, all dim x dim.

    The holding basis can contain exact linear dependencies (for degree 3
    the H1-minimal bubbles are quintics, and per panel one combination of
    them lies in the piecewise-cubic fine space), so the norm is computed
    on the quotient: directions of G below rank_tol represent the zero
    function and are discarded.
    """
    dscale = 1.0 / np.sqrt(np.diag(G))
    Gn = G * np.outer(dscale, dscale)
    lam, V = np.linalg.eigh(Gn)
    keep = lam > rank_tol * lam[-1]
    X = V[:, keep] * np.sqrt(lam[keep])           # Gn^(1/2) on its range
    Pn = (P * dscale[None, :]) / dscale[:, None]  # P in the scaled basis
    Y = X.T @ Pn @ (X / lam[keep])                # Gn^(1/2) P Gn^(-1/2) on the range
    return float(np.linalg.norm(Y, ord=2))


def test_fortin_norm_matches_the_quotient(dual_setup):
    # the N x N pencil against the norm of the dim x dim projector on the
    # quotient of the holding space by the null directions of its Gram
    _, _, _, _, d = dual_setup
    hold = holding_space(d)
    P, _ = fortin_matrix(d, hold)
    ref = _quotient_norm(P, hold.gram.toarray())
    assert abs(fortin_l2_norm(d, hold) / ref - 1.0) <= 1e-12


def test_bijection_identities(dual_setup):
    _, _, s, _, d = dual_setup
    fwd, inverse, hold = bijection_matrix(d)
    ones = np.ones(s.ndof)
    assert np.abs(fwd @ ones - hold.ones_rep).max() <= 1e-10
    c = rng.rand(s.ndof)
    assert np.abs(inverse(fwd @ c) - c).max() <= 1e-10
    assert np.linalg.matrix_rank(fwd) == s.ndof


@pytest.mark.parametrize("kind, ell", [("square", 1), ("square", 3),
                                       ("ellipse", 1), ("ellipse", 3)])
def test_bijection_norm_regression(kind, ell):
    """The paper's stability constants stay in level-independent brackets
    through level 6: the L2 norms of the Fortin projector and of the
    nodal-to-dual bijection, and the largest dual/nodal ratios of the L2
    norms and H1 seminorms, each at most 10 % above its level-1 value."""
    rows = []
    for k in range(1, 7):
        s = build_space(corner_mesh(kind, k), ell)
        d = build_dual_basis(s, build_bubbles(s))
        hold = holding_space(d)
        (nl2, nh1), (dl2, dh1) = nodal_norms(s), dual_norms(d, hold)
        rows.append([fortin_l2_norm(d, hold), bijection_l2_norm(d, hold),
                     (dl2 / nl2).max(), (dh1 / nh1).max()])
    rows = np.array(rows)
    assert np.all(rows[1:] <= 1.1 * rows[0])
    assert rows[:, :2].min() >= 1.0 - 1e-10   # P and I fix the constant function


def test_l2_project_reproduces_space():
    # functions already in the space come back exactly: constants on any
    # chart, and the coordinate function on affine charts for degree 3
    s = build_space(corner_mesh("square", 2), 3)
    ones = l2_project(s, lambda pts, chart: np.ones(pts.shape[0]))
    assert np.abs(ones - 1.0).max() <= 1e-10
    coord = l2_project(s, lambda pts, chart: pts[..., 0])
    vals = np.array([s.node_point(nu)[0] for nu in range(s.ndof)])
    assert np.abs(coord - vals).max() <= 1e-10


def test_l2_project_orthogonality_and_oracle():
    s = build_space(initial_mesh(geom("ellipse"), 8), 1)

    def u(pts, chart):
        return np.cos(3.0 * pts[..., 0]) + pts[..., 1] ** 2

    c = l2_project(s, u)
    # residual orthogonality against every basis function, via an
    # independent dense solve with adaptively integrated moments
    from calderon_bench.fespace import eval_basis

    M = mass_matrix(s, n_quad=20)
    chart = s.mesh.geometry.charts[0]
    rhs = np.zeros(s.ndof)
    for p, panel in enumerate(s.mesh.panels):
        dt = panel.t1 - panel.t0
        for a, nu in enumerate(s.conn[p]):
            def f(t, a=a, p=p):
                x = (t - panel.t0) / dt
                _, vals, _ = eval_basis(s, p, x)
                sp = np.linalg.norm(chart.velocity(t), axis=-1)
                return u(chart.point(t), 0) * vals[a] * sp

            rhs[nu] += adaptive_integrate(f, (panel.t0, panel.t1), tol=1e-12)
    import scipy.linalg

    oracle = scipy.linalg.solve(M, rhs, assume_a="sym")
    assert np.abs(c - oracle).max() <= 1e-10 * np.abs(oracle).max()
    assert np.abs(M @ c - rhs).max() <= 1e-10


def test_enrichment_error_message():
    from calderon_bench.duals import EnrichmentError

    assert issubclass(EnrichmentError, RuntimeError)
