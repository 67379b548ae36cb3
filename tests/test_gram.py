import numpy as np
import pytest

from calderon_bench.fespace import build_space, reference_basis
from calderon_bench.geometry import total_length
from calderon_bench.gram import lumped_matrix, mass_matrix, scaled_basis
from calderon_bench.mesh import initial_mesh
from calderon_bench.quadrature import adaptive_integrate, gauss_rule

from helpers import corner_space, geom


def test_linear_mass_row_pattern():
    # uniform spacing h on straight charts: rows (h/6, 2h/3, h/6)
    s = build_space(initial_mesh(geom("square"), 2), 1)
    M = mass_matrix(s)
    h = 0.25
    for nu in range(s.ndof):
        row = M[nu]
        assert row[nu] == pytest.approx(2 * h / 3, rel=1e-13)
        assert sorted(row[row > 1e-14 * h])[0] == pytest.approx(h / 6, rel=1e-13)
        assert np.count_nonzero(row > 1e-14 * h) == 3


def test_exact_equals_averaged_on_affine_charts():
    for ell in (1, 3):
        s = corner_space("square", 2, ell)
        Me = mass_matrix(s, "exact")
        Ma = mass_matrix(s, "mesh-averaged")
        assert np.abs(Me - Ma).max() <= 1e-14 * np.abs(Me).max()


def test_ellipse_mass_entries_match_adaptive_oracle():
    g = geom("ellipse")
    s = build_space(initial_mesh(g, 8), 3)
    M = mass_matrix(s)
    chart = g.charts[0]
    # interior-node pairs: their supports live on panel 2 alone, so the
    # matrix entry is a single-panel integral the oracle can reproduce
    panel = s.mesh.panels[2]
    dt = panel.t1 - panel.t0
    for a, b in ((1, 1), (1, 2), (2, 2)):
        nu, mu = s.conn[2][a], s.conn[2][b]

        def f(t):
            x = (t - panel.t0) / dt
            vals = reference_basis(s.degree, x)
            sp = np.linalg.norm(chart.velocity(t), axis=-1)
            return vals[a] * vals[b] * sp

        ref = adaptive_integrate(f, (panel.t0, panel.t1), tol=1e-12)
        assert M[nu, mu] == pytest.approx(ref, rel=1e-10)


def test_lumped_linear_uniform():
    s = build_space(initial_mesh(geom("square"), 2), 1)
    D = lumped_matrix(s)
    assert np.allclose(D, 0.25, rtol=1e-13)     # hat integrates to h


def test_lumped_cubic_newton_cotes():
    # vertex entries h/4, interior entries 3h/8 (3/8 rule weights)
    s = build_space(initial_mesh(geom("square"), 2), 3)
    D = lumped_matrix(s)
    h = 0.25
    P = s.mesh.n_panels
    assert np.allclose(D[:P], h / 4, rtol=1e-13)
    assert np.allclose(D[P:], 3 * h / 8, rtol=1e-13)


@pytest.mark.parametrize("kind", ["square", "circle", "ellipse"])
@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("inner", ["exact", "mesh-averaged"])
def test_lumping_rowsum_identity(kind, ell, inner):
    for k in (1, 2):
        s = corner_space(kind, k, ell)
        M = mass_matrix(s, inner)
        D = lumped_matrix(s, inner)
        assert np.abs(M.sum(axis=1) - D).max() <= 1e-12 * D.max()
        assert D.sum() == pytest.approx(s.mesh.total_length(), rel=1e-12)
        assert np.all(D > 0)


def test_averaged_vs_exact_lumped_within_speed_band():
    g = geom("ellipse")
    s = corner_space("ellipse", 1, 1)
    De = lumped_matrix(s, "exact")
    Da = lumped_matrix(s, "mesh-averaged")
    # per-panel averaged Jacobian stays inside the panel speed band, so the
    # entry ratios live in the global band [min/avg, max/avg] superset
    ratio = De / Da
    assert ratio.min() > 0.5 and ratio.max() < 2.0
    assert np.abs(De - Da).max() > 0            # genuinely different on the ellipse


def test_mass_spd():
    for ell in (1, 3):
        s = corner_space("ellipse", 1, ell)
        np.linalg.cholesky(mass_matrix(s))


def test_scaled_basis_identities():
    d = np.array([4.0, 1.0, 9.0])
    assert np.allclose(scaled_basis(np.diag(d), d), np.eye(3), atol=1e-14)
    assert np.allclose(scaled_basis(np.eye(3), np.ones(3)), np.eye(3))
    with pytest.raises(ValueError):
        scaled_basis(np.eye(2), np.array([1.0, -1.0]))


def test_scaled_basis_kappa_equivalence():
    from calderon_bench.boundary_operators import assemble_operator_pair
    from calderon_bench.precond import lumped_precond
    from calderon_bench.spectral import kappa, spd_factor

    s = corner_space("square", 1, 1)
    A, B = assemble_operator_pair(s)
    D = lumped_matrix(s)
    k_lumped = kappa(lumped_precond(B, D), A)
    k_scaled = kappa(spd_factor(scaled_basis(B, D)).T, scaled_basis(A, D))
    assert k_scaled == pytest.approx(k_lumped, rel=1e-8)


def _mass_matrix_per_panel(s, kind, n_quad=12):
    """Reference: one chart evaluation and one block scatter per panel."""
    g = gauss_rule(n_quad)
    V = reference_basis(s.degree, g.nodes)
    M = np.zeros((s.ndof, s.ndof))
    for p, panel in enumerate(s.mesh.panels):
        dt = panel.t1 - panel.t0
        if kind == "exact":
            t = panel.t0 + dt * g.nodes
            c = s.mesh.geometry.charts[panel.chart]
            jac = np.linalg.norm(c.velocity(t), axis=-1) * dt
        else:
            jac = np.full(g.nodes.size, panel.length)
        idx = s.conn[p]
        M[np.ix_(idx, idx)] += (V * (g.weights * jac)) @ V.T
    return M


@pytest.mark.parametrize("kind", ["square", "ellipse"])
@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("inner", ["exact", "mesh-averaged"])
def test_mass_matrix_matches_per_panel_loop(kind, ell, inner):
    s = corner_space(kind, 2, ell)
    assert np.array_equal(mass_matrix(s, inner), _mass_matrix_per_panel(s, inner))
