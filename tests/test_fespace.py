import numpy as np
import pytest

from calderon_bench.fespace import build_space, reference_basis, reference_basis_deriv
from calderon_bench.geometry import make_geometry
from calderon_bench.mesh import corner_schedule, initial_mesh

rng = np.random.RandomState(7)

# <1, phi> / ||phi||^2 on the reference configuration (uniform spacing):
# degree 1: (h)/(2h/3); degree 3 vertex: (h/4)/(2h * 8/105), interior:
# (3h/8)/(h * 27/70)
BRACKETS = {1: (1.5, 1.5), 3: (35 / 36, 105 / 64)}


@pytest.fixture(scope="module")
def square_mesh():
    return initial_mesh(make_geometry("square", 0.5), 2)


def test_dof_counts(square_mesh):
    assert build_space(square_mesh, 1).ndof == 8
    assert build_space(square_mesh, 3).ndof == 24


def test_vertex_nodes_belong_to_two_panels(square_mesh):
    for ell in (1, 3):
        s = build_space(square_mesh, ell)
        panels_per_node = np.bincount(s.conn.ravel(), minlength=s.ndof)
        P = s.mesh.n_panels                       # vertex ids come first
        assert np.all(panels_per_node[:P] == 2)
        assert np.all(panels_per_node[P:] == 1)


@pytest.mark.parametrize("name", ["conn"])
def test_space_arrays_are_read_only(square_mesh, name):
    s = build_space(square_mesh, 3)
    with pytest.raises(ValueError):
        getattr(s, name)[0] = getattr(s, name)[1]


def test_eval_basis_linear_midpoint():
    vals, ders = reference_basis(1, 0.5), reference_basis_deriv(1, 0.5)
    assert vals.shape == (2, 1)
    assert np.allclose(vals.ravel(), [0.5, 0.5])
    assert abs(ders.sum()) < 1e-14


def test_eval_basis_cubic_nodal_property():
    assert np.allclose(reference_basis(3, np.linspace(0, 1, 4)), np.eye(4), atol=1e-13)


def test_eval_basis_partition_of_unity():
    x = rng.rand(50)
    vals, ders = reference_basis(3, x), reference_basis_deriv(3, x)
    assert np.abs(vals.sum(axis=0) - 1).max() < 1e-14
    assert np.abs(ders.sum(axis=0)).max() < 1e-12


def test_global_partition_of_unity_sampled():
    for ell in (1, 3):
        vals = reference_basis(ell, rng.rand(1000))
        assert np.abs(vals.sum(axis=0) - 1).max() < 1e-12


def test_continuity_across_junctions():
    g = make_geometry("square", 0.5)
    m = corner_schedule(g, 1)
    for ell in (1, 3):
        s = build_space(m, ell)
        P = m.n_panels
        for p in range(P):
            q = (p + 1) % P
            vals_p, vals_q = reference_basis(ell, 1.0), reference_basis(ell, 0.0)
            # the shared vertex is the last node of p and the first of q
            assert s.conn[p][-1] == s.conn[q][0]
            assert vals_p[-1, 0] == pytest.approx(1.0, abs=1e-13)
            assert vals_q[0, 0] == pytest.approx(1.0, abs=1e-13)


def test_nodal_property_at_nodes():
    g = make_geometry("circle", 0.5)
    s = build_space(initial_mesh(g, 8), 3)
    vals = reference_basis(3, np.linspace(0, 1, 4))
    assert s.conn.shape == (s.mesh.n_panels, 4)
    for a in range(4):
        assert vals[a, a] == pytest.approx(1.0, abs=1e-13)
        assert np.abs(np.delete(vals[:, a], a)).max() < 1e-13


@pytest.mark.parametrize("kind,ell", [("square", 1), ("square", 3),
                                      ("ellipse", 1), ("ellipse", 3)])
def test_lump_vs_l2_bracket(kind, ell):
    """<1, phi_nu> and ||phi_nu||^2 are comparable, with the reference-element
    bracket widened by the speed band of the support on curved charts."""
    from calderon_bench.gram import mass_matrix

    g = make_geometry(kind, 0.5, 2.0)
    s = build_space(corner_schedule(g, 1), ell)
    M = mass_matrix(s)
    lump = M.sum(axis=1)
    l2sq = np.diag(M)
    c1, c2 = BRACKETS[ell]
    rho = 1.0 if kind == "square" else 2.0     # global speed band max/min
    ratios = lump / l2sq
    assert ratios.min() >= c1 / rho - 1e-12
    assert ratios.max() <= c2 * rho + 1e-12


def test_mirror_match_refuses_a_gap_of_five_tenths_of_a_millionth(monkeypatch):
    """Assembly copies entries to their mirror images, so a mesh whose
    mirror misses by 5e-7 of a panel gets no maps (it would pass at
    1e-6): one shared vertex of the level-2 square moved along its side."""
    from calderon_bench import fespace
    from calderon_bench.mesh import Mesh

    m = corner_schedule(make_geometry("square", 0.5), 2)
    i = next(i for i in range(1, m.n_panels) if m.chart[i] == m.chart[i + 1])
    t0, t1 = m.t0.copy(), m.t1.copy()
    t1[i] = t0[i + 1] = t1[i] + 5e-7 * (t1[i] - t0[i])
    moved = build_space(Mesh(m.geometry, m.chart, t0, t1, m.qlength), 1)
    assert len(fespace.mirror_permutations(build_space(m, 1))) == 3
    assert fespace.mirror_permutations(moved) == ()
    monkeypatch.setattr(fespace, "MIRROR_MATCH", 1e-6)
    assert len(fespace.mirror_permutations(moved)) == 3
