import numpy as np
import pytest

from calderon_bench.geometry import arc_length, make_geometry, total_length
from calderon_bench.mesh import (Mesh, corner_panels, corner_schedule, deepest_level, dump_mesh,
                                 initial_mesh, is_conforming, neighbor_ratios,
                                 panel_chords, panel_samples, refine, uniform_refine)
from calderon_bench.quadrature import gauss_rule

from helpers import corner_mesh, geom

RATIO_CAP = 2.0 * (1 + 1e-9)


@pytest.fixture(scope="module")
def square():
    return make_geometry("square", 0.5)


@pytest.fixture(scope="module")
def ellipse():
    return make_geometry("ellipse", 0.5, 2.0)


def test_initial_square(square):
    m = initial_mesh(square, 2)
    assert m.n_panels == 8
    assert all(p.length == pytest.approx(0.25) for p in m.panels)
    assert m.total_length() == pytest.approx(2.0, rel=1e-14)


def test_initial_circle_equal_arcs():
    g = make_geometry("circle", 0.5)
    m = initial_mesh(g, 4)
    assert m.n_panels == 4
    assert np.allclose([p.length for p in m.panels], np.pi * 0.5 / 4, rtol=1e-14)


def test_initial_ellipse_tiles(ellipse):
    m = initial_mesh(ellipse, 4)
    assert abs(m.total_length() / total_length(ellipse) - 1) < 1e-12


def test_uniform_refine(square):
    m = initial_mesh(square, 2)
    m2 = uniform_refine(m)
    assert m2.n_panels == 16
    assert m2.h_max == pytest.approx(m.h_max / 2)
    assert m2.total_length() == pytest.approx(m.total_length(), rel=1e-12)


def test_refine_single_panel_no_closure(square):
    m = initial_mesh(square, 2)
    m2 = refine(m, {0})
    assert m2.n_panels == 9           # ratio 2 against neighbours is allowed
    assert neighbor_ratios(m2).max() <= RATIO_CAP


def test_refine_repeated_vertex_marking(square):
    m = initial_mesh(square, 2)
    for _ in range(10):
        # both panels touching the vertex between panels 0 and 1
        tc = m.panels[1].t0
        marked = [i for i, p in enumerate(m.panels)
                  if p.t1 == tc or p.t0 == tc]
        m = refine(m, marked)
    assert m.h_min / m.h_max <= 2.0 ** -10
    assert neighbor_ratios(m).max() <= RATIO_CAP
    assert is_conforming(m)


def test_mark_all_equals_uniform(square):
    m = initial_mesh(square, 2)
    a = refine(m, range(m.n_panels))
    b = uniform_refine(m)
    assert [(p.chart, p.t0, p.t1) for p in a.panels] == [
        (p.chart, p.t0, p.t1) for p in b.panels
    ]


def test_refine_errors(square):
    m = initial_mesh(square, 2)
    with pytest.raises(ValueError):
        refine(m, set())
    with pytest.raises(ValueError):
        refine(m, {99})
    with pytest.raises(ValueError):
        refine(m, {-1})


def test_refine_is_monotone(ellipse):
    m = initial_mesh(ellipse, 8)
    m2 = refine(m, {1, 5})
    for c in m2.panels:
        assert any(
            p.chart == c.chart and p.t0 - 1e-15 <= c.t0 and c.t1 <= p.t1 + 1e-15
            for p in m.panels
        )


def test_corner_schedule_hmax_exact(square):
    m0 = initial_mesh(square, 2)
    m = corner_schedule(square, 1)
    assert m.h_max == pytest.approx(m0.h_max / 2, rel=1e-14)


def test_corner_schedule_span(square):
    m = corner_schedule(square, 3)
    assert m.h_min / m.h_max <= 1e-3          # >= 3 orders of magnitude
    # h_min shrinks like 2^-(5k) on the square (no closure interference)
    assert m.h_min == pytest.approx(0.25 * 2.0 ** -15, rel=1e-12)


@pytest.mark.parametrize("kind", ["square", "circle", "ellipse"])
@pytest.mark.parametrize("k", [1, 2])
def test_corner_schedule_invariants(kind, k):
    g = make_geometry(kind, 0.5, 2.0)
    m = corner_schedule(g, k)
    assert is_conforming(m)
    assert abs(m.total_length() / total_length(g) - 1) < 1e-12
    # the closure enforces the factor-2 bound on normalized sizes ...
    assert neighbor_ratios(m, normalized=True).max() <= RATIO_CAP
    # ... which on constant-speed charts is the arc-length bound itself,
    # and on the ellipse holds up to the bounded speed wobble
    if kind in ("square", "circle"):
        assert neighbor_ratios(m).max() <= RATIO_CAP
    else:
        assert neighbor_ratios(m).max() <= 2.5


@pytest.mark.parametrize("kind", ["square", "circle", "ellipse"])
def test_benchmark_meshes_share_end_points_exactly(kind):
    for k in range(1, 7):
        assert is_conforming(corner_mesh(kind, k)), k


@pytest.mark.parametrize("shift", [5e-13, -5e-13], ids=["gap", "overlap"])
def test_is_conforming_rejects_gap_after_tiny_panel(square, shift):
    """A 1e-14 panel followed by a 5e-13 parameter gap (50 times the
    panel) or by a 5e-13 overlap leaves the curve torn; an absolute
    tolerance of 1e-12 on the shared parameter accepted both."""
    m = corner_schedule(square, 1)
    end = m.t0[0] + 1e-14

    def cut(start):
        # panel 0 cut into [t0, end] and [start, t1], both keeping its chart
        chart, length, qlength = (np.insert(a, 0, a[0]) for a in (m.chart, m.length, m.qlength))
        return Mesh(square, chart, np.insert(m.t0, 1, start), np.insert(m.t1, 0, end),
                    length, qlength)

    assert is_conforming(cut(end))
    assert not is_conforming(cut(end + shift))


def test_is_conforming_rejects_empty_panel(square):
    # an empty panel [t0, t0] ahead of panel 0 still chains end points exactly
    m = corner_schedule(square, 1)
    chart, t0, length, qlength = (np.insert(a, 0, a[0]) for a in
                                  (m.chart, m.t0, m.length, m.qlength))
    t1 = np.insert(m.t1, 0, m.t0[0])
    assert is_conforming(m)
    assert not is_conforming(Mesh(square, chart, t0, t1, length, qlength))


@pytest.mark.parametrize("kind, rounds", [("square", 48), ("ellipse", 49)])
def test_bisection_below_float_resolution_raises(kind, rounds):
    """Two uniform bisections, then corner rounds: one round short of the
    limit still builds a conforming mesh, and the next one cannot split a
    corner panel in floating point and raises instead of making it empty."""
    g = geom(kind)
    m = uniform_refine(uniform_refine(initial_mesh(g, 2 if kind == "square" else 8)))
    for _ in range(rounds - 1):
        m = refine(m, corner_panels(m))
    assert is_conforming(m)
    assert np.all(m.t1 > m.t0)
    with pytest.raises(ValueError, match=r"chart \d+.*midpoint"):
        refine(m, corner_panels(m))


# the deepest level of the schedule with 4 and 6 corner rounds per level,
# and with none (uniform): 49 bisections of an anchor panel fit on the
# square and 50 on the ellipse and the circle, as above
DEEPEST = {("square", 4): 9, ("circle", 4): 10, ("ellipse", 4): 10,
           ("square", 6): 7, ("circle", 6): 7, ("ellipse", 6): 7,
           ("square", 0): 49, ("circle", 0): 50, ("ellipse", 0): 50}


@pytest.mark.parametrize("kind, rounds", list(DEEPEST))
def test_deepest_level_is_the_last_the_schedule_builds(kind, rounds):
    """The replayed midpoint chain of the anchor panels gives the deepest
    level, capped at the level asked for; corner_schedule builds that level
    and raises one level deeper (a uniform level 50 is too large to build)."""
    g = geom(kind)
    deepest = deepest_level(g, 1000, rounds)
    assert deepest == DEEPEST[kind, rounds]
    assert deepest_level(g, deepest, rounds) == deepest
    assert deepest_level(g, 3, rounds) == 3
    if rounds:
        assert is_conforming(corner_schedule(g, deepest, rounds))
        with pytest.raises(ValueError, match="midpoint"):
            corner_schedule(g, deepest + 1, rounds)


@pytest.mark.parametrize("name", ["chart", "t0", "t1", "length", "qlength"])
def test_mesh_arrays_are_read_only(name):
    m = corner_mesh("square", 1)
    with pytest.raises(ValueError):
        getattr(m, name)[0] = getattr(m, name)[1]


def test_corner_panels_touch_corners(square):
    m = initial_mesh(square, 2)
    ids = corner_panels(m)
    assert len(ids) == 8              # 4 corners, 2 panels each


def test_corner_schedule_rejects_k0(square):
    with pytest.raises(ValueError):
        corner_schedule(square, 0)


def test_dump_format(tmp_path, square):
    m = initial_mesh(square, 2)
    path = tmp_path / "mesh.txt"
    dump_mesh(m, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == m.n_panels
    pid, chart, t0, t1, ln = lines[3].split()
    assert int(pid) == 3 and 0 <= int(chart) < 4
    assert float(t1) > float(t0) and float(ln) == pytest.approx(0.25)


@pytest.mark.parametrize("kind", ["square", "ellipse"])
def test_panel_samples_match_direct_chart_calls(kind):
    """The batched samples equal, bit for bit, one chart call per panel.  A
    point is the panel's start point plus the chord to it, which agrees
    with the chart point at the absolute parameter to rounding."""
    g = make_geometry(kind, 0.5, 2.0)
    m = corner_schedule(g, 2)
    unit = gauss_rule(5).nodes
    pts, speed, dt = panel_samples(m, unit)
    assert pts.shape == (m.n_panels, unit.size, 2)
    assert speed.shape == (m.n_panels, unit.size) and dt.shape == (m.n_panels,)
    for i, p in enumerate(m.panels):
        c = g.charts[p.chart]
        h = (p.t1 - p.t0) * unit
        t = p.t0 + h
        assert dt[i] == p.t1 - p.t0
        assert np.array_equal(pts[i], c.point(p.t0) + c.chord(p.t0, h))
        assert np.abs(pts[i] - c.point(t)).max() <= 4e-16
        assert np.array_equal(speed[i], np.linalg.norm(c.velocity(t), axis=-1))


@pytest.mark.parametrize("kind", ["square", "ellipse"])
def test_panel_chords_keep_relative_accuracy(kind):
    """chi(t + h) - chi(t) matches the point difference where that is
    accurate, and keeps its relative size where the difference cancels."""
    g = make_geometry(kind, 0.5, 2.0)
    m = corner_schedule(g, 2)
    unit = gauss_rule(5).nodes
    pts, speed, dt = panel_samples(m, unit)
    c = panel_chords(m, 0.0, unit)
    start = pts - c                       # every row's panel start point
    assert np.abs(start - start[:, :1]).max() <= 1e-16
    # a step of 1e-30 of the panel: the point difference is 0, the chord
    # is the speed times the step
    tiny = panel_chords(m, unit, 1e-30)
    length = np.linalg.norm(tiny, axis=-1)
    assert np.abs(length / (1e-30 * dt[:, None] * speed) - 1).max() <= 1e-14



@pytest.mark.parametrize("kind", ["square", "ellipse"])
def test_bisection_lengths_match_arc_length(kind):
    # the children of one bisection sweep get their lengths from one
    # batched call per chart
    g = make_geometry(kind, 0.5, 2.0)
    m = corner_schedule(g, 6)
    got = np.array([p.length for p in m.panels])
    ref = np.array([arc_length(g.charts[p.chart], p.t0, p.t1) for p in m.panels])
    assert np.abs(got / ref - 1).max() <= 1e-15


@pytest.mark.parametrize("kind", ["circle", "ellipse"])
def test_corner_schedule_is_dyadic_and_quadrant_symmetric(kind):
    # normalized sizes are halved exactly at every bisection, so rounding
    # in the bisected parameters of the non-dyadic anchors pi/2, pi and
    # 3 pi/2 cannot push an at-cap pair over the cap and set off closure
    # bisections in one quadrant only
    g = make_geometry(kind, 0.5, 2.0)
    for k in range(1, 7):
        m = corner_schedule(g, k)
        mid = np.array([0.5 * (p.t0 + p.t1) for p in m.panels])
        counts = np.bincount((mid // (0.5 * np.pi)).astype(int), minlength=4)
        assert counts.tolist() == [m.n_panels // 4] * 4, (k, counts)
        assert set(neighbor_ratios(m, normalized=True).tolist()) <= {1.0, 2.0}, k
