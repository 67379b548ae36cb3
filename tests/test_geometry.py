import numpy as np
import pytest
from scipy.special import ellipe

from calderon_bench.geometry import (CoercivityRiskError, EllipticChart, arc_length,
                                     arc_lengths, make_geometry, total_length)
from calderon_bench.quadrature import gauss_rule

ELLIPSE_PERIMETER = 4 * 0.25 * ellipe(1 - (0.125 / 0.25) ** 2)  # scale .5, ratio 2


def test_square_charts_and_length():
    g = make_geometry("square", 0.5)
    assert g.n_charts == 4
    assert total_length(g) == pytest.approx(2.0, rel=1e-13)
    # disjoint closed parameter intervals
    ivs = [(c.t0, c.t1) for c in g.charts]
    for (a0, b0), (a1, b1) in zip(ivs[:-1], ivs[1:]):
        assert b0 < a1


def test_square_chart_speed_is_side_over_param_length():
    g = make_geometry("square", 0.5)
    for i, c in enumerate(g.charts):
        ts = np.linspace(c.t0, c.t1, 7)
        assert np.allclose(g.charts[i].speed(ts), 0.5 / (c.t1 - c.t0))


def test_circle_constant_speed():
    g = make_geometry("circle", 0.5)
    ts = np.linspace(0, 2 * np.pi, 100)
    assert np.allclose(g.charts[0].speed(ts), 0.25)
    assert total_length(g) == pytest.approx(np.pi * 0.5, rel=1e-13)


def test_ellipse_speed_and_length():
    g = make_geometry("ellipse", 0.5, 2.0)
    assert g.charts[0].speed(0.0) == pytest.approx(0.125)       # |(-a sin, b cos)| at t=0
    assert g.charts[0].speed(np.pi / 2) == pytest.approx(0.25)
    assert total_length(g) == pytest.approx(ELLIPSE_PERIMETER, rel=1e-10)


def test_chart_eval_endpoints_glue():
    for kind in ("square", "circle", "ellipse"):
        g = make_geometry(kind, 0.5)
        p = g.n_charts
        for i in range(p):
            j = (i + 1) % p
            end = g.charts[i].point(g.charts[i].t1)
            start = g.charts[j].point(g.charts[j].t0)
            assert np.allclose(end, start, atol=1e-14)


def test_speed_uniformly_positive():
    for kind in ("square", "circle", "ellipse"):
        g = make_geometry(kind, 0.5)
        for i, c in enumerate(g.charts):
            ts = np.linspace(c.t0, c.t1, 1000)
            sp = g.charts[i].speed(ts)
            assert sp.min() > 0.05


def test_diameter_guard():
    with pytest.raises(CoercivityRiskError):
        make_geometry("square", 0.8)       # diagonal 0.8*sqrt(2) > 1
    with pytest.raises(CoercivityRiskError):
        make_geometry("circle", 1.2)
    with pytest.raises(CoercivityRiskError):
        make_geometry("ellipse", 1.01)
    make_geometry("circle", 1.0)           # diameter exactly 1 is admissible


def test_bad_inputs():
    with pytest.raises(ValueError):
        make_geometry("triangle", 0.5)
    with pytest.raises(ValueError):
        make_geometry("square", -1.0)
    with pytest.raises(ValueError):
        make_geometry("ellipse", 0.5, ellipse_ratio=0.0)
    # nan passes the sign and diameter checks, and an infinite ratio gives
    # b = 0: each died only in assembly.  The square and the circle do not
    # use the ratio, but a bad one is still a bad configuration
    nan, inf = float("nan"), float("inf")
    for kind, scale, ratio, field in (("square", nan, 2.0, "scale"), ("circle", nan, 2.0, "scale"),
                                      ("square", inf, 2.0, "scale"),
                                      ("ellipse", 0.5, nan, "ellipse_ratio"),
                                      ("ellipse", 0.5, inf, "ellipse_ratio"),
                                      ("square", 0.5, nan, "ellipse_ratio"),
                                      ("square", 0.5, -2.0, "ellipse_ratio"),
                                      ("circle", 0.5, inf, "ellipse_ratio"),
                                      ("circle", 0.5, 0.0, "ellipse_ratio")):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_geometry(kind, scale, ratio)


def test_corner_aliases_name_the_same_point():
    for kind in ("square", "circle", "ellipse"):
        g = make_geometry(kind, 0.5)
        for corner in g.corners:
            pts = np.array([g.charts[ci].point(t) for ci, t in corner])
            assert np.allclose(pts, pts[0], atol=1e-12)


@pytest.mark.parametrize("scale", [0.5, 1.0, 0.3, 0.7])
def test_circle_is_the_ellipse_of_ratio_one(scale):
    """The circle is built as the ellipse of axis ratio 1, whatever valid
    ellipse_ratio is passed (an invalid one is rejected, as for every
    kind); it keeps kind "circle", one angle chart of radius scale/2 about
    the origin, the four anchors at multiples of pi/2 and diameter =
    scale, exactly."""
    ref = EllipticChart(0.0, 2.0 * np.pi, scale / 2.0, scale / 2.0)
    anchors = (((0, 0.0), (0, 2.0 * np.pi)),) + tuple(((0, k * np.pi / 2.0),) for k in (1, 2, 3))
    with pytest.raises(ValueError, match="ellipse_ratio"):
        make_geometry("circle", scale, -1.0)
    for ratio in (2.0, 0.5):
        g = make_geometry("circle", scale, ratio)
        assert (g.kind, g.scale, g.diameter, g.mirror_centre) == ("circle", scale, scale, (0.0, 0.0))
        (c,) = g.charts
        assert (type(c), c.t0, c.t1, c.a, c.b) == (EllipticChart, ref.t0, ref.t1, ref.a, ref.b)
        assert np.array_equal(c.center, ref.center)
        assert g.corners == anchors
        assert g.chart_scales == (arc_length(ref, ref.t0, ref.t1) / (ref.t1 - ref.t0),)
        e = make_geometry("ellipse", scale, 1.0)
        assert (e.charts[0].a, e.charts[0].b, e.corners, e.chart_scales) == (c.a, c.b, g.corners,
                                                                            g.chart_scales)


def _arc_length_loop(chart, t0, t1):
    """The arc-length rule one piece at a time: composite 16-point Gauss on
    pieces of at most 0.25 of the parameter."""
    rule = gauss_rule(16)
    edges = np.linspace(t0, t1, max(1, int(np.ceil((t1 - t0) / 0.25))) + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        speed = np.linalg.norm(chart.velocity(a + (b - a) * rule.nodes), axis=-1)
        total += (b - a) * np.dot(rule.weights, speed)
    return total


@pytest.mark.parametrize("kind", ["square", "circle", "ellipse"])
def test_batched_arc_lengths_match_piecewise_loop(kind):
    # intervals from 1e-12 of a chart up to the whole chart (26 pieces on
    # the ellipse); measured worst 6e-16
    rng = np.random.default_rng(20261018)
    for c in make_geometry(kind, 0.5, 2.0).charts:
        t0 = rng.uniform(c.t0, c.t1, 300)
        t1 = np.minimum(t0 + (c.t1 - c.t0) * 10.0 ** rng.uniform(-12, 0, 300), c.t1)
        t0, t1 = np.r_[t0, c.t0], np.r_[t1, c.t1]
        got = arc_lengths(c, t0, t1)
        ref = np.array([_arc_length_loop(c, a, b) for a, b in zip(t0, t1)])
        assert np.abs(got / ref - 1).max() <= 1e-15
        assert [arc_length(c, a, b) for a, b in zip(t0[:20], t1[:20])] == list(got[:20])
