from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ellipe

from calderon_bench.boundary_operators import _admissible, _coarse_n, _near_field
from calderon_bench.fespace import reference_basis_deriv
from calderon_bench.geometry import make_geometry
from calderon_bench.mesh import initial_mesh, panel_samples, refine
from calderon_bench.quadrature import (LOG_EXTRA_POINTS, _tensor, adaptive_integrate,
                                      gauss_rule, log_rule, pair_rule)

from helpers import adaptive_integrate_2d, corner_space

rng = np.random.RandomState(20240817)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 32, 64])
def test_gauss_rule_basics(n):
    g = gauss_rule(n)
    assert g.nodes.size == n
    assert np.all(g.weights > 0)
    assert abs(g.weights.sum() - 1.0) < 1e-14
    # n Gauss points integrate polynomials up to degree 2n - 1 exactly
    for p in range(2 * n):
        assert abs(np.dot(g.weights, g.nodes ** p) - 1 / (p + 1)) < 1e-13 / (p + 1)


def test_gauss_rule_midpoint_and_cubics():
    g1 = gauss_rule(1)
    assert g1.nodes[0] == pytest.approx(0.5) and g1.weights[0] == pytest.approx(1.0)
    g2 = gauss_rule(2)
    assert np.dot(g2.weights, g2.nodes ** 3) == pytest.approx(0.25, abs=1e-15)
    g16 = gauss_rule(16)
    assert np.dot(g16.weights, g16.nodes ** 15) == pytest.approx(1 / 16, abs=1e-14)


def test_gauss_rule_rejects_out_of_range():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(65)


def test_rules_built_once_and_read_only():
    # a second call returns the cached rule itself, so no caller may write
    # into its arrays
    assert gauss_rule(12) is gauss_rule(12)
    for relation in ("identical", "adjacent"):
        assert pair_rule(relation, 12) is pair_rule(relation, 12)
    rules = [gauss_rule(7)] + [pair_rule(r, 8) for r in ("identical", "adjacent")]
    arrays = [rules[0].nodes, rules[0].weights]
    arrays += [a for r in rules[1:] for a in (r.tnodes, r.unodes, r.weights, r.offsets)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_pair_rule_rejects_bad_input():
    with pytest.raises(ValueError, match="base_n"):
        pair_rule("identical", 3)
    for relation in ("diagonal", "separated"):
        with pytest.raises(ValueError, match="unknown relation"):
            pair_rule(relation, 8)


def test_identical_rule_log_kernel():
    # int_0^1 int_0^1 log|t-u| = -3/2 (closed form); t - u from the rule's
    # exact offsets, since subtracting the nodes cancels near the diagonal
    r = pair_rule("identical", 16)
    assert np.allclose(r.offsets, r.tnodes - r.unodes, rtol=0, atol=1e-15)
    val = np.dot(r.weights, np.log(np.abs(r.offsets)))
    assert abs(val / -1.5 - 1) < 1e-12


def test_adjacent_rule_log_kernel():
    # panels [0,1] and [1,2]: int int log(u+1-t) = 2 ln 2 - 3/2, with
    # 1 - t from the rule's exact offsets
    r = pair_rule("adjacent", 16)
    assert np.allclose(r.offsets, 1.0 - r.tnodes, rtol=0, atol=1e-15)
    val = np.dot(r.weights, np.log(r.offsets + r.unodes))
    exact = 2 * np.log(2) - 1.5
    assert abs(val / exact - 1) < 1e-12
    oracle = adaptive_integrate_2d(
        lambda t, u: np.log(np.abs(1.0 + u - t)), ((0, 1), (0, 1)), tol=1e-11
    )
    assert abs(val / oracle - 1) < 1e-9


def test_log_rule_integrates_polynomials_times_log():
    # the singular direction of the pair rules at the default quad_n
    r = log_rule(12 + LOG_EXTRA_POINTS)
    assert np.all(r.weights > 0) and np.all((r.nodes > 0) & (r.nodes < 1))
    for k in range(8):
        assert abs(np.dot(r.weights, r.nodes ** k) - 1 / (k + 1)) <= 1e-13, k
        assert abs(np.dot(r.weights, r.nodes ** k * np.log(r.nodes))
                   + 1 / (k + 1) ** 2) <= 1e-13, k


def test_pair_rule_sizes():
    # log rule along each singular direction, Gauss along the smooth one
    n = 12 + LOG_EXTRA_POINTS
    assert pair_rule("identical", 12).weights.size == 2 * n * n
    assert pair_rule("adjacent", 12).weights.size == 2 * n * 12
    for rel in ("identical", "adjacent"):
        assert abs(pair_rule(rel, 12).weights.sum() - 1) < 1e-13, rel


@pytest.mark.parametrize("n", [4, 8, 12, 20])
def test_identical_rule_is_two_mirror_halves(n):
    """The near field evaluates the first half only and mirrors its block:
    the second half must be (u, t, w, -d) of the first, bit for bit."""
    r = pair_rule("identical", n)
    h = r.weights.size // 2
    assert np.array_equal(r.tnodes[h:], r.unodes[:h])
    assert np.array_equal(r.unodes[h:], r.tnodes[:h])
    assert np.array_equal(r.weights[h:], r.weights[:h])
    assert np.array_equal(r.offsets[h:], -r.offsets[:h])


@pytest.mark.parametrize("n", [4, 8, 12, 20])
def test_adjacent_offsets_and_unodes_share_one_node_set(n):
    """The near field evaluates both vertex chord families on one node set:
    the log nodes r and the products r v, 260 values at n = 12 for the
    480 points."""
    r = pair_rule("adjacent", n)
    nodes = np.unique(r.offsets)
    assert np.array_equal(nodes, np.unique(r.unodes))
    lg = n + LOG_EXTRA_POINTS
    assert nodes.size == lg + lg * n


def test_adaptive_basics():
    assert adaptive_integrate(lambda x: np.ones_like(x), (0, 1)) == pytest.approx(1.0)
    assert adaptive_integrate(np.log, (0.0, 1.0), tol=1e-11) == pytest.approx(-1.0, abs=1e-10)


def test_adaptive_ellipse_arc_length():
    g = make_geometry("ellipse", 0.5, 2.0)
    c = g.charts[0]
    val = adaptive_integrate(
        lambda t: np.linalg.norm(c.velocity(t), axis=-1), (c.t0, c.t1), tol=1e-12
    )
    series = 4 * 0.25 * ellipe(1 - (0.125 / 0.25) ** 2)
    assert abs(val / series - 1) < 1e-10


# ---------------------------------------------------------------------------
# certification of the pair rules against the adaptive oracle on realistic
# panel-pair configurations drawn from locally refined meshes


def _random_meshes():
    out = []
    for kind in ("square", "ellipse"):
        g = make_geometry(kind, 0.5, 2.0)
        m = initial_mesh(g, 8 if kind == "ellipse" else 2)
        for _ in range(3):
            marked = rng.choice(m.n_panels, size=max(1, m.n_panels // 4), replace=False)
            m = refine(m, marked.tolist())
        out.append(m)
    return out


def _pair_integrand(m, p, q):
    """log-kernel integrand over the unit square for panels p, q, including
    speeds and interval lengths (the full change of variables)."""
    g = m.geometry
    pa, pb = m.panels[p], m.panels[q]
    ca, cb = g.charts[pa.chart], g.charts[pb.chart]
    dta, dtb = pa.t1 - pa.t0, pb.t1 - pb.t0

    def f(t, u):
        ta = pa.t0 + dta * np.asarray(t)
        tb = pb.t0 + dtb * np.asarray(u)
        x, y = ca.point(ta), cb.point(tb)
        r2 = ((x - y) ** 2).sum(axis=-1)
        sp = np.linalg.norm(ca.velocity(ta), axis=-1) * np.linalg.norm(
            cb.velocity(tb), axis=-1
        )
        return 0.5 * np.log(np.maximum(r2, 1e-300)) * sp * dta * dtb

    return f


def _rule_value(rule, f):
    return np.dot(rule.weights, f(rule.tnodes, rule.unodes))


def _tensor_gauss(n):
    """The n-point tensor Gauss rule of the separated pairs, as a pair rule
    without offsets."""
    t, u, w = _tensor(gauss_rule(n), gauss_rule(n))
    return SimpleNamespace(tnodes=t, unodes=u, weights=w)


_INNER = gauss_rule(20)


def _composite_line(f_of_t, lo, hi, pieces=4):
    """Fixed composite Gauss for an analytic integrand; noise-free so the
    outer adaptive pass sees clean values."""
    edges = np.linspace(lo, hi, pieces + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += (b - a) * np.dot(_INNER.weights, f_of_t(a + (b - a) * _INNER.nodes))
    return total


def _oracle_separated(f, tol=3e-11):
    def outer(us):
        us = np.atleast_1d(us)
        return np.array(
            [_composite_line(lambda t, u=u: f(t, np.full_like(t, u)), 0.0, 1.0)
             for u in us]
        )

    return adaptive_integrate(outer, (0.0, 1.0), tol=tol)


def _oracle_difference(f, pieces, tol=3e-11):
    """Oracle for f(x, d) whose singularity sits at d = 0: d runs
    adaptively over each piece (d0, d1, lo, hi), x over [lo(d), hi(d)] by a
    fixed composite Gauss rule, on which the integrand is analytic."""
    total = 0.0
    for d0, d1, lo, hi in pieces:
        def gfun(ds, lo=lo, hi=hi):
            ds = np.atleast_1d(ds)
            out = np.empty(ds.size)
            for i, d in enumerate(ds):
                a, b = lo(d), hi(d)
                out[i] = (_composite_line(lambda x, d=d: f(x, np.full_like(x, d)), a, b)
                          if b > a else 0.0)
            return out

        total += adaptive_integrate(gfun, (d0, d1), tol=tol)
    return total


# identical panels in (t, d = u - t); adjacent panels in (s, sigma) with
# s = 1 - t on the first panel and sigma = s + u the distance to the corner
_IDENTICAL_PIECES = ((-1.0, 0.0, lambda d: -d, lambda d: 1.0),
                     (0.0, 1.0, lambda d: 0.0, lambda d: 1.0 - d))
_ADJACENT_PIECES = ((0.0, 1.0, lambda g: 0.0, lambda g: g),
                    (1.0, 2.0, lambda g: g - 1.0, lambda g: 1.0))


def _oracle_identical(f, tol=3e-11):
    # difference variable d = u - t: the inner t-integral is analytic while
    # the singularity becomes a 1-D endpoint singularity at d = 0
    return _oracle_difference(lambda t, d: f(t, t + d), _IDENTICAL_PIECES, tol)


def test_pair_rules_match_adaptive_oracle():
    meshes = _random_meshes()
    rules = {rel: pair_rule(rel, 12) for rel in ("adjacent", "identical")}
    rules["separated"] = _tensor_gauss(12)
    checked = 0
    for m in meshes:
        P = m.n_panels
        # separated pairs (cyclic distance >= 2)
        count = 0
        while count < 35:
            p, q = rng.randint(0, P, size=2)
            if min((p - q) % P, (q - p) % P) < 2:
                continue
            f = _pair_integrand(m, p, q)
            val = _rule_value(rules["separated"], f)
            ref = _oracle_separated(f)
            assert abs(val - ref) <= 1e-9 * max(abs(ref), 1e-6), (m.geometry.kind, p, q)
            count += 1
            checked += 1
        # adjacent pairs (p, p+1): singular corner (1, 0)
        for p in rng.choice(P, size=10, replace=False):
            q = (p + 1) % P
            f = _pair_integrand(m, p, q)
            val = _rule_value(rules["adjacent"], f)
            ref = adaptive_integrate_2d(f, ((0, 1), (0, 1)), tol=1e-11)
            assert abs(val - ref) <= 1e-9 * max(abs(ref), 1e-6), (m.geometry.kind, p)
            checked += 1
        # identical pairs
        for p in rng.choice(P, size=5, replace=False):
            f = _pair_integrand(m, int(p), int(p))
            val = _rule_value(rules["identical"], f)
            ref = _oracle_identical(f)
            assert abs(val - ref) <= 1e-9 * max(abs(ref), 1e-6), (m.geometry.kind, p)
            checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# accuracy budget at the most graded corner (level 6, h_min/h_max ~ 6e-8):
# the program's pair values against the difference-variable oracle, with
# the oracle's distances also taken from chords, so neither side loses
# digits to absolute coordinates


_K = -1.0 / (4.0 * np.pi)   # -log(r)/(2 pi) as this times log(r^2)


def _panel_maps(s, p):
    pan = s.mesh.panels[p]
    chart = s.mesh.geometry.charts[pan.chart]
    speed = lambda t: np.linalg.norm(chart.velocity(t), axis=-1)   # noqa: E731
    return pan, chart, speed, pan.t1 - pan.t0


def _identical_oracle(s, p, weight, arc):
    """Kernel times weight(t, u), times the arc-length measure if ``arc``."""
    pan, ch, sp, dt = _panel_maps(s, p)

    def f(t, d):
        r = ch.chord(pan.t0 + dt * t, dt * d)
        val = _K * np.log((r * r).sum(-1)) * weight(t, t + d)
        return val * sp(pan.t0 + dt * t) * sp(pan.t0 + dt * (t + d)) * dt * dt if arc else val

    return _oracle_difference(f, _IDENTICAL_PIECES)


def _adjacent_oracle(s, p, weight, arc):
    pa, ca, spa, dta = _panel_maps(s, p)
    pb, cb, spb, dtb = _panel_maps(s, (p + 1) % s.mesh.n_panels)

    def f(sv, sigma):
        u = sigma - sv
        r = ca.chord(pa.t1, -dta * sv) - cb.chord(pb.t0, dtb * u)
        val = _K * np.log((r * r).sum(-1)) * weight(1.0 - sv, u)
        return val * spa(pa.t1 - dta * sv) * spb(pb.t0 + dtb * u) * dta * dtb if arc else val

    return _oracle_difference(f, _ADJACENT_PIECES)


def _separated_oracle(s, p):
    """Panels p and p+2 through the chord of the panel p+1 between them."""
    P = s.mesh.n_panels
    pa, ca, spa, dta = _panel_maps(s, p)
    pm, cm, _, dtm = _panel_maps(s, (p + 1) % P)
    pb, cb, spb, dtb = _panel_maps(s, (p + 2) % P)
    gap = cm.chord(pm.t0, dtm)

    def f(t, u):
        r = ca.chord(pa.t1, -dta * (1.0 - t)) - gap - cb.chord(pb.t0, dtb * u)
        return (_K * np.log((r * r).sum(-1)) * spa(pa.t1 - dta * (1.0 - t))
                * spb(pb.t0 + dtb * u) * dta * dtb)

    return _oracle_separated(f)


def _far_field_pair(s, p, q, quad_n=12):
    """The far field's tensor-Gauss value of the pair, from its samples, at
    the order the program's pair classification gives it."""
    g = gauss_rule(_coarse_n(quad_n) if _admissible(s.mesh, p, q) else quad_n)
    pts, speed, dt = panel_samples(s.mesh, g.nodes)
    r2 = ((pts[p][:, None, :] - pts[q][None, :, :]) ** 2).sum(-1)
    wa, wb = g.weights * speed[p] * dt[p], g.weights * speed[q] * dt[q]
    return wa @ (_K * np.log(r2)) @ wb


# measured at the four level-6 anchors: the identical and adjacent pairs
# agree with the oracle to 7e-12 on both curves.  The nearest-separated
# pair (a close pair: 12-point tensor Gauss across a gap of one panel)
# agrees to 9e-12, except across the ellipse's chart junction, where the
# far field's absolute points put chi(fl(2 pi)) about 3e-17 away from
# chi(0) across a 9e-11 gap: 7.8e-9 there
NEAR_BUDGET = 1e-10
SEPARATED_BUDGET = 1e-8


@pytest.mark.parametrize("kind, ell", [("square", 3), ("ellipse", 1)])
def test_level6_corner_pairs_within_budget(kind, ell):
    s = corner_space(kind, 6, ell)
    P = s.mesh.n_panels
    rows, cols, val, der = _near_field(s, 12)
    D = lambda a: (lambda x: reference_basis_deriv(ell, x)[a])   # noqa: E731
    one = lambda t, u: 1.0                                        # noqa: E731
    for (chart, t), *_ in s.mesh.geometry.corners:
        # panel c starts at the anchor; (c, c), (b, c) and (b, c+1) are the
        # identical, adjacent and nearest-separated pairs at its vertex
        c = next(i for i, p in enumerate(s.mesh.panels) if p.chart == chart and p.t0 == t)
        b = (c - 1) % P
        id_val, id_der = (x[c] + x[c].T for x in (val, der))   # the half X gives X + X^T
        checks = {
            # whole pair integrals: the basis is a partition of unity
            "identical": (id_val.sum(), _identical_oracle(s, c, one, True)),
            "adjacent": (val[P + b].sum(), _adjacent_oracle(s, b, one, True)),
            # derivative pairing of the corner vertex's own basis functions
            "identical d": (id_der[0, 0], _identical_oracle(
                s, c, lambda t, u: D(0)(t) * D(0)(u), False)),
            "adjacent d": (der[P + b][ell, 0], _adjacent_oracle(
                s, b, lambda t, u: D(ell)(t) * D(0)(u), False)),
        }
        for name, (got, ref) in checks.items():
            assert abs(got / ref - 1) <= NEAR_BUDGET, (kind, t, name, got, ref)
        assert not _admissible(s.mesh, b, (c + 1) % P), (kind, t)
        got, ref = _far_field_pair(s, b, (c + 1) % P), _separated_oracle(s, b)
        assert abs(got / ref - 1) <= SEPARATED_BUDGET, (kind, t, got, ref)
