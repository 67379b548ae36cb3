"""Conforming partitions of a closed curve into panels.

Panels are parameter sub-intervals of the geometry charts, kept in cyclic
order.  Refinement bisects panels at the parameter midpoint; a uniform
K-mesh property (neighbouring sizes within a factor 2) is enforced by
recursive closure bisections after every local refinement.

The closure compares speed-normalized sizes: an initial panel gets its
chart's parameter length over the panel count times the chart's average
speed, and each half of a bisection gets exactly half of its parent's size.
Neighbour ratios on a chart are therefore exact powers of two, even where
the bisected parameter lengths round (the ellipse's anchors pi/2, pi and
3 pi/2 are not dyadic), so a graded profile sitting at ratio 2 is stable
and a mirror-symmetric marking gives a mirror-symmetric mesh.  An
arc-length threshold would let curvature wobble push at-cap pairs over the
limit and unwind the entire grading.  On constant-speed charts (square,
circle) the normalized and arc-length ratios coincide, so arc ratios obey
the factor 2 to rounding; on the ellipse they obey 2 * (1 + O(h)).

``panel_samples`` is the one place where reference nodes are mapped onto
panels; assembly, the Gram matrices and the duals all integrate through it.
``panel_speeds`` is its speed path on its own, for the integrals that need
the arc measure but no points.  ``panel_chords`` gives the near field its
point differences inside and between neighbouring panels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Geometry, arc_lengths

# neighbour size-ratio cap for the closure; the tiny slack only matters
# across a junction of two charts with different average speeds
KMESH_RATIO = 2.0
_RATIO_CAP = KMESH_RATIO * (1.0 + 1e-9)


@dataclass(frozen=True)
class Panel:
    chart: int
    t0: float
    t1: float
    length: float       # arc length |T|
    qlength: float      # speed-normalized size: chart unit times 2**-bisections
    generation: int


@dataclass(frozen=True)
class Mesh:
    geometry: Geometry
    panels: tuple

    @property
    def n_panels(self):
        return len(self.panels)

    @property
    def h_min(self):
        return min(p.length for p in self.panels)

    @property
    def h_max(self):
        return max(p.length for p in self.panels)

    def total_length(self):
        return sum(p.length for p in self.panels)


def panel_samples(m: Mesh, unit_nodes):
    """Reference nodes in [0, 1] mapped onto every panel, t = t0 + (t1 - t0) x.

    Returns the curve points (P, n, 2), the chart speeds |chi'(t)| (P, n)
    from ``panel_speeds`` and the parameter lengths t1 - t0 (P,).  A point
    is the panel's start point plus the chord chi(t) - chi(t0), so it does
    not depend on where the chart's parameter interval sits, only on the
    offset of the panel inside it.  Each run of consecutive panels on one
    chart is evaluated in one call, so a mesh in chart order evaluates each
    chart once.
    """
    t0, dt = _panel_params(m.panels)
    h = dt * np.asarray(unit_nodes)
    points = np.empty(h.shape + (2,))
    for c, run in _chart_runs(m.panels):
        chart = m.geometry.charts[c]
        points[run] = chart.point(t0[run]) + chart.chord(t0[run], h[run])
    return points, panel_speeds(m, unit_nodes)[0], dt[:, 0]


def panel_speeds(m: Mesh, unit_nodes):
    """The chart speeds |chi'(t)| (P, n) at t = t0 + (t1 - t0) x for the
    reference nodes x, and the parameter lengths t1 - t0 (P,); for the
    integrals that need the measure but no points."""
    t0, dt = _panel_params(m.panels)
    t = t0 + dt * np.asarray(unit_nodes)
    speed = np.empty(t.shape)
    for c, run in _chart_runs(m.panels):
        speed[run] = m.geometry.charts[c].speed(t[run])
    return speed, dt[:, 0]


def panel_chords(m: Mesh, anchor, step):
    """chi(t + h) - chi(t) on every panel, shape (P, n, 2), for
    t = t0 + (t1 - t0) anchor and h = (t1 - t0) step.

    ``anchor`` and ``step`` are reference coordinates that broadcast to
    (n,).  The chord comes from the chart's cancellation-free form, so a
    point pair inside a panel of parameter length 1e-9 keeps its distance
    to full relative accuracy.
    """
    t0, dt = _panel_params(m.panels)
    t, h = np.broadcast_arrays(t0 + dt * np.asarray(anchor), dt * np.asarray(step))
    out = np.empty(t.shape + (2,))
    for c, run in _chart_runs(m.panels):
        out[run] = m.geometry.charts[c].chord(t[run], h[run])
    return out


def _panel_params(panels):
    """Start parameters and parameter lengths as (P, 1) columns."""
    t0 = np.array([p.t0 for p in panels])[:, None]
    return t0, np.array([p.t1 for p in panels])[:, None] - t0


def _chart_runs(panels):
    """(chart id, slice) of each run of consecutive panels on one chart."""
    chart = np.array([p.chart for p in panels], dtype=int)
    cuts = [0, *(np.flatnonzero(np.diff(chart)) + 1), len(panels)]
    return [(chart[a], slice(a, b)) for a, b in zip(cuts[:-1], cuts[1:])]


def _chart_panels(g, chart, t0, t1, qlength, generation):
    """Panels over the intervals [t0[i], t1[i]] of one chart, with their arc
    lengths from one batched call."""
    lengths = arc_lengths(g.charts[chart], t0, t1)
    return [Panel(chart, a, b, h, q, k)
            for a, b, h, q, k in zip(t0, t1, lengths, qlength, generation)]


def _bisect_marked(g, panels, marked):
    """The panels with every marked one replaced by its two halves; the
    halves' arc lengths come from one batched call per chart, and each half
    gets exactly half of its parent's normalized size."""
    halves, marked = {}, sorted(marked)
    for c in {panels[i].chart for i in marked}:
        ids = [i for i in marked if panels[i].chart == c]
        t0 = np.array([panels[i].t0 for i in ids])
        t1 = np.array([panels[i].t1 for i in ids])
        tm = 0.5 * (t0 + t1)
        q = [0.5 * panels[i].qlength for i in ids] * 2
        gen = [panels[i].generation + 1 for i in ids] * 2
        kids = _chart_panels(g, c, np.concatenate([t0, tm]), np.concatenate([tm, t1]), q, gen)
        halves.update((i, (kids[j], kids[j + len(ids)])) for j, i in enumerate(ids))
    out = []
    for i, p in enumerate(panels):
        out.extend(halves.get(i, (p,)))
    return out


def _kmesh_close(g, panels):
    # repeated sweeps: bisect every panel larger than the cap times one of
    # its two cyclic neighbours until the cap holds everywhere
    for _ in range(10000):
        q = np.array([p.qlength for p in panels])
        limit = _RATIO_CAP * np.minimum(np.roll(q, 1), np.roll(q, -1))
        marked = np.flatnonzero(q > limit)
        if not marked.size:
            return panels
        panels = _bisect_marked(g, panels, marked)
    raise RuntimeError("K-mesh closure did not terminate")


def initial_mesh(g: Geometry, per_chart: int) -> Mesh:
    """Split every chart into equal parameter sub-intervals."""
    if per_chart < 1:
        raise ValueError("initial_mesh: per_chart must be >= 1")
    panels = []
    for ci, c in enumerate(g.charts):
        edges = np.linspace(c.t0, c.t1, per_chart + 1)
        q0 = (c.t1 - c.t0) / per_chart * g.chart_scales[ci]
        panels += _chart_panels(g, ci, edges[:-1], edges[1:], [q0] * per_chart,
                                [0] * per_chart)
    return Mesh(g, tuple(_kmesh_close(g, panels)))


def refine(m: Mesh, marked) -> Mesh:
    """Bisect the marked panels (by id) and restore the K-mesh property."""
    marked = set(marked)
    if not marked:
        raise ValueError("refine: marked set is empty")
    if not marked <= set(range(m.n_panels)):
        raise ValueError("refine: invalid panel ids")
    panels = _bisect_marked(m.geometry, list(m.panels), marked)
    return Mesh(m.geometry, tuple(_kmesh_close(m.geometry, panels)))


def uniform_refine(m: Mesh) -> Mesh:
    """Bisect every panel."""
    return refine(m, range(m.n_panels))


def corner_panels(m: Mesh):
    """Ids of the panels whose closure touches a geometry corner point."""
    chart = np.array([p.chart for p in m.panels])
    t0 = np.array([p.t0 for p in m.panels])
    t1 = np.array([p.t1 for p in m.panels])
    tol = 1e-12 * (t1 - t0)
    hit = np.zeros(m.n_panels, dtype=bool)
    for corner in m.geometry.corners:
        for ci, tc in corner:
            hit |= (chart == ci) & (t0 - tol <= tc) & (tc <= t1 + tol)
    return np.flatnonzero(hit).tolist()


def corner_schedule(g: Geometry, k: int, rounds_per_level: int = 4) -> Mesh:
    """Benchmark mesh family: k uniform bisections of the initial partition
    (2 panels per chart on the square, 8 otherwise), then
    ``rounds_per_level * k`` rounds of bisecting every panel that touches a
    corner point.  h_max halves per level while h_min shrinks like
    2**(-(1+rounds_per_level)*k) up to closure effects; rounds_per_level = 0
    gives the uniform family."""
    if k < 1:
        raise ValueError("corner_schedule: k must be >= 1")
    m = initial_mesh(g, 2 if g.kind == "square" else 8)
    for _ in range(k):
        m = uniform_refine(m)
    for _ in range(rounds_per_level * k):
        m = refine(m, corner_panels(m))
    return m


def neighbor_ratios(m: Mesh, normalized: bool = False):
    """Size ratio (>= 1) for every cyclic neighbour pair.

    ``normalized`` selects the speed-normalized sizes that the closure
    enforces; the default reports arc-length ratios.
    """
    attr = "qlength" if normalized else "length"
    a = np.array([getattr(p, attr) for p in m.panels])
    b = np.roll(a, -1)
    return np.maximum(a, b) / np.minimum(a, b)


def is_conforming(m: Mesh) -> bool:
    """Consecutive panels share exactly one endpoint (allowing chart jumps).

    On one chart the next panel must start exactly where the previous one
    ends: bisection copies its end points, so a shared vertex is one float,
    and a tolerance would accept gaps and overlaps far larger than the
    smallest corner panels.  Across a chart junction (possibly a chart
    gluing back onto itself) the panels must end and start exactly at their
    charts' ends, and the two charts must meet in one point.
    """
    charts = m.geometry.charts
    chart = np.array([p.chart for p in m.panels])
    t0 = np.array([p.t0 for p in m.panels])
    t1 = np.array([p.t1 for p in m.panels])
    nxt = np.roll(np.arange(m.n_panels), -1)
    inner = (chart == chart[nxt]) & (t1 == t0[nxt])
    junction = ((t1 == np.array([c.t1 for c in charts])[chart])
                & (t0 == np.array([c.t0 for c in charts])[chart])[nxt])
    if not np.all(inner | junction):
        return False
    return all(np.allclose(charts[chart[i]].point(t1[i]), charts[chart[j]].point(t0[j]),
                           rtol=0, atol=1e-12)
               for i, j in zip(np.flatnonzero(~inner), nxt[~inner]))


def dump_mesh(m: Mesh, path):
    """Text dump: one line ``panel_id chart t0 t1 length`` per panel."""
    with open(path, "w") as fh:
        for i, p in enumerate(m.panels):
            fh.write(f"{i} {p.chart} {p.t0:.17g} {p.t1:.17g} {p.length:.17g}\n")
