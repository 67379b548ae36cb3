"""Conforming partitions of a closed curve into panels.

Panels are parameter sub-intervals of the geometry charts, kept in cyclic
order.  A ``Mesh`` holds only what refinement decides, one array entry per
panel: the chart id, the end parameters t0 and t1 and the normalized size
below; the arc lengths and end points are derived from these once per mesh.
All are read-only, so a cached mesh cannot be changed under its other
holders.  Refinement, closure and every caller work on these arrays;
``Mesh.panels`` reads them back as (chart, t0, t1, length) records, one
per panel.

Refinement bisects the panels of a boolean mask at the parameter midpoint
as one array operation, and raises where that midpoint is not a float
strictly inside the panel; a uniform K-mesh property (neighbouring sizes
within a factor 2) is enforced by recursive closure bisections after every
local refinement.  The rounds read only the charts, the parameters and the
normalized sizes, so no arc length is computed for a mesh the rounds pass
through.

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
point differences inside and between neighbouring panels.  All three
evaluate the charts through ``_per_chart``, one call per run of consecutive
panels on one chart as ``chart_runs`` lists them; so does ``Mesh.length``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import Geometry, arc_lengths

# neighbour size-ratio cap for the closure; the tiny slack only matters
# across a junction of two charts with different average speeds
KMESH_RATIO = 2.0
_RATIO_CAP = KMESH_RATIO * (1.0 + 1e-9)


class Panel(NamedTuple):
    """One panel of a mesh, read from its arrays by ``Mesh.panels``."""

    chart: int
    t0: float
    t1: float
    length: float       # arc length |T|


@dataclass(frozen=True, eq=False)
class Mesh:
    """Panels in cyclic order, one array entry per panel.  Meshes are cached
    and shared, so the arrays, ``length`` and ``ends`` included, are made
    read-only."""

    geometry: Geometry
    chart: np.ndarray       # chart id
    t0: np.ndarray          # start parameter
    t1: np.ndarray          # end parameter
    qlength: np.ndarray     # speed-normalized size: chart unit times 2**-bisections

    def __post_init__(self):
        for a in (self.chart, self.t0, self.t1, self.qlength):
            a.flags.writeable = False

    @property
    def n_panels(self):
        return self.chart.size

    @property
    def panels(self):
        """The panels as (chart, t0, t1, length) records."""
        return tuple(map(Panel, self.chart.tolist(), self.t0, self.t1, self.length))

    @cached_property
    def length(self):
        """The panels' arc lengths |T| (P,), once per mesh."""
        length = _per_chart(self.geometry, self.chart, arc_lengths, self.t0, self.t1)
        length.flags.writeable = False
        return length

    @cached_property
    def ends(self):
        """The panels' start and end points (P, 2, 2), once per mesh."""
        ends = panel_samples(self, [0.0, 1.0])[0]
        ends.flags.writeable = False
        return ends

    @property
    def h_min(self):
        return self.length.min()

    @property
    def h_max(self):
        return self.length.max()

    def total_length(self):
        return self.length.sum()


def panel_samples(m: Mesh, unit_nodes):
    """Reference nodes in [0, 1] mapped onto every panel, t = t0 + (t1 - t0) x.

    Returns the curve points (P, n, 2), the chart speeds |chi'(t)| (P, n)
    from ``panel_speeds`` and the parameter lengths t1 - t0 (P,).  A point
    is the panel's start point plus the chord chi(t) - chi(t0), so it does
    not depend on where the chart's parameter interval sits, only on the
    offset of the panel inside it.
    """
    start = _per_chart(m.geometry, m.chart, lambda c, t: c.point(t), m.t0)[:, None]
    speed, dt = panel_speeds(m, unit_nodes)
    return start + panel_chords(m, 0.0, unit_nodes), speed, dt


def panel_speeds(m: Mesh, unit_nodes):
    """The chart speeds |chi'(t)| (P, n) at t = t0 + (t1 - t0) x for the
    reference nodes x, and the parameter lengths t1 - t0 (P,); for the
    integrals that need the measure but no points."""
    dt = m.t1 - m.t0
    return _per_chart(m.geometry, m.chart, lambda c, t: c.speed(t),
                      m.t0[:, None] + dt[:, None] * np.asarray(unit_nodes)), dt


def panel_chords(m: Mesh, anchor, step):
    """chi(t + h) - chi(t) on every panel, shape (P, n, 2), for
    t = t0 + (t1 - t0) anchor and h = (t1 - t0) step.

    ``anchor`` and ``step`` are reference coordinates that broadcast to
    (n,).  The chord comes from the chart's cancellation-free form, so a
    point pair inside a panel of parameter length 1e-9 keeps its distance
    to full relative accuracy.
    """
    dt = (m.t1 - m.t0)[:, None]
    return _per_chart(m.geometry, m.chart, lambda c, t, h: c.chord(t, h),
                      *np.broadcast_arrays(m.t0[:, None] + dt * np.asarray(anchor),
                                           dt * np.asarray(step)))


def chart_runs(chart):
    """(chart, first, stop) of every run of equal entries of the chart ids
    ``chart``; a mesh's ``chart`` in chart order has one run per chart."""
    cuts = [0, *(np.flatnonzero(np.diff(chart)) + 1), chart.size]
    return [(int(chart[a]), a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def _per_chart(g: Geometry, chart, f, *args):
    """f(the chart, rows...) on the rows of ``args`` of every run of the
    chart ids ``chart``, one call per run, concatenated in order."""
    return np.concatenate([f(g.charts[c], *(x[a:b] for x in args))
                           for c, a, b in chart_runs(chart)])


def _midpoint(t0, t1):
    """The float midpoint of [t0, t1] at which a panel is bisected, and
    whether it lies strictly inside; for arrays or floats."""
    mid = 0.5 * (t0 + t1)
    return mid, (t0 < mid) & (mid < t1)


def _bisect(m: Mesh, split) -> Mesh:
    """The mesh with every panel where the mask ``split`` holds replaced by
    its two halves; each half gets exactly half of its parent's normalized
    size.  A panel whose float midpoint is not strictly inside it raises."""
    mid, inside = _midpoint(m.t0[split], m.t1[split])
    flat = np.flatnonzero(split)[~inside]
    if flat.size:
        i = flat[0]
        raise ValueError(f"cannot bisect the panel [{float(m.t0[i])!r}, {float(m.t1[i])!r}] of "
                         f"chart {m.chart[i]}: its midpoint is not a float between its end points")
    reps = 1 + split
    chart, t0, t1, q = (np.repeat(a, reps) for a in (m.chart, m.t0, m.t1, m.qlength))
    left = (np.cumsum(reps) - 2)[split]       # new index of each split panel's left half
    t1[left] = t0[left + 1] = mid
    halves = np.flatnonzero(np.repeat(split, reps))   # both halves, in mesh order
    q[halves] *= 0.5
    return Mesh(m.geometry, chart, t0, t1, q)


def _kmesh_close(m: Mesh) -> Mesh:
    """Bisect, in sweeps until none is left, every panel larger than _RATIO_CAP
    times a cyclic neighbour; both are read from one padded copy of ``qlength``."""
    for _ in range(10000):
        q = np.concatenate((m.qlength[-1:], m.qlength, m.qlength[:1]))
        split = q[1:-1] > _RATIO_CAP * np.minimum(q[:-2], q[2:])
        if not split.any():
            return m
        m = _bisect(m, split)
    raise RuntimeError("K-mesh closure did not terminate")


def _chart_edges(g: Geometry, per_chart: int) -> np.ndarray:
    """The end parameters (n_charts, per_chart + 1) of the initial panels."""
    return np.array([np.linspace(c.t0, c.t1, per_chart + 1) for c in g.charts])


def initial_mesh(g: Geometry, per_chart: int) -> Mesh:
    """Split every chart into equal parameter sub-intervals."""
    if per_chart < 1:
        raise ValueError("initial_mesh: per_chart must be >= 1")
    edges = _chart_edges(g, per_chart)
    q = np.array([(c.t1 - c.t0) / per_chart * s for c, s in zip(g.charts, g.chart_scales)])
    chart = np.repeat(np.arange(g.n_charts), per_chart)
    t0, t1 = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    return _kmesh_close(Mesh(g, chart, t0, t1, np.repeat(q, per_chart)))


def refine(m: Mesh, marked) -> Mesh:
    """Bisect the marked panels (by id, checked) and restore the K-mesh property."""
    ids = np.asarray(list(marked))
    if not ids.size or ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= m.n_panels:
        raise ValueError(f"refine: need panel ids in range({m.n_panels}), got {ids}")
    split = np.zeros(m.n_panels, dtype=bool)
    split[ids] = True
    return _kmesh_close(_bisect(m, split))


def uniform_refine(m: Mesh) -> Mesh:
    """Bisect every panel."""
    return _kmesh_close(_bisect(m, np.ones(m.n_panels, dtype=bool)))


def corner_panels(m: Mesh):
    """Mask (P,) of the panels whose closure touches a corner: one broadcast test of
    every (chart, t) alias of every corner, to 1e-12 of the panel's parameter length."""
    chart, tc = zip(*(alias for corner in m.geometry.corners for alias in corner))
    tol = 1e-12 * (m.t1 - m.t0)
    return ((m.chart[:, None] == chart) & ((m.t0 - tol)[:, None] <= tc)
            & (tc <= (m.t1 + tol)[:, None])).any(axis=1)


def corner_schedule(g: Geometry, k: int, rounds_per_level: int = 4) -> Mesh:
    """Benchmark mesh family: k rounds on the initial partition (2 panels
    per chart on the square, 8 otherwise) that bisect every panel, then
    ``rounds_per_level * k`` rounds that bisect the mask ``corner_panels``.
    h_max halves per level while h_min shrinks like
    2**(-(1+rounds_per_level)*k) up to closure effects; rounds_per_level = 0
    gives the uniform family."""
    if k < 1:
        raise ValueError("corner_schedule: k must be >= 1")
    m = initial_mesh(g, _initial_per_chart(g))
    for _ in range(k):
        m = uniform_refine(m)
    for _ in range(rounds_per_level * k):
        m = _kmesh_close(_bisect(m, corner_panels(m)))
    return m


def _initial_per_chart(g: Geometry) -> int:
    return 2 if g.kind == "square" else 8


def deepest_level(g: Geometry, levels: int, rounds_per_level: int = 4) -> int:
    """The deepest level, at most ``levels``, that ``corner_schedule(g, k,
    rounds_per_level)`` can build, found without building a mesh.

    A level bisects each initial panel at an anchor point (1 +
    rounds_per_level) * k times toward the anchor, uniform rounds and
    corner rounds alike, and these are the smallest panels.  So the float
    midpoint chain of each such panel is replayed through ``_bisect``'s
    ``_midpoint``, until its midpoint is no longer a float strictly inside
    it."""
    edges, per_step = _chart_edges(g, _initial_per_chart(g)), 1 + rounds_per_level
    steps = per_step * levels
    for corner in g.corners:
        for chart, tc in corner:
            e = edges[chart]
            i = int(np.argmin(np.abs(e - tc)))
            for j in (i - 1, i):                   # the panels ending and starting at it
                if not 0 <= j < len(e) - 1:
                    continue
                span, far = [float(e[j]), float(e[j + 1])], int(j == i)
                for done in range(steps):
                    mid, inside = _midpoint(*span)
                    if not inside:
                        steps = done
                        break
                    span[far] = mid
    return steps // per_step


def neighbor_ratios(m: Mesh, normalized: bool = False):
    """Size ratio (>= 1) for every cyclic neighbour pair.

    ``normalized`` selects the speed-normalized sizes that the closure
    enforces; the default reports arc-length ratios.
    """
    a = m.qlength if normalized else m.length
    b = np.roll(a, -1)
    return np.maximum(a, b) / np.minimum(a, b)


def is_conforming(m: Mesh) -> bool:
    """Consecutive panels share exactly one endpoint (allowing chart jumps).

    On one chart the next panel must start exactly where the previous one
    ends: bisection copies its end points, so a shared vertex is one float,
    and a tolerance would accept gaps and overlaps far larger than the
    smallest corner panels.  Across a chart junction (possibly a chart
    gluing back onto itself) the panels must end and start exactly at their
    charts' ends, and the two charts must meet in one point.  Every panel must
    have t1 > t0.
    """
    charts, chart, t0, t1 = m.geometry.charts, m.chart, m.t0, m.t1
    nxt = np.roll(np.arange(m.n_panels), -1)
    inner = (chart == chart[nxt]) & (t1 == t0[nxt])
    junction = ((t1 == np.array([c.t1 for c in charts])[chart])
                & (t0 == np.array([c.t0 for c in charts])[chart])[nxt])
    if not np.all((inner | junction) & (t1 > t0)):
        return False
    return all(np.allclose(charts[chart[i]].point(t1[i]), charts[chart[j]].point(t0[j]),
                           rtol=0, atol=1e-12)
               for i, j in zip(np.flatnonzero(~inner), nxt[~inner]))
