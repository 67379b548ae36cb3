"""Conforming partitions of a closed curve into panels.

Panels are parameter sub-intervals of the geometry charts, kept in cyclic
order.  A ``Mesh`` holds them as arrays with one entry per panel: the chart
id, the end parameters t0 and t1, the arc length and the normalized size
below.  The arrays are read-only once built, so a cached mesh cannot be
changed under its other holders.  Refinement, closure and every caller
work on these arrays; ``Mesh.panels`` reads them back as (chart, t0, t1,
length) records for reports and tests.

Refinement bisects panels at the parameter midpoint, all marked panels as
one array operation, and raises where that midpoint is not a float strictly
inside the panel; a uniform K-mesh property (neighbouring sizes within a
factor 2) is enforced by recursive closure bisections after every local
refinement.

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
panels on one chart as ``chart_runs`` lists them; so do the arc lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    and shared, so the arrays are made read-only."""

    geometry: Geometry
    chart: np.ndarray       # chart id
    t0: np.ndarray          # start parameter
    t1: np.ndarray          # end parameter
    length: np.ndarray      # arc length |T|
    qlength: np.ndarray     # speed-normalized size: chart unit times 2**-bisections

    def __post_init__(self):
        for a in (self.chart, self.t0, self.t1, self.length, self.qlength):
            a.flags.writeable = False

    @property
    def n_panels(self):
        return self.chart.size

    @property
    def panels(self):
        """The panels as (chart, t0, t1, length) records."""
        return tuple(map(Panel, self.chart.tolist(), self.t0, self.t1, self.length))

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
    start = _per_chart(m, "point", m.t0)[:, None]
    speed, dt = panel_speeds(m, unit_nodes)
    return start + panel_chords(m, 0.0, unit_nodes), speed, dt


def panel_speeds(m: Mesh, unit_nodes):
    """The chart speeds |chi'(t)| (P, n) at t = t0 + (t1 - t0) x for the
    reference nodes x, and the parameter lengths t1 - t0 (P,); for the
    integrals that need the measure but no points."""
    dt = m.t1 - m.t0
    return _per_chart(m, "speed", m.t0[:, None] + dt[:, None] * np.asarray(unit_nodes)), dt


def panel_chords(m: Mesh, anchor, step):
    """chi(t + h) - chi(t) on every panel, shape (P, n, 2), for
    t = t0 + (t1 - t0) anchor and h = (t1 - t0) step.

    ``anchor`` and ``step`` are reference coordinates that broadcast to
    (n,).  The chord comes from the chart's cancellation-free form, so a
    point pair inside a panel of parameter length 1e-9 keeps its distance
    to full relative accuracy.
    """
    dt = (m.t1 - m.t0)[:, None]
    return _per_chart(m, "chord", *np.broadcast_arrays(m.t0[:, None] + dt * np.asarray(anchor),
                                                       dt * np.asarray(step)))


def chart_runs(chart):
    """(chart, first, stop) of every run of equal entries of the chart ids
    ``chart``; a mesh's ``chart`` in chart order has one run per chart."""
    cuts = [0, *(np.flatnonzero(np.diff(chart)) + 1), chart.size]
    return [(int(chart[a]), a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def _per_chart(m: Mesh, method, *args):
    """The chart method ``method`` on the panel rows of ``args``, one call
    per chart run."""
    return np.concatenate([getattr(m.geometry.charts[c], method)(*(x[a:b] for x in args))
                           for c, a, b in chart_runs(m.chart)])


def _arc_lengths(g: Geometry, chart, t0, t1):
    """Arc lengths of the intervals [t0[i], t1[i]] of the charts chart[i],
    in mesh order; one batched ``arc_lengths`` call per chart run."""
    return np.concatenate([arc_lengths(g.charts[c], t0[a:b], t1[a:b])
                           for c, a, b in chart_runs(chart)])


def _bisect(m: Mesh, split) -> Mesh:
    """The mesh with every panel where the mask ``split`` holds replaced by
    its two halves; each half gets exactly half of its parent's normalized
    size.  A panel whose float midpoint is not strictly inside it raises."""
    mid = 0.5 * (m.t0[split] + m.t1[split])
    flat = np.flatnonzero(split)[(mid <= m.t0[split]) | (m.t1[split] <= mid)]
    if flat.size:
        i = flat[0]
        raise ValueError(f"cannot bisect the panel [{float(m.t0[i])!r}, {float(m.t1[i])!r}] of "
                         f"chart {m.chart[i]}: its midpoint is not a float between its end points")
    reps = 1 + split
    chart, t0, t1, length, q = (np.repeat(a, reps) for a in
                                (m.chart, m.t0, m.t1, m.length, m.qlength))
    left = (np.cumsum(reps) - 2)[split]       # new index of each split panel's left half
    t1[left] = t0[left + 1] = mid
    halves = np.flatnonzero(np.repeat(split, reps))   # both halves, in mesh order
    q[halves] *= 0.5
    length[halves] = _arc_lengths(m.geometry, chart[halves], t0[halves], t1[halves])
    return Mesh(m.geometry, chart, t0, t1, length, q)


def _kmesh_close(m: Mesh) -> Mesh:
    # repeated sweeps: bisect every panel larger than the cap times one of
    # its two cyclic neighbours until the cap holds everywhere
    for _ in range(10000):
        q = m.qlength
        split = q > _RATIO_CAP * np.minimum(np.roll(q, 1), np.roll(q, -1))
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
    return _kmesh_close(Mesh(g, chart, t0, t1, _arc_lengths(g, chart, t0, t1),
                             np.repeat(q, per_chart)))


def refine(m: Mesh, marked) -> Mesh:
    """Bisect the marked panels (by id) and restore the K-mesh property."""
    marked = set(marked)
    if not marked:
        raise ValueError("refine: marked set is empty")
    if not marked <= set(range(m.n_panels)):
        raise ValueError("refine: invalid panel ids")
    split = np.zeros(m.n_panels, dtype=bool)
    split[list(marked)] = True
    return _kmesh_close(_bisect(m, split))


def uniform_refine(m: Mesh) -> Mesh:
    """Bisect every panel."""
    return refine(m, range(m.n_panels))


def corner_panels(m: Mesh):
    """Ids of the panels whose closure touches a geometry corner point."""
    tol = 1e-12 * (m.t1 - m.t0)
    hit = np.zeros(m.n_panels, dtype=bool)
    for corner in m.geometry.corners:
        for ci, tc in corner:
            hit |= (m.chart == ci) & (m.t0 - tol <= tc) & (tc <= m.t1 + tol)
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
    m = initial_mesh(g, _initial_per_chart(g))
    for _ in range(k):
        m = uniform_refine(m)
    for _ in range(rounds_per_level * k):
        m = refine(m, corner_panels(m))
    return m


def _initial_per_chart(g: Geometry) -> int:
    return 2 if g.kind == "square" else 8


def deepest_level(g: Geometry, levels: int, rounds_per_level: int = 4) -> int:
    """The deepest level, at most ``levels``, that ``corner_schedule(g, k,
    rounds_per_level)`` can build, found without building a mesh.

    A level bisects each initial panel at an anchor point (1 +
    rounds_per_level) * k times toward the anchor, uniform rounds and
    corner rounds alike, and these are the smallest panels.  So the float
    midpoint chain of each such panel is replayed as ``_bisect`` computes
    it, until its midpoint is no longer a float strictly inside it."""
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
                    mid = 0.5 * (span[0] + span[1])
                    if not span[0] < mid < span[1]:
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


def dump_mesh(m: Mesh, path):
    """Text dump: one line ``panel_id chart t0 t1 length`` per panel."""
    with open(path, "w") as fh:
        for i, p in enumerate(m.panels):
            fh.write(f"{i} {p.chart} {p.t0:.17g} {p.t1:.17g} {p.length:.17g}\n")
