"""Closed curves in R^2 given by piecewise-smooth regular parametrizations.

A geometry is a list of charts over pairwise disjoint parameter intervals,
glued cyclically into a single closed curve.  The chart speed |chi'(t)| is
the one-dimensional Jacobian entering every arc-length integral; the chord
chi(t + h) - chi(t) is evaluated without cancellation, so distances inside
tiny panels keep full relative accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quadrature import adaptive_integrate, gauss_rule

_LEN_RULE = gauss_rule(16)
_MAX_PIECE = 0.25  # composite piece size (parameter units) for arc length


class CoercivityRiskError(ValueError):
    """Geometry too large for the log-kernel single layer operator.

    The single layer operator with kernel -log|x-y|/(2*pi) is positive
    definite only for curves of logarithmic capacity < 1; we enforce
    diameter <= 1, which is sufficient for the shipped shapes.
    """


@dataclass(frozen=True)
class AffineChart:
    t0: float
    t1: float
    p0: np.ndarray
    p1: np.ndarray

    def point(self, t):
        s = (np.asarray(t, dtype=float) - self.t0) / (self.t1 - self.t0)
        return self.p0 + np.multiply.outer(s, self.p1 - self.p0)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        v = (self.p1 - self.p0) / (self.t1 - self.t0)
        return np.broadcast_to(v, t.shape + (2,)).copy()

    def speed(self, t):
        """|chi'(t)|, constant: the same rounding as the norm of velocity."""
        v = (self.p1 - self.p0) / (self.t1 - self.t0)
        return np.full(np.shape(t), np.sqrt(v[0] * v[0] + v[1] * v[1]))

    def chord(self, t, h):
        """chi(t + h) - chi(t) without cancellation: velocity times h."""
        return np.multiply.outer(np.asarray(h, dtype=float),
                                 (self.p1 - self.p0) / (self.t1 - self.t0))


@dataclass(frozen=True)
class EllipticChart:
    """Chart (a cos t, b sin t) + center; a == b gives a circle."""

    t0: float
    t1: float
    a: float
    b: float
    center: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self.center + np.stack(
            [self.a * np.cos(t), self.b * np.sin(t)], axis=-1
        )

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack([-self.a * np.sin(t), self.b * np.cos(t)], axis=-1)

    def speed(self, t):
        """|chi'(t)| without stacking the velocity, to the same rounding."""
        t = np.asarray(t, dtype=float)
        x, y = self.a * np.sin(t), self.b * np.cos(t)
        return np.sqrt(x * x + y * y)

    def chord(self, t, h):
        """chi(t + h) - chi(t) without cancellation, by the half-angle form
        2 sin(h/2) (-a sin(t + h/2), b cos(t + h/2))."""
        t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
        mid, s = t + 0.5 * h, 2.0 * np.sin(0.5 * h)
        return np.stack([-self.a * s * np.sin(mid), self.b * s * np.cos(mid)], axis=-1)


@dataclass(frozen=True)
class Geometry:
    """Closed curve: charts in cyclic order; chart i's end glues to chart
    (i+1)'s start.  ``corners`` lists the refinement anchor points, each as a
    tuple of (chart, parameter) aliases naming the same curve point.
    ``mirror_centre`` is the crossing point of the curve's mirror axes:
    one parallel to each coordinate axis, and on the square and the circle
    also the diagonal through it."""

    kind: str
    charts: tuple
    corners: tuple
    mirror_centre: tuple

    @property
    def n_charts(self):
        return len(self.charts)

    @cached_property
    def chart_scales(self) -> tuple:
        """Each chart's average speed (arc length over parameter length),
        the per-chart unit used by the mesh grading, once per geometry."""
        return tuple(arc_length(c, c.t0, c.t1) / (c.t1 - c.t0) for c in self.charts)


def make_geometry(kind: str, scale: float = 0.5, ellipse_ratio: float = 2.0) -> Geometry:
    """Build one of the shipped closed curves.

    square  -> boundary of an axis-aligned square of side ``scale``
               (4 affine charts, diameter scale*sqrt(2))
    circle  -> circle of radius scale/2 (one angle chart)
    ellipse -> (a cos t, b sin t) with a/b = ellipse_ratio and 2a = scale
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    if not (math.isfinite(ellipse_ratio) and ellipse_ratio > 0):
        raise ValueError(f"ellipse_ratio must be finite and positive, got {ellipse_ratio!r}")
    if kind == "square":
        a = scale
        diameter = a * math.sqrt(2.0)
        corners_xy = [np.array(p) for p in [(0, 0), (a, 0), (a, a), (0, a)]]
        # disjoint closed parameter intervals: gaps of one unit between charts
        charts = tuple(
            AffineChart(2.0 * i, 2.0 * i + 1.0, corners_xy[i], corners_xy[(i + 1) % 4])
            for i in range(4)
        )
        corners = tuple(
            ((i, charts[i].t0), ((i - 1) % 4, charts[(i - 1) % 4].t1)) for i in range(4)
        )
        centre = (0.5 * a, 0.5 * a)
    elif kind in ("circle", "ellipse"):
        ratio = 1.0 if kind == "circle" else ellipse_ratio
        a = scale / 2.0
        b = a / ratio
        diameter = 2.0 * max(a, b)
        charts = (EllipticChart(0.0, 2.0 * math.pi, a, b),)
        corners = _equispaced_corners()
        centre = (0.0, 0.0)
    else:
        raise ValueError(f"unknown geometry kind {kind!r}")
    if diameter > 1.0 + 1e-14:
        raise CoercivityRiskError(
            f"diameter {diameter:.4g} > 1: single layer coercivity is not "
            f"guaranteed (logarithmic capacity must stay below 1); reduce scale"
        )
    return Geometry(kind, charts, corners, centre)


def arc_length(chart, t0: float, t1: float) -> float:
    """Arc length of the parameter interval [t0, t1] of a chart: composite
    16-point Gauss on pieces of at most 0.25, machine accurate for the
    shipped (analytic-speed) charts."""
    return float(arc_lengths(chart, [t0], [t1])[0])


def arc_lengths(chart, t0, t1) -> np.ndarray:
    """Arc lengths of the parameter intervals [t0[i], t1[i]] of one chart
    by the rule of ``arc_length``, one speed evaluation per piece count."""
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    pieces = np.maximum(1, np.ceil((t1 - t0) / _MAX_PIECE)).astype(int)
    out = np.empty(t0.shape)
    for k in sorted(set(pieces.tolist())):
        sel = pieces == k
        edges = np.linspace(t0[sel], t1[sel], k + 1, axis=-1)
        a, b = edges[:, :-1], edges[:, 1:]
        speed = chart.speed(a[..., None] + (b - a)[..., None] * _LEN_RULE.nodes)
        # a row-wise reduction, not BLAS: every piece's sum is rounded alike,
        # so equal pieces give equal lengths wherever they sit in the batch
        out[sel] = ((b - a) * (speed * _LEN_RULE.weights).sum(axis=-1)).sum(axis=-1)
    return out


def _equispaced_corners():
    two_pi = 2.0 * math.pi
    out = [((0, 0.0), (0, two_pi))]  # chart junction with itself (closed chart)
    out += [((0, k * math.pi / 2.0),) for k in (1, 2, 3)]
    return tuple(out)


def total_length(g: Geometry) -> float:
    """Arc length of the whole curve by adaptive quadrature of the speed, to
    a relative 1e-13 per chart."""
    return sum(adaptive_integrate(c.speed, (c.t0, c.t1), tol=1e-13) for c in g.charts)
