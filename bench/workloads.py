"""The benchmark's workloads: fixed inputs to the program's ``run`` path.

Nothing in the program is random, so a workload's inputs do not depend on
the seed.  Both workloads grade the mesh toward the curve's four anchor
points; they differ in what dominates their time (see README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


LEVELS = 5
PRECONDS = ("lumped", "mass", "richardson:2", "richardson:4", "richardson:6", "jacobi")
SCALE = 0.5
ELLIPSE_RATIO = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    geometry: str
    degree: int
    inner_product: str

    def config_fields(self):
        """Keyword arguments of ``calderon_bench.cli.ExperimentConfig``."""
        return dict(geometry=self.geometry, scale=SCALE, ellipse_ratio=ELLIPSE_RATIO,
                    degree=self.degree, levels=LEVELS, refine="corner",
                    preconds=PRECONDS, alpha=0.05, quad_n=12,
                    inner_product=self.inner_product, fmt="csv")

    def curve(self):
        """The curve, parametrized apart from the program."""
        from oracle import EllipseCurve, SquareCurve  # scipy.integrate stays out of the timed run

        if self.geometry == "square":
            return SquareCurve(SCALE)
        a = SCALE / 2.0
        return EllipseCurve(a, a / ELLIPSE_RATIO)

    def corner_params(self):
        """(chart, parameter) of each refinement anchor, in order."""
        if self.geometry == "square":
            return [(i, 2.0 * i) for i in range(4)]
        return [(0, i * math.pi / 2.0) for i in range(4)]


WORKLOADS = {w.name: w for w in (
    Workload("square-p3-corner", "square", 3, "exact"),
    Workload("ellipse-p1-averaged", "ellipse", 1, "mesh-averaged"),
)}
