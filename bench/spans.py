"""Spans around the program's public entry points, recorded from outside.

``patched`` swaps a module attribute for a wrapper and restores it on exit.
The program's own ``run_experiment`` resolves these names at call time, so
it runs unmodified through the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

from calderon_bench import boundary_operators as bops
from calderon_bench import cli


@dataclass
class Span:
    name: str
    level: int
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


@contextlib.contextmanager
def patched(targets):
    """Install ``{(module, attr): wrapper}`` for the duration of the block."""
    saved = {key: getattr(*key) for key in targets}
    try:
        for (mod, attr), fn in targets.items():
            setattr(mod, attr, fn)
        yield
    finally:
        for (mod, attr), fn in saved.items():
            setattr(mod, attr, fn)


class FinestCapture:
    """Keeps the finest level's space, A, B and lumped diagonal of one
    ``run_experiment`` call, for the checks.  Earlier levels are not held,
    so the run's peak memory is unchanged."""

    def __init__(self, levels):
        self.levels = levels
        self.calls = {"assemble": 0, "lumped": 0}
        self.space = self.A = self.B = self.D = None

    def _keep(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.calls[key] += 1
            if self.calls[key] == self.levels:
                if key == "assemble":
                    self.space, (self.A, self.B) = args[0], out
                else:
                    self.D = out
            return out
        return wrapper

    def targets(self):
        return {
            (bops, "assemble_operator_pair"): self._keep("assemble", bops.assemble_operator_pair),
            (cli, "lumped_matrix"): self._keep("lumped", cli.lumped_matrix),
        }


def _richardson_name(args):
    return f"precond.richardson{args[3]}"  # richardson_precond(B, M, D, k, omega)


class Tracer:
    """Times each call into a layer; a ``mesh.level_mesh`` call opens a level."""

    def __init__(self):
        self.spans: list[Span] = []
        self.level = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            label = name(args) if callable(name) else name
            if label == "mesh.level_mesh":
                self.level += 1
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            span = Span(label, self.level, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts:
                span.counts = counts(out)
            return out
        return timed

    def targets(self):
        w = self._wrap
        return {
            (cli, "level_mesh"): w("mesh.level_mesh", cli.level_mesh,
                                   lambda m: {"panels": m.n_panels}),
            (cli, "build_space"): w("fespace.build_space", cli.build_space,
                                    lambda s: {"dofs": s.ndof}),
            (bops, "assemble_operator_pair"): w("boundary_operators.assemble",
                                                bops.assemble_operator_pair),
            (bops, "pair_rule"): w("quadrature.pair_rule", bops.pair_rule,
                                   lambda r: {"points": r.weights.size}),
            (bops, "gauss_rule"): w("quadrature.gauss_rule", bops.gauss_rule,
                                    lambda r: {"points": r.nodes.size}),
            (cli, "mass_matrix"): w("gram.mass_matrix", cli.mass_matrix),
            (cli, "lumped_matrix"): w("gram.lumped_matrix", cli.lumped_matrix),
            (cli, "lumped_precond"): w("precond.lumped", cli.lumped_precond),
            (cli, "mass_precond"): w("precond.mass", cli.mass_precond),
            (cli, "jacobi_precond"): w("precond.jacobi", cli.jacobi_precond),
            (cli, "richardson_precond"): w(_richardson_name, cli.richardson_precond),
            (cli, "kappa"): w("spectral.kappa", cli.kappa),
        }

    def metrics(self):
        """Per-layer totals over all levels: seconds per layer, and counts
        computed from public sizes (panels, dofs, rule points)."""
        total = {}
        for s in self.spans:
            key = s.name + "_s"
            total[key] = total.get(key, 0.0) + s.seconds
        out = {k: total.get(k, 0.0) for k in (
            "mesh.level_mesh_s", "fespace.build_space_s", "quadrature.pair_rule_s",
            "boundary_operators.assemble_s", "gram.mass_matrix_s", "gram.lumped_matrix_s",
            "precond.lumped_s", "precond.mass_s", "precond.richardson2_s",
            "precond.richardson4_s", "precond.richardson6_s", "precond.jacobi_s",
            "spectral.kappa_s")}
        near = far = panels = dofs = 0
        for level in range(1, self.level + 1):
            at = [s for s in self.spans if s.level == level]
            P = sum(s.counts["panels"] for s in at if s.name == "mesh.level_mesh")
            panels += P
            dofs += sum(s.counts["dofs"] for s in at if s.name == "fespace.build_space")
            # every panel meets its identical and its adjacent pair rule once;
            # the far sweep evaluates the kernel between all Gauss points
            near += P * sum(s.counts["points"] for s in at if s.name == "quadrature.pair_rule")
            far += sum((P * s.counts["points"]) ** 2
                       for s in at if s.name == "quadrature.gauss_rule")
        finest = [s for s in self.spans if s.level == self.level]
        out.update({
            "mesh.panels": panels,
            "fespace.dofs": dofs,
            "boundary_operators.near_evals": near,
            "boundary_operators.far_evals": far,
            "spectral.kappa_calls": sum(s.name == "spectral.kappa" for s in self.spans),
            "cli.finest_level_s": max(s.end for s in finest) - min(s.start for s in finest),
        })
        return out

    def top_level_seconds(self):
        return sum(s.seconds for s in self.spans if s.parent is None)

    def records(self):
        return [dict(id=i, name=s.name, level=s.level, start=s.start, end=s.end,
                     parent=s.parent, **s.counts) for i, s in enumerate(self.spans)]
