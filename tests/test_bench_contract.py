"""What the benchmark under ``bench/`` needs of the program, checked on a
two-level table: it swaps 12 module attributes of ``cli`` and
``boundary_operators`` for wrappers, unpacks ``assemble_operator_pair`` as
(A, B), and counts ``cli.lumped_matrix`` calls to find the finest level's
lumped diagonal.  A break shows here, not only when the benchmark runs."""

import json
import math
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

from calderon_bench import cli  # noqa: E402
from spans import FinestCapture, Tracer, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LEVELS = 2
# set by bench/run.py itself, not by the tracer
RUN_METRICS = {"boundary_operators.corner_entry_rel_err", "cli.cpu_s",
               "trace.overhead_s", "trace.unaccounted_s"}


def _config():
    fields = WORKLOADS["square-p3-corner"].config_fields()
    return cli.ExperimentConfig(**dict(fields, levels=LEVELS))


def _table(cfg, targets):
    with patched(targets):
        return cli.run_experiment(cfg)


def test_finest_capture_keeps_the_finest_level():
    cfg = _config()
    finest = FinestCapture(LEVELS)
    rows = _table(cfg, finest.targets())
    n = rows[-1].dofs
    assert cfg.degree == 3 and len(rows) == LEVELS
    assert finest.calls == {"assemble": LEVELS, "lumped": LEVELS}
    assert finest.space.ndof == n
    assert finest.A.shape == finest.B.shape == (n, n)
    assert finest.D.shape == (n,)


def test_tracer_spans_every_target():
    cfg = _config()
    tracer = Tracer()
    targets = tracer.targets()
    assert len(targets) == 12
    _table(cfg, targets)
    names = {s.name for s in tracer.spans}
    assert names == {"mesh.level_mesh", "fespace.build_space", "boundary_operators.assemble",
                     "quadrature.pair_rule", "quadrature.gauss_rule", "gram.mass_matrix",
                     "gram.lumped_matrix", "precond.lumped", "precond.mass", "precond.jacobi",
                     "precond.richardson2", "precond.richardson4", "precond.richardson6",
                     "spectral.kappa"}
    assert tracer.level == LEVELS
    # the rules are cached in quadrature, behind the names the tracer
    # swaps, so every level still shows its two pair rules and its two
    # Gauss rules
    for name in ("quadrature.pair_rule", "quadrature.gauss_rule"):
        assert [sum(s.name == name and s.level == k for s in tracer.spans)
                for k in range(1, LEVELS + 1)] == [2] * LEVELS, name

    metrics = tracer.metrics()
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) | RUN_METRICS == declared
    assert not set(metrics) & RUN_METRICS
    for key, value in metrics.items():
        assert math.isfinite(value) and value > 0, key
