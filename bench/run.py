"""Benchmark of the program's ``run`` path: the kappa table of one workload.

    python3 bench/run.py --workload square-p3-corner --seed 1 --seconds 20 --trace 0

Runs from the repository root and imports the program from ``src``.
With ``--trace 0`` it reports the end-to-end metrics (set-up time, run time
of ``run_experiment`` + ``emit_table``, peak resident memory); with
``--trace 1`` it times each layer's public entry points from outside and
reports the per-layer metrics.  Every run checks the finished table (see
``checks.py``).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# fixed before numpy loads.  One BLAS thread: the plain single-threaded
# baseline, whose times do not depend on a second core being free.  No
# transparent huge pages for numpy arrays, so that neither time nor memory
# depends on whether the host has huge pages free at the moment.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 7

SETUP_SNIPPET = """\
import time
t0 = time.perf_counter()
import calderon_bench
calderon_bench.make_geometry({geometry!r}, {scale!r}, {ellipse_ratio!r})
print(time.perf_counter() - t0)
"""


def declared_units(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(fields):
    """Median time, over fresh processes, to import the program and build
    the workload's geometry (interpreter start-up excluded)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = SETUP_SNIPPET.format(**fields)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_table(cfg, targets):
    """One kappa table through the program's own run path, with the given
    module attributes swapped in; returns rows, text, wall and CPU seconds."""
    from calderon_bench import cli
    from spans import patched

    with patched(targets):
        c0, t0 = time.process_time(), time.perf_counter()
        rows = cli.run_experiment(cfg)
        text = cli.emit_table(rows, cfg.fmt, None, cfg)
        t1, c1 = time.perf_counter(), time.process_time()
    return rows, text, t1 - t0, c1 - c0


def check_table(wl, cfg, rows, text, finest, seed):
    """All checks on a finished table; returns (failures, corner_entry_rel_err)."""
    import numpy as np

    import checks
    from calderon_bench import boundary_operators as bops
    from calderon_bench import cli

    fails = []
    fails += checks.table_text(rows, text)
    fails += checks.kappas_valid(rows)
    fails += checks.plateau(rows)
    fails += checks.richardson_near_mass(rows)
    if wl.degree == 1 and wl.inner_product == "mesh-averaged":
        fails += checks.jacobi_equals_lumped(rows)
    if wl.degree == 3:
        fails += checks.jacobi_grows(rows)
    fails += checks.graded(rows)

    g = cli.make_geometry(cfg.geometry, cfg.scale, cfg.ellipse_ratio)
    meshes = [cli.level_mesh(cfg, g, k) for k in range(1, cfg.levels + 1)]
    fails += checks.dofs_match(rows, [m.n_panels for m in meshes], wl.degree)
    fails += checks.lumped_sum(finest.D, wl.curve().length())

    # level 1, recomputed outside the timed run: every kappa through
    # independently built preconditioners and the nonsymmetric eigenvalues
    # of A G, and the entries at one anchor (chosen by the seed) against
    # the tight budget
    s1 = cli.build_space(meshes[0], wl.degree)
    A1, B1 = bops.assemble_operator_pair(s1, cfg.quad_n, cfg.alpha)
    M1 = cli.mass_matrix(s1, cfg.inner_product, n_quad=cfg.quad_n)
    D1 = cli.lumped_matrix(s1, cfg.inner_product, n_quad=cfg.quad_n)
    G1 = checks.independent_preconds(B1, M1, D1, wl.degree, cfg.preconds)
    fails += checks.kappas_agree(1, rows[0].kappas,
                                 {n: checks.kappa_AG(A1, G) for n, G in G1.items()})
    corners = wl.corner_params()
    err1 = checks.corner_errors(wl.curve(), s1, A1, B1, cfg.alpha,
                                [corners[seed % len(corners)]])
    fails += checks.corner_within(1, err1, checks.CORNER_ENTRY_BUDGET)

    # finest level, from the timed run: lumped kappa through the
    # symmetric-definite pencil, and the entries at every anchor
    d = finest.D
    fails += checks.kappas_agree(
        cfg.levels, rows[-1].kappas,
        {"lumped": checks.kappa_generalized(finest.A, finest.B / np.outer(d, d))})
    err = checks.corner_errors(wl.curve(), finest.space, finest.A, finest.B, cfg.alpha,
                                corners)
    fails += checks.corner_within(cfg.levels, err, checks.FINEST_CORNER_BUDGET)
    return fails, err


def count_cells(rows_list, cfg, raised):
    """Cells attempted and failed: a table that raised fails every cell."""
    per_table = cfg.levels * len(cfg.preconds)
    attempted = per_table * (len(rows_list) + raised)
    failed = per_table * raised
    for rows in rows_list:
        failed += sum(not math.isfinite(v) for r in rows for v in r.kappas.values())
    return attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "calderon_bench", "__init__.py")):
        print(f"error: the program is not at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from calderon_bench import cli
    from spans import FinestCapture, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    fields = wl.config_fields()
    cfg = cli.ExperimentConfig(**fields)

    metrics = {}
    tables, run_times, raised = [], [], 0
    finest = tracer = None
    try:
        if not args.trace:
            metrics["setup_s"] = measure_setup(fields)
        # whole tables until the run length is reached; the finest-level
        # matrices of the previous table are dropped before the next starts
        deadline = time.perf_counter() + (0 if args.trace else args.seconds)
        while True:
            finest = None
            gc.collect()
            finest = FinestCapture(cfg.levels)
            rows, text, run_s, _ = run_table(cfg, finest.targets())
            tables.append((rows, text))
            run_times.append(run_s)
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = Tracer()
            rows_t, text_t, traced_s, cpu_s = run_table(cfg, tracer.targets())
            tables.append((rows_t, text_t))
    except RuntimeError as exc:  # run_experiment reports a failed level this way
        print(f"error: the table failed: {exc}", file=sys.stderr)
        raised = 1

    attempted, failed = count_cells([rows for rows, _ in tables], cfg, raised)
    fails = []
    if raised:
        fails.append("a table raised")
    else:
        rows, text = tables[0]
        fails, corner_err = check_table(wl, cfg, rows, text, finest, args.seed)
        fails += [f"table {i + 1} differs from table 1" for i, (r, _) in enumerate(tables)
                  if r != rows]
        if args.trace:
            metrics.update(tracer.metrics())
            metrics["boundary_operators.corner_entry_rel_err"] = corner_err
            metrics["cli.cpu_s"] = cpu_s
            metrics["trace.overhead_s"] = traced_s - run_times[0]
            metrics["trace.unaccounted_s"] = traced_s - tracer.top_level_seconds()
        else:
            metrics["run_s"] = statistics.median(run_times)
            metrics["peak_rss_mb"] = peak_rss_mb

    units = declared_units(args.trace)
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    for msg in fails:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted = {attempted} cells, failed = {failed}, tables = {len(tables)}, "
          f"blas_threads = {BLAS_THREADS}, checks {'passed' if not fails else 'FAILED'}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.jsonl", "w") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
