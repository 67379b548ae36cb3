"""Paired, in-process A/B timing of two trees of calderon-bench.

    python tools/ab.py PARENT CHANGE --workload square-p3-corner [--pairs 20]

PARENT and CHANGE are directories holding a checkout of the repository, or
local git revisions; a revision is extracted with ``git archive REV | tar
-x`` into a temporary directory, so no network is needed.

Each tree gets long-lived worker processes, with that tree's ``src`` and
``bench`` on ``sys.path``.  A worker imports that tree's ``bench/run.py``
first, so its environment (one BLAS thread, no transparent huge pages for
numpy) is set before numpy loads, and times a table with its
``run_table``: ``run_experiment`` + ``emit_table`` of the workload, with
the benchmark's finest-level capture in place.  Before its timed tables it
imports nothing that ``bench/run.py`` does not.

The pairs come in two halves, each on two fresh workers that first run one
untimed table.  In the first half the parent's worker is started first and
the parent goes first in the first pair; in the second half the change
takes both places, so neither side keeps the second worker's place all
run.  Within a half the side that goes first flips from pair to pair.
Every table records its wall time (``perf_counter``) and CPU time
(``process_time``).  Each side runs one more table under ``tracemalloc``
for its peak, and the CSV texts of all tables are compared byte for byte.

For wall and CPU time the report gives each side's median and quartiles,
the median of the paired differences CHANGE - PARENT, its ratio to the
parent's median, the sign count (pairs the change wins, loses and ties),
a bootstrap 95 % interval of the median difference (2,000 draws of the
pairs, seed 0) and the median difference within each half; then all of it
again as one JSON line.

Decision rule, per time: over at least ten pairs, the change is faster
(slower) when it wins (loses) at least nine tenths of the pairs, ties
counting for neither, its median lies below (above) the parent's by more
than the parent's interquartile range, and the bootstrap interval lies
wholly below (above) 0.  Otherwise the difference is unresolved.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMES = ("wall", "cpu")
_RESAMPLES = 2000


def paired_stats(parent, change):
    """The comparison of one time over paired tables: ``parent[i]`` and
    ``change[i]`` were measured in pair i.  Returns a dict of each side's
    median and quartiles, the median paired difference CHANGE - PARENT and
    its ratio to the parent's median, the sign count, the bootstrap 95 %
    interval of the median difference and the verdict of the decision rule
    in the module docstring."""
    import numpy as np

    a, b = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    d = b - a
    pq, cq = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
    draws = np.random.default_rng(0).integers(0, d.size, (_RESAMPLES, d.size))
    lo, hi = np.percentile(np.median(d[draws], axis=1), [2.5, 97.5])
    wins, losses = int((d < 0).sum()), int((d > 0).sum())
    iqr = pq[2] - pq[0]
    verdict = "unresolved"
    if d.size >= 10 and wins >= 0.9 * d.size and pq[1] - cq[1] > iqr and hi < 0:
        verdict = "faster"
    elif d.size >= 10 and losses >= 0.9 * d.size and cq[1] - pq[1] > iqr and lo > 0:
        verdict = "slower"
    med = float(np.median(d))
    return {"parent_quartiles": pq.tolist(), "change_quartiles": cq.tolist(),
            "median_diff": med, "ratio": float(med / pq[1]), "wins": wins, "losses": losses,
            "ties": int(d.size - wins - losses), "ci95": [float(lo), float(hi)],
            "ci95_width": float(hi - lo), "verdict": verdict}


def worker(tree, workload):
    """Serve one tree: read a command per line on stdin, answer one JSON
    line on stdout.  ``time`` runs a table and gives its wall and CPU
    seconds and its CSV text; ``peak`` runs a table under tracemalloc and
    gives its peak in MiB."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import run                  # the tree's bench/run.py, which sets the environment
    from calderon_bench import cli
    from spans import FinestCapture
    from workloads import WORKLOADS

    cfg = cli.ExperimentConfig(**WORKLOADS[workload].config_fields())
    reply, sys.stdout = sys.stdout, sys.stderr      # the program's prints stay off the replies

    def table():
        gc.collect()
        return run.run_table(cfg, FinestCapture(cfg.levels).targets())[1:]

    for command in sys.stdin:
        if command.strip() == "peak":
            import tracemalloc
            tracemalloc.start()
            table()
            out = {"peak_mib": tracemalloc.get_traced_memory()[1] / 2**20}
            tracemalloc.stop()
        else:
            text, wall, cpu = table()
            out = {"wall": wall, "cpu": cpu, "text": text}
        reply.write(json.dumps(out) + "\n")
        reply.flush()
    return 0


class Worker:
    """One worker process on a tree (see ``worker``)."""

    def __init__(self, tree, workload):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", tree, workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=tree,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def checkout(spec, dest):
    """The tree of ``spec``: the directory itself, or the local revision
    extracted into the new directory ``dest``."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    archive = subprocess.run(["git", "-C", ROOT, "archive", spec], capture_output=True)
    if archive.returncode:
        raise SystemExit(f"error: {spec!r} is neither a directory nor a local revision: "
                         f"{archive.stderr.decode().strip()}")
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return dest


def compare(trees, workload, pairs):
    """Run the pairs on the trees (parent, change) in two halves, the second
    with the workers' start order and the first side swapped; returns the
    report dict."""
    import statistics

    times, texts, peaks = [{t: [] for t in TIMES} for _ in trees], set(), None
    first = pairs - pairs // 2
    for order, n in (((0, 1), first), ((1, 0), pairs // 2)):
        workers = {side: Worker(trees[side], workload) for side in order}
        try:
            texts |= {workers[side].ask("time")["text"] for side in order}   # untimed
            for i in range(n):
                for side in order if i % 2 == 0 else order[::-1]:
                    res = workers[side].ask("time")
                    texts.add(res["text"])
                    for t in TIMES:
                        times[side][t].append(res[t])
            peaks = peaks or [workers[side].ask("peak")["peak_mib"] for side in (0, 1)]
        finally:
            for w in workers.values():
                w.close()
    report = {"workload": workload, "pairs": pairs, "csv_identical": len(texts) == 1,
              "tracemalloc_peak_mib": {"parent": peaks[0], "change": peaks[1]}}
    for t in TIMES:
        d = [c - p for p, c in zip(times[0][t], times[1][t])]
        report[t] = {**paired_stats(times[0][t], times[1][t]), "half_median_diffs":
                     [statistics.median(d[:first]), statistics.median(d[first:])]}
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="a directory holding a checkout, or a local revision")
    ap.add_argument("change", help="a directory holding a checkout, or a local revision")
    ap.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    ap.add_argument("--pairs", type=int, default=20, help="pairs of tables (default 20)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, one for each half")
    import tempfile

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = [checkout(spec, os.path.join(tmp, side))
                 for spec, side in ((args.parent, "parent"), (args.change, "change"))]
        t0 = time.perf_counter()
        report = compare(trees, args.workload, args.pairs)
    report["seconds"] = time.perf_counter() - t0
    peak = report["tracemalloc_peak_mib"]
    print(f"{args.workload}: {args.pairs} pairs, CSV byte-identical: "
          f"{'yes' if report['csv_identical'] else 'NO'}, tracemalloc peak "
          f"{peak['parent']:.2f} -> {peak['change']:.2f} MiB")
    for t in TIMES:
        s = report[t]
        pq, cq, (lo, hi) = s["parent_quartiles"], s["change_quartiles"], s["ci95"]
        h1, h2 = s["half_median_diffs"]
        print(f"{t:4s} parent {pq[1] * 1e3:.1f} ms [{pq[0] * 1e3:.1f}, {pq[2] * 1e3:.1f}]  "
              f"change {cq[1] * 1e3:.1f} ms [{cq[0] * 1e3:.1f}, {cq[2] * 1e3:.1f}]  "
              f"diff {s['median_diff'] * 1e3:+.2f} ms ({s['ratio']:+.2%})  "
              f"wins {s['wins']}/{args.pairs} losses {s['losses']}  "
              f"95% [{lo * 1e3:+.2f}, {hi * 1e3:+.2f}] ms (width {s['ci95_width'] * 1e3:.2f})  "
              f"halves {h1 * 1e3:+.2f} / {h2 * 1e3:+.2f} ms  {s['verdict']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(*sys.argv[2:]))
    sys.exit(main())
