"""Paired, in-process A/B comparison of two trees of calderon-bench: do they
compute the same numbers, and which runs a table, or sets up, faster?

    python tools/ab.py PARENT CHANGE --workload square-p3-corner [--pairs 20]

PARENT and CHANGE are directories holding a checkout of the repository, or
local git revisions; a revision is extracted with ``git archive REV | tar
-x`` into a temporary directory, so no network is needed.

Each tree gets long-lived worker processes, with that tree's ``src`` and
``bench`` on ``sys.path``.  A worker imports that tree's ``bench/run.py``
first, so its environment (one BLAS thread, no transparent huge pages for
numpy) is set before numpy loads, whatever the caller's shell sets, and
times a table with its ``run_table``: ``run_experiment`` + ``emit_table``
of the workload, with the benchmark's finest-level capture in place.
Before its timed tables it imports nothing that ``bench/run.py`` does not.

The pairs come in two halves, each on two fresh workers that first run one
untimed table.  In the first half the parent's worker is started first and
the parent goes first in the first pair; in the second half the change
takes both places.  Within a half the side that goes first flips from pair
to pair.  Every table records its wall time (``perf_counter``) and CPU
time (``process_time``), and all CSV texts are compared byte for byte.
Then each half runs as many pairs of set-up times, in the same order: a
worker starts one fresh process, in its benchmark environment, that runs
the tree's ``bench/run.py`` ``SETUP_SNIPPET`` for the workload (``import
calderon_bench`` + ``make_geometry``), which is the benchmark's
``setup_s`` taken once.  After the first half's pairs each side runs a
table under ``tracemalloc`` for its peak, and one whose rows
(``table_rows``) say whether the trees compute the same numbers: the mesh
arrays and matrices of each level, its kappas, the scipy modules loaded
and the text of ``verify``.

The report gives the BLAS thread count the workers ran with, the rows that
differ or that none do, each tree's total and code lines per module, and,
for wall and CPU time per table and for set-up time, each side's median
and quartiles, the median paired difference CHANGE - PARENT and its ratio
to the parent's median, the sign count, a bootstrap 95 % interval of the
median difference (2,000 draws of the pairs, seed 0) and the median
difference within each half; then all of it again as one JSON line.

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
SIDES = ("parent", "change")
TIMES = ("wall", "cpu", "setup")
_RESAMPLES = 2000


def line_counts(source):
    """(total lines, code lines) of a Python source: a code line holds a
    token other than a comment, outside every docstring."""
    import ast
    import io
    import tokenize

    not_code = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in not_code:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node) is not None):
            code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(source.splitlines()), len(code)


def tree_lines(tree):
    """{module file: (total lines, code lines)} of a tree's package, and
    their sums under ``total``."""
    from pathlib import Path

    counts = {path.name: line_counts(path.read_text())
              for path in sorted(Path(tree, "src", "calderon_bench").glob("*.py"))}
    counts["total"] = tuple(map(sum, zip(*counts.values())))
    return counts


def _digest(x):
    """SHA-256 of an array, or of a CSR record's three arrays."""
    import hashlib

    h = hashlib.sha256()
    for a in (x.indptr, x.indices, x.data) if hasattr(x, "indptr") else (x,):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())               # in C order, whatever the array's layout
    return h.hexdigest()


def _level_digests(lev):
    """(name, digest) of every mesh array and every matrix of a ``cli.Level``."""
    m = lev.space.mesh
    items = [(f"mesh {a}", getattr(m, a)) for a in ("chart", "t0", "t1", "length", "qlength")]
    items += [("A", lev.A), ("B", lev.B), ("M", lev.M), ("D", lev.D), ("d", lev.d)]
    for b, (Qt, L) in enumerate(lev.factor.blocks):
        items += [(f"Q{b}", Qt), (f"LA{b}", L)]
    items += [(f"LB{b}", L) for b, L in enumerate(lev.B_factors)]
    items += [(f"M{b}", Mk) for b, Mk in enumerate(lev.coupling.blocks)]
    items += [("m", lev.coupling.m)]
    return [(what, _digest(x)) for what, x in items]


def table_rows(run, cli, cfg):
    """The rows of one table of ``cfg``, a name -> value dict: a SHA-256 of
    each level's mesh arrays (chart, t0, t1, length, qlength) and matrices
    (A, B, M, D, d, the block bases Q_k, the Cholesky factors LA_k and LB_k
    of A's and B's blocks, M's blocks M_k and m), taken inside
    ``cli.build_level`` as the run builds the level, so every level is
    built once, and its kappas in ``float.hex``; then the scipy modules
    loaded by then, and the lines of ``verify``, run last because it
    imports scipy.linalg."""
    import contextlib
    import io

    built, real = [], cli.build_level

    def hashed(*args, **kw):
        lev = real(*args, **kw)
        built.append(_level_digests(lev))
        return lev

    rows = {}
    for row, digests in zip(run.run_table(cfg, {(cli, "build_level"): hashed})[0], built,
                            strict=True):
        rows.update((f"level {row.level} {what}", digest) for what, digest in digests)
        rows.update((f"level {row.level} kappa {p}", float(k).hex())
                    for p, k in row.kappas.items())
    rows["imports"] = " ".join(sorted(n for n in sys.modules if n.split(".")[0] == "scipy"))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(["verify"])
    rows.update((f"verify {i}", line) for i, line in enumerate(out.getvalue().splitlines(), 1))
    return rows


def differing_rows(parent, change):
    """[name, parent's value, change's value] of every row on which two
    row dicts differ, a row missing on one side as None; the parent's
    order first."""
    names = list(parent) + [name for name in change if name not in parent]
    return [[n, parent.get(n), change.get(n)] for n in names if parent.get(n) != change.get(n)]


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
    gives its peak in MiB; ``rows`` gives ``table_rows`` and the BLAS
    thread count; ``setup`` runs the tree's ``bench/run.py`` set-up snippet
    (import + ``make_geometry``) in one fresh process and gives the seconds
    it prints."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import run                  # the tree's bench/run.py, which sets the environment
    from calderon_bench import cli
    from spans import FinestCapture
    from workloads import WORKLOADS

    fields = WORKLOADS[workload].config_fields()
    cfg = cli.ExperimentConfig(**fields)
    reply, sys.stdout = sys.stdout, sys.stderr      # the program's prints stay off the replies

    def table():
        gc.collect()
        return run.run_table(cfg, FinestCapture(cfg.levels).targets())[1:]

    for command in sys.stdin:
        if command.strip() == "peak":
            import tracemalloc
            tracemalloc.start()
            table()
            out = {"tracemalloc_peak_mib": tracemalloc.get_traced_memory()[1] / 2**20}
            tracemalloc.stop()
        elif command.strip() == "setup":
            proc = subprocess.run([sys.executable, "-c", run.SETUP_SNIPPET.format(**fields)],
                                  env=dict(os.environ, PYTHONPATH=run.SRC), cwd=run.ROOT,
                                  capture_output=True, text=True, timeout=120, check=True)
            out = {"setup": float(proc.stdout.split()[-1])}
        elif command.strip() == "rows":
            out = {"rows": table_rows(run, cli, cfg),
                   "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
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


def _pairs(workers, order, n, command):
    """(side, reply) of ``n`` pairs of ``command``, ``order[0]`` first in
    the first pair and the side that goes first flipping from pair to pair."""
    for i in range(n):
        for side in order if i % 2 == 0 else order[::-1]:
            yield side, workers[side].ask(command)


def compare(trees, workload, pairs):
    """Run the pairs on the trees (parent, change) in two halves, the second
    with the workers' start order and the first side swapped; returns the
    report dict."""
    import statistics

    times, texts, extra = [{t: [] for t in TIMES} for _ in trees], set(), None
    first = pairs - pairs // 2
    for order, n in (((0, 1), first), ((1, 0), pairs // 2)):
        workers = {side: Worker(trees[side], workload) for side in order}
        try:
            texts |= {workers[side].ask("time")["text"] for side in order}   # untimed
            for side, res in _pairs(workers, order, n, "time"):
                texts.add(res["text"])
                for t in ("wall", "cpu"):
                    times[side][t].append(res[t])
            for side, res in _pairs(workers, order, n, "setup"):
                times[side]["setup"].append(res["setup"])
            extra = extra or [{**workers[side].ask("peak"), **workers[side].ask("rows")}
                              for side in (0, 1)]
        finally:
            for w in workers.values():
                w.close()
    rows = [e["rows"] for e in extra]
    report = {"workload": workload, "pairs": pairs, "csv_identical": len(texts) == 1,
              **{key: {side: e[key] for side, e in zip(SIDES, extra)}
                 for key in ("blas_threads", "tracemalloc_peak_mib")},
              "differing_rows": differing_rows(*rows),
              "lines": dict(zip(SIDES, map(tree_lines, trees))), "rows": dict(zip(SIDES, rows))}
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
                 for spec, side in zip((args.parent, args.change), SIDES)]
        t0 = time.perf_counter()
        report = compare(trees, args.workload, args.pairs)
    report["seconds"] = time.perf_counter() - t0
    blas, peak, lines = (report[k] for k in ("blas_threads", "tracemalloc_peak_mib", "lines"))
    print(f"{args.workload}: {args.pairs} pairs, BLAS threads {blas['parent']} / "
          f"{blas['change']}, CSV byte-identical: {'yes' if report['csv_identical'] else 'NO'}, "
          f"tracemalloc peak {peak['parent']:.2f} -> {peak['change']:.2f} MiB")
    rows, diff = report["rows"], report["differing_rows"]
    print(f"rows (digests, kappas, imports, verify) {len(rows['parent'])} -> "
          f"{len(rows['change'])}: " + (f"{len(diff)} differ" if diff else "none differ"))
    for name, p, c in diff:
        print(f"  {name}: {p} -> {c}")
    for name in sorted({*lines["parent"], *lines["change"]} - {"total"}) + ["total"]:
        print(f"lines {name}", " -> ".join(" ".join(map(str, lines[side].get(name, "--")))
                                           for side in SIDES))
    for t in TIMES:
        s = report[t]
        pq, cq, (lo, hi) = s["parent_quartiles"], s["change_quartiles"], s["ci95"]
        h1, h2 = s["half_median_diffs"]
        print(f"{t:5s} parent {pq[1] * 1e3:.1f} ms [{pq[0] * 1e3:.1f}, {pq[2] * 1e3:.1f}]  "
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
