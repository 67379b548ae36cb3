"""Size and numerical fingerprint of a source tree of calderon-bench.

    python tools/fingerprint.py TREE [--levels K]

prints, for the package under TREE/src, the total and the code lines of
each module and of all of them (code lines leave out blank lines, comments
and docstrings), then, for levels 1 to K (5 by default) of the benchmark's
two workloads, a SHA-256 of every matrix a level holds (A, B, M, D, d, the
block bases and the Cholesky factors of A's and B's blocks, M's blocks) and
each kappa of the table in ``float.hex``, and last an ``imports`` row: the
scipy modules loaded after all of it.  Two trees compute the same numbers
when the outputs agree apart from the ``lines`` and ``imports`` rows:

    diff <(python tools/fingerprint.py OLD) <(python tools/fingerprint.py NEW)
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import sys
import tokenize
from pathlib import Path

import numpy as np

# the benchmark's workloads (bench/workloads.py): name, geometry, degree and
# inner product; scale 0.5, ellipse ratio 2, corner refinement, quad_n 12,
# alpha 0.05 and its six preconditioners
WORKLOADS = (("square-p3-corner", "square", 3, "exact"),
             ("ellipse-p1-averaged", "ellipse", 1, "mesh-averaged"))
PRECONDS = ("lumped", "mass", "richardson:2", "richardson:4", "richardson:6", "jacobi")

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def line_counts(source: str):
    """(total lines, code lines) of a Python source: a code line holds a
    token other than a comment, outside every docstring."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            code.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(source.splitlines()), len(code)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _csr(X):
    return X.indptr, X.indices, X.data


def level_lines(name, geometry, degree, inner, levels):
    """The fingerprint rows of one workload's levels 1 to ``levels``."""
    from calderon_bench import cli

    cfg = cli.ExperimentConfig(geometry=geometry, scale=0.5, ellipse_ratio=2.0, degree=degree,
                               levels=levels, refine="corner", preconds=PRECONDS, alpha=0.05,
                               quad_n=12, inner_product=inner)
    g = cli.make_geometry(geometry, cfg.scale, cfg.ellipse_ratio)
    for row in cli.run_experiment(cfg):
        k = row.level
        lev = cli.build_level(cli.build_space(cli.level_mesh(cfg, g, k), degree), inner,
                              cfg.quad_n, cfg.alpha)
        items = [("A", lev.A), ("B", lev.B), ("M", *_csr(lev.M)), ("D", lev.D), ("d", lev.d)]
        for b, (Qt, L) in enumerate(lev.factor.blocks):
            items += [(f"Q{b}", *_csr(Qt)), (f"LA{b}", L)]
        items += [(f"LB{b}", L) for b, L in enumerate(lev.B_factors)]
        items += [(f"M{b}", *_csr(Mk)) for b, Mk in enumerate(lev.coupling.blocks)]
        items += [("m", lev.coupling.m)]
        for what, *arrays in items:
            yield f"{name} level {k} {what} {_digest(*arrays)}"
        for p in PRECONDS:
            yield f"{name} level {k} kappa {p} {float(row.kappas[p]).hex()}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", type=Path, help="a checkout of the repository")
    ap.add_argument("--levels", type=int, default=5, help="finest level (default 5)")
    args = ap.parse_args(argv)
    src = args.tree.resolve() / "src"
    total = code = 0
    for path in sorted((src / "calderon_bench").glob("*.py")):
        t, c = line_counts(path.read_text())
        total, code = total + t, code + c
        print(f"lines {path.name} {t} {c}")
    print(f"lines total {total} {code}")
    sys.path.insert(0, str(src))
    for workload in WORKLOADS:
        for line in level_lines(*workload, args.levels):
            print(line)
    print("imports", *sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
