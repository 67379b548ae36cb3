"""Size and numerical fingerprint of a source tree of calderon-bench.

    python tools/fingerprint.py TREE [--levels K]

prints, for the package under TREE/src, the total and the code lines of
each module and of all of them (code lines leave out blank lines, comments
and docstrings), then, for levels 1 to K (5 by default) of the benchmark's
two workloads (``bench/workloads.py`` of this checkout), a SHA-256 of every
matrix a level holds (A, B, M, D, d, the block bases and the Cholesky
factors of A's and B's blocks, M's blocks), taken from the level as the
run builds it, and each kappa of the table in ``float.hex``, and last an
``imports`` row: the scipy modules loaded after all of it.  Two trees
compute the same numbers when the outputs agree apart from the ``lines``
and ``imports`` rows:

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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import PRECONDS, WORKLOADS  # noqa: E402

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


def _level_rows(lev):
    """(name, digest) of every matrix of a ``cli.Level``."""
    items = [("A", lev.A), ("B", lev.B), ("M", *_csr(lev.M)), ("D", lev.D), ("d", lev.d)]
    for b, (Qt, L) in enumerate(lev.factor.blocks):
        items += [(f"Q{b}", *_csr(Qt)), (f"LA{b}", L)]
    items += [(f"LB{b}", L) for b, L in enumerate(lev.B_factors)]
    items += [(f"M{b}", *_csr(Mk)) for b, Mk in enumerate(lev.coupling.blocks)]
    items += [("m", lev.coupling.m)]
    return [(what, _digest(*arrays)) for what, *arrays in items]


def level_lines(workload, levels):
    """The fingerprint rows of one workload's levels 1 to ``levels``: each
    level is hashed inside ``cli.build_level`` as the run builds it, so
    every level is built once, and only its rows are kept."""
    from calderon_bench import cli

    cfg = cli.ExperimentConfig(**{**workload.config_fields(), "levels": levels})
    built, real = [], cli.build_level

    def hashed(*args, **kw):
        lev = real(*args, **kw)
        built.append(_level_rows(lev))
        return lev

    cli.build_level = hashed
    try:
        rows = cli.run_experiment(cfg)
    finally:
        cli.build_level = real
    for row, digests in zip(rows, built, strict=True):
        for what, digest in digests:
            yield f"{workload.name} level {row.level} {what} {digest}"
        for p in PRECONDS:
            yield f"{workload.name} level {row.level} kappa {p} {float(row.kappas[p]).hex()}"


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
    for workload in WORKLOADS.values():
        for line in level_lines(workload, args.levels):
            print(line)
    print("imports", *sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
