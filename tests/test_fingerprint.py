"""``tools/fingerprint.py``: its line counts against the files, its kappa
against the program's table, and its row of loaded scipy modules."""

import subprocess
import sys
from pathlib import Path

from calderon_bench.cli import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from fingerprint import PRECONDS, WORKLOADS, line_counts  # noqa: E402


def test_line_counts_leave_out_docstrings_comments_and_blanks():
    source = ('"""Module doc."""\n\n# a comment\nX = 1  # trailing\n\n\ndef f():\n'
              '    """Doc\n    of two lines."""\n    return (1,\n            2)\n')
    assert line_counts(source) == (11, 4)      # X = 1, def f, and the two-line return


def test_fingerprint_of_level_one_matches_the_files_and_the_table():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py"), str(ROOT),
                          "--levels", "1"], capture_output=True, text=True, check=True).stdout
    lines = [line.split() for line in out.splitlines()]
    counts = {f[1]: (int(f[2]), int(f[3])) for f in lines if f[0] == "lines"}
    modules = sorted((ROOT / "src" / "calderon_bench").glob("*.py"))
    assert sorted(counts) == sorted([p.name for p in modules] + ["total"])
    for p in modules:
        assert counts[p.name][0] == len(p.read_text().splitlines()), p.name
        assert 0 < counts[p.name][1] < counts[p.name][0], p.name
    assert counts["total"] == tuple(map(sum, zip(*(counts[p.name] for p in modules))))
    for name, geometry, degree, inner in WORKLOADS:
        rows = {f[3]: f[4:] for f in lines if f[0] == name}
        assert all(f[2] == "1" for f in lines if f[0] == name)
        for what in ("A", "B", "M", "D", "d", "Q0", "LA0", "LB0", "M0", "m"):
            assert len(rows[what][0]) == 64, (name, what)
        row, = run_experiment(ExperimentConfig(geometry=geometry, degree=degree, levels=1,
                                               inner_product=inner, preconds=PRECONDS))
        kappas = {f[4]: float.fromhex(f[5]) for f in lines if f[0] == name and f[3] == "kappa"}
        assert kappas == row.kappas, name
    # the last row: the scipy modules that the run path loaded
    assert lines[-1] == ["imports", "scipy.linalg._fblas", "scipy.linalg._flapack",
                         "scipy.sparse._sparsetools"]
