"""``tools/fingerprint.py``: its line counts against the files, its kappa
against the program's table, its row of loaded scipy modules, and one
build of each level."""

import subprocess
import sys
from pathlib import Path

from calderon_bench import cli
from calderon_bench.cli import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from fingerprint import PRECONDS, WORKLOADS, level_lines, line_counts  # noqa: E402


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
    for name, workload in WORKLOADS.items():
        rows = {f[3]: f[4:] for f in lines if f[0] == name}
        assert all(f[2] == "1" for f in lines if f[0] == name)
        for what in ("A", "B", "M", "D", "d", "Q0", "LA0", "LB0", "M0", "m"):
            assert len(rows[what][0]) == 64, (name, what)
        row, = run_experiment(ExperimentConfig(**{**workload.config_fields(), "levels": 1}))
        kappas = {f[4]: float.fromhex(f[5]) for f in lines if f[0] == name and f[3] == "kappa"}
        assert kappas == row.kappas and list(kappas) == list(PRECONDS), name
    # the last row: the scipy modules that the run path loaded
    assert lines[-1] == ["imports", "scipy.linalg._fblas", "scipy.linalg._flapack",
                         "scipy.sparse._sparsetools"]


def test_fingerprint_builds_each_level_once(monkeypatch):
    # the rows come from the levels the run builds, hashed as they are built,
    # not from a second build; the run's own build_level is back afterwards
    calls, real = [], cli.build_level

    def counted(*args):
        calls.append(args[0].ndof)
        return real(*args)

    monkeypatch.setattr(cli, "build_level", counted)
    lines = list(level_lines(WORKLOADS["ellipse-p1-averaged"], 2))
    assert calls == [48, 96]
    assert cli.build_level is counted
    assert [line.split()[2] for line in lines if line.split()[3] == "A"] == ["1", "2"]
