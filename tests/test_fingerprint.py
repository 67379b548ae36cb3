"""The rows by which ``tools/ab.py`` fingerprints a tree, taken in this
process: its line counts against the files, each workload's level-one
digests and kappa against the program's table, and one build of each
level."""

import sys
from pathlib import Path

import pytest

from calderon_bench import cli
from calderon_bench.cli import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]

from ab import table_rows, tree_lines  # noqa: E402
from workloads import PRECONDS, WORKLOADS  # noqa: E402


@pytest.fixture
def run(monkeypatch):
    """bench/run.py, imported with the environment it sets restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMPY_MADVISE_HUGEPAGE"):
        monkeypatch.delenv(var, raising=False)
    import run
    return run


def test_fingerprint_of_level_one_matches_the_files_and_the_table(run):
    counts = tree_lines(ROOT)
    modules = sorted((ROOT / "src" / "calderon_bench").glob("*.py"))
    assert sorted(counts) == sorted([p.name for p in modules] + ["total"])
    for p in modules:
        assert counts[p.name][0] == len(p.read_text().splitlines()), p.name
        assert 0 < counts[p.name][1] < counts[p.name][0], p.name
    assert counts["total"] == tuple(map(sum, zip(*(counts[p.name] for p in modules))))
    for name, workload in WORKLOADS.items():
        cfg = ExperimentConfig(**{**workload.config_fields(), "levels": 1})
        rows = table_rows(run, cli, cfg)
        assert not any(n.startswith("level") and not n.startswith("level 1 ") for n in rows)
        for what in ("mesh chart", "mesh t0", "mesh t1", "mesh length", "mesh qlength",
                     "A", "B", "M", "D", "d", "Q0", "LA0", "LB0", "M0", "m"):
            assert len(rows[f"level 1 {what}"]) == 64, (name, what)
        row, = run_experiment(cfg)
        kappas = {n.split()[3]: float.fromhex(v) for n, v in rows.items()
                  if n.startswith("level 1 kappa")}
        assert kappas == row.kappas and list(kappas) == list(PRECONDS), name


def test_fingerprint_builds_each_level_once(run, monkeypatch):
    # the rows come from the levels the run builds, hashed as they are built,
    # not from a second build; the run's own build_level is back afterwards.
    # verify, run last, builds its own levels: those come after the table's
    calls, real = [], cli.build_level

    def counted(*args, **kw):
        calls.append(args[0].ndof)
        return real(*args, **kw)

    monkeypatch.setattr(cli, "build_level", counted)
    cli.main(["verify"])
    verify_calls = list(calls)
    calls.clear()
    cfg = ExperimentConfig(**{**WORKLOADS["ellipse-p1-averaged"].config_fields(), "levels": 2})
    rows = table_rows(run, cli, cfg)
    assert calls == [48, 96] + verify_calls
    assert cli.build_level is counted
    assert [n.split()[1] for n in rows if n.endswith(" A")] == ["1", "2"]
