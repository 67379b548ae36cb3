"""``tools/ab.py``: its statistics on fixed samples, its line counts and
its report of differing rows, and runs of a tree against itself: from
directories, from revisions, and under the caller's BLAS thread settings."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from calderon_bench.cli import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]

from ab import differing_rows, line_counts, main, paired_stats, tree_lines  # noqa: E402
from workloads import PRECONDS, WORKLOADS  # noqa: E402

WORKLOAD = "ellipse-p1-averaged"
PARENT = [1.00, 1.10, 0.95, 1.20, 1.05, 0.98, 1.02, 1.15, 0.99, 1.08]


def test_a_constant_shift_inside_the_parents_spread_is_unresolved():
    s = paired_stats(PARENT, [x - 0.05 for x in PARENT])
    assert s["median_diff"] == pytest.approx(-0.05)
    assert s["ratio"] == pytest.approx(-0.05 / 1.035)
    assert (s["wins"], s["losses"], s["ties"]) == (10, 0, 0)
    assert s["ci95"] == pytest.approx([-0.05, -0.05])
    assert s["parent_quartiles"] == pytest.approx([0.9925, 1.035, 1.095])
    assert s["verdict"] == "unresolved"         # 0.05 is less than the IQR 0.1025


def test_a_shift_beyond_the_parents_spread_resolves_both_ways():
    assert paired_stats(PARENT, [x - 0.2 for x in PARENT])["verdict"] == "faster"
    assert paired_stats(PARENT, [x + 0.2 for x in PARENT])["verdict"] == "slower"
    # nine wins of ten are enough, eight are not
    nine = [x - 0.2 for x in PARENT[:9]] + [PARENT[9] + 0.2]
    eight = [x - 0.2 for x in PARENT[:8]] + [x + 0.2 for x in PARENT[8:]]
    assert paired_stats(PARENT, nine)["verdict"] == "faster"
    assert paired_stats(PARENT, eight)["verdict"] == "unresolved"
    # and fewer than ten pairs resolve nothing
    assert paired_stats(PARENT[:9], [x - 0.2 for x in PARENT[:9]])["verdict"] == "unresolved"


def test_the_bootstrap_interval_is_fixed_and_holds_the_median():
    change = [1.01, 1.05, 0.99, 1.18, 1.10, 0.93, 1.02, 1.12, 1.03, 1.02]
    a, b = paired_stats(PARENT, change), paired_stats(PARENT, change)
    assert a == b
    lo, hi = a["ci95"]
    assert lo <= a["median_diff"] <= hi and lo < 0 < hi
    assert a["ci95_width"] == pytest.approx(hi - lo)
    assert (a["wins"], a["losses"], a["ties"]) == (5, 4, 1)
    assert a["median_diff"] == pytest.approx(-0.01)
    assert a["verdict"] == "unresolved"


def ab(parent, change, **env):
    """The JSON report of two pairs of the workload, ``env`` added to the environment."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), parent, change,
                          "--workload", WORKLOAD, "--pairs", "2"], env={**os.environ, **env},
                         capture_output=True, text=True, check=True, timeout=300).stdout
    return json.loads(out.splitlines()[-1])


@pytest.fixture(scope="module")
def itself():
    return ab(str(ROOT), str(ROOT), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def test_one_pair_per_half_of_a_tree_against_itself(itself):
    assert itself["csv_identical"] and itself["pairs"] == 2
    assert itself["tracemalloc_peak_mib"]["parent"] > 0
    assert itself["blas_threads"] == {"parent": "1", "change": "1"}
    for t in ("wall", "cpu"):
        assert itself[t]["wins"] + itself[t]["losses"] + itself[t]["ties"] == 2
        assert len(itself[t]["half_median_diffs"]) == 2
        assert itself[t]["verdict"] == "unresolved"


def test_line_counts_leave_out_docstrings_comments_and_blanks():
    source = ('"""Module doc."""\n\n# a comment\nX = 1  # trailing\n\n\ndef f():\n'
              '    """Doc\n    of two lines."""\n    return (1,\n            2)\n')
    assert line_counts(source) == (11, 4)      # X = 1, def f, and the two-line return


def test_rows_match_the_files_and_the_table(itself):
    # the counts themselves are checked against the files in test_fingerprint.py
    assert itself["lines"]["parent"] == {k: list(v) for k, v in tree_lines(ROOT).items()}
    rows = itself["rows"]["parent"]
    assert itself["rows"]["change"] == rows and itself["differing_rows"] == []
    digests = [v for name, v in rows.items() if name.startswith("level") and "kappa" not in name]
    assert digests and all(re.fullmatch("[0-9a-f]{64}", v) for v in digests)
    for row in run_experiment(ExperimentConfig(**WORKLOADS[WORKLOAD].config_fields())):
        kappas = {name.split()[3]: float.fromhex(v) for name, v in rows.items()
                  if name.startswith(f"level {row.level} kappa")}
        assert list(kappas) == list(PRECONDS)
        # bit for bit where BLAS runs one thread in both; the test's own
        # thread count may reorder sums at the finer levels
        assert kappas == (row.kappas if row.level == 1 else pytest.approx(row.kappas, rel=1e-12))
    # each level is built once, hashed as the run builds it
    assert [name.split()[1] for name in rows if name.endswith(" A")] == ["1", "2", "3", "4", "5"]
    # the scipy modules that the run path loaded, then verify's passes
    assert rows["imports"] == "scipy.linalg._fblas scipy.linalg._flapack scipy.sparse._sparsetools"
    assert {v[:4] for name, v in rows.items() if name.startswith("verify")} == {"PASS"}


def test_differing_rows_name_changed_dropped_and_added_rows():
    parent = {"level 1 A": "aa", "level 1 kappa mass": "0x1p+3", "imports": "x"}
    change = {"level 1 A": "ab", "level 1 kappa mass": "0x1p+3", "verify 1": "PASS"}
    assert differing_rows(parent, change) == [["level 1 A", "aa", "ab"], ["imports", "x", None],
                                              ["verify 1", None, "PASS"]]
    assert differing_rows(parent, dict(parent)) == []


def test_rows_do_not_depend_on_the_callers_blas_threads(itself):
    # two threads where the fixture sets one: verify's residuals would show them
    report = ab(str(ROOT), str(ROOT), OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    assert report["blas_threads"] == {"parent": "1", "change": "1"}
    assert report["rows"] == itself["rows"]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the repository's history")
def test_revisions_are_extracted_and_compared():
    report = ab("HEAD", "HEAD")
    assert report["csv_identical"] and report["differing_rows"] == []
    assert report["lines"]["parent"] == report["lines"]["change"]


def test_fewer_than_two_pairs_are_refused():
    with pytest.raises(SystemExit):
        main([str(ROOT), str(ROOT), "--workload", WORKLOAD, "--pairs", "1"])
