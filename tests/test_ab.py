"""``tools/ab.py``: its statistics on fixed samples, and one pair per half of
a tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from ab import main, paired_stats  # noqa: E402

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


def test_one_pair_per_half_of_a_tree_against_itself():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
                          "--workload", "ellipse-p1-averaged", "--pairs", "2"],
                         capture_output=True, text=True, check=True, timeout=300).stdout
    report = json.loads(out.splitlines()[-1])
    assert report["csv_identical"] and report["pairs"] == 2
    assert report["tracemalloc_peak_mib"]["parent"] > 0
    for t in ("wall", "cpu"):
        assert report[t]["wins"] + report[t]["losses"] + report[t]["ties"] == 2
        assert len(report[t]["half_median_diffs"]) == 2
        assert report[t]["verdict"] == "unresolved"


def test_fewer_than_two_pairs_are_refused():
    with pytest.raises(SystemExit):
        main([str(ROOT), str(ROOT), "--workload", "ellipse-p1-averaged", "--pairs", "1"])
