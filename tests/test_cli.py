import csv
import io
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import calderon_bench
from calderon_bench import boundary_operators as bops
from calderon_bench import cli, fespace, precond, spectral
from calderon_bench.cli import (ExperimentConfig, emit_table, main,
                                read_config, run_experiment)
from calderon_bench.mesh import corner_schedule, refine
from calderon_bench.precond import RichardsonDivergenceError, richardson_weight
from calderon_bench.spectral import TAU, Csr, MirrorError, kappa, mirror_residual

from helpers import BLOCK_SIZES, corner_level, corner_mesh

ALL_SIX = ("lumped", "mass", "richardson:2", "richardson:4", "richardson:6", "jacobi")


@pytest.fixture(scope="module")
def tiny_rows():
    cfg = ExperimentConfig(geometry="square", degree=1, levels=2,
                           preconds=("lumped", "mass"))
    return cfg, run_experiment(cfg)


# scipy's extension modules that hold the run path's LAPACK, BLAS and CSR
# kernels, loaded by file location (``calderon_bench._kernels``)
KERNEL_MODULES = ["scipy.linalg._fblas", "scipy.linalg._flapack", "scipy.sparse._sparsetools"]


def _run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(calderon_bench.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_run_path_loads_no_scipy_package():
    # a bare ``import calderon_bench`` loads none of its modules, no numpy
    # and no scipy; building a geometry loads ``geometry`` and ``quadrature``
    # alone; a level-2 table of each benchmark workload, with its six
    # columns, loads the three kernel modules and nothing else of scipy: not
    # its package init, scipy.linalg, scipy.sparse or scipy._lib; only
    # ``verify`` reads the dual basis; and numpy.ma, which numpy's plain
    # ``unique`` imports, stays unloaded
    code = f"""
import sys
def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)
import calderon_bench
print(loaded("calderon_bench"), loaded("scipy"), "numpy" in sys.modules)
calderon_bench.make_geometry("ellipse", 0.5, 2.0)
print(loaded("calderon_bench"))
from calderon_bench.cli import ExperimentConfig, emit_table, run_experiment
for geometry, degree, inner in (("square", 3, "exact"), ("ellipse", 1, "mesh-averaged")):
    cfg = ExperimentConfig(geometry=geometry, degree=degree, levels=2, inner_product=inner,
                           preconds={ALL_SIX!r})
    emit_table(run_experiment(cfg), cfg.fmt, None, cfg)
print(loaded("scipy"))
print("calderon_bench.duals" in sys.modules, "numpy.ma" in sys.modules)
"""
    assert _run_fresh(code).splitlines() == [
        "['calderon_bench'] [] False",
        "['calderon_bench', 'calderon_bench.geometry', 'calderon_bench.quadrature']",
        str(KERNEL_MODULES), "False False"]


def test_python_m_runs_the_command(tmp_path):
    # ``python -m calderon_bench`` is the command without an install, and
    # running it raises no RuntimeWarning (here an error) about the package
    # importing ``cli`` before it runs
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(calderon_bench.__file__)))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "calderon_bench",
                          "run", "--levels", "1", "--precond", "lumped"], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    header, row = out.stdout.splitlines()
    assert header == "level,h_min,h_max,dofs,lumped" and row.startswith("1,"), out.stdout


def test_run_single_level_lumped():
    cfg = ExperimentConfig(geometry="square", degree=1, levels=1,
                           preconds=("lumped",))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].kappas["lumped"] >= 1.0
    assert rows[0].dofs == rows[0].level * 0 + 48


def test_run_allocation_peak():
    """One level is alive at a time, M is sparse from the start, A and B
    are folded in their scatter buffers, and assembly holds only O(P)
    arrays and one chunk besides them.  The allocation peaks of the
    benchmark's tables (five levels) stay below these bounds:
    - square-p3-corner (N = 1248 at the last level): 50 MiB (measured:
      33.1 MiB, at the level-5 blocks; with the previous level alive
      through assembly, a dense M and A, B formed as new arrays it read
      75.0 MiB, at assembly);
    - ellipse-p1-averaged (N = 416): 6.5 MiB (measured: 5.4 MiB, at the
      level-5 assembly; with an orbit search over all P^2/2 panel pairs
      and a P x P admissibility mask it read 9.4 MiB)."""
    for fields, bound in ((dict(geometry="square", degree=3, inner_product="exact"), 50),
                          (dict(geometry="ellipse", degree=1, inner_product="mesh-averaged"), 6.5)):
        cfg = ExperimentConfig(levels=5, preconds=ALL_SIX, **fields)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2 ** 20, (fields, peak / 2 ** 20)


def test_rows_are_ordered_and_finite(tiny_rows):
    cfg, rows = tiny_rows
    assert [r.level for r in rows] == [1, 2]
    assert rows[1].h_min < rows[0].h_min
    for r in rows:
        assert all(np.isfinite(v) for v in r.kappas.values())
        assert r.dofs == 48 * r.level  # 48, 96 on this family


def test_csv_roundtrip(tiny_rows):
    cfg, rows = tiny_rows
    text = emit_table(rows, "csv", None, cfg)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["level", "h_min", "h_max", "dofs", "lumped", "mass"]
    assert len(parsed) == 3
    assert int(parsed[1][0]) == 1
    assert float(parsed[2][4]) == pytest.approx(rows[1].kappas["lumped"], rel=1e-3)


def test_csv_empty_rows_header_only():
    cfg = ExperimentConfig(preconds=("lumped",))
    text = emit_table([], "csv", None, cfg)
    assert text == "level,h_min,h_max,dofs,lumped\n"


def test_markdown_column_count(tiny_rows):
    cfg, rows = tiny_rows
    text = emit_table(rows, "md", None, cfg)
    table_lines = [l for l in text.splitlines() if l.startswith("|")]
    ncols = table_lines[0].count("|") - 1
    assert ncols == 4 + len(cfg.preconds)
    assert "s = 0.5" in text


def test_scientific_notation_four_significant_digits(tiny_rows):
    cfg, rows = tiny_rows
    text = emit_table(rows, "csv", None, cfg)
    cell = text.splitlines()[1].split(",")[1]
    mantissa, _, exp = cell.partition("e")
    assert len(mantissa.replace(".", "").lstrip("0")) == 4


def test_rerun_is_byte_identical(tiny_rows):
    cfg, rows = tiny_rows
    again = run_experiment(cfg)
    assert emit_table(rows, "csv", None, cfg) == emit_table(again, "csv", None, cfg)


def test_config_file_and_override(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(
        "geometry = circle\n"
        "degree = 1\n"
        "levels = 3   # overridden below\n"
        "preconds = lumped,jacobi\n"
    )
    values = read_config(path)
    assert values["geometry"] == "circle" and values["levels"] == 3
    rc = main(["run", "--config", str(path), "--levels", "1",
               "--output", str(tmp_path / "out.csv")])
    assert rc == 0
    header = (tmp_path / "out.csv").read_text().splitlines()[0]
    assert header == "level,h_min,h_max,dofs,lumped,jacobi"
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 2


def test_config_file_takes_the_flag_spellings(tmp_path, capsys):
    # a config key may be spelled as its field or as its flag: format and
    # precond as well as fmt and preconds
    path = tmp_path / "flags.cfg"
    path.write_text("format = md\nprecond = lumped\nlevels = 1\n")
    assert read_config(path) == {"fmt": "md", "preconds": "lumped", "levels": 1}
    assert main(["run", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == ["| level | h_min | h_max | dofs | lumped |", "|---|---|---|---|---|"]
    assert len(lines) == 5
    path.write_text("fmt = md\npreconds = lumped\nlevels = 1\n")
    assert read_config(path) == {"fmt": "md", "preconds": "lumped", "levels": 1}


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("style = fancy\n")
    with pytest.raises(ValueError):
        read_config(path)


def test_bad_precond_name():
    with pytest.raises(ValueError):
        main(["run", "--precond", "ilu", "--levels", "1"])


@pytest.mark.parametrize("spec, match", [
    ("", "empty"), (" , ", "empty"),
    ("lumped,mass,lumped", "twice"), ("richardson:2, richardson:2", "twice"),
    ("richardson:02", "leading zeros"), ("lumped,richardson:00", "leading zeros"),
    ("richardson:\u00b2", "unknown preconditioner"),
    ("lumped,richardson:3,richardson:\u0663", "unknown preconditioner"),
])
def test_bad_precond_list(spec, match, capsys):
    # each would print a table whose columns do not match the list: none,
    # fewer than asked, or one coupling twice under two spellings (a
    # superscript or Arabic-Indic digit is a digit to str.isdigit)
    with pytest.raises(ValueError, match=match):
        main(["run", "--precond", spec, "--levels", "1"])
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(preconds=spec)
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(preconds=tuple(spec.split(",")))


def _dense_text(X):
    """The dump of a dense matrix: its order n, then n rows of n decimals
    that read back to the same floats."""
    return f"{len(X)}\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in X)


def test_dump_matrices_flag(tmp_path):
    out = tmp_path / "dumps"
    rc = main(["run", "--geometry", "square", "--levels", "1",
               "--precond", "lumped", "--dump-matrices", str(out),
               "--output", str(tmp_path / "t.csv")])
    assert rc == 0
    assert sorted(os.listdir(out)) == [f"level1_{name}.txt"
                                       for name in ("A", "B", "D", "M", "mesh")]
    first = (out / "level1_A.txt").read_text().splitlines()
    assert int(first[0]) == len(first) - 1
    # M is held sparse on the run path; its dump is the dense M's, byte for byte
    cfg = ExperimentConfig(geometry="square", levels=1)
    s = cli.build_space(cli.level_mesh(cfg, cli.make_geometry("square", 0.5, 2.0), 1), 1)
    M = cli.mass_matrix(s, "exact", n_quad=12)
    assert (out / "level1_M.txt").read_text() == _dense_text(M)


@pytest.fixture(scope="module")
def ellipse_dumps(tmp_path_factory):
    """The dump directory of a level-2 cubic ellipse run with the
    mesh-averaged product."""
    out = tmp_path_factory.mktemp("dumps")
    assert main(["run", "--geometry", "ellipse", "--degree", "3", "--levels", "2",
                 "--inner-product", "mesh-averaged", "--precond", "lumped",
                 "--dump-matrices", str(out), "--output", str(out / "t.csv")]) == 0
    return out


def test_dense_dump_roundtrip(ellipse_dumps):
    """A, B and the dense M of each level: a line holding n, then n rows of
    n decimals, which np.loadtxt reads back to the level's matrices
    exactly."""
    for k in (1, 2):
        lev = corner_level("ellipse", k, 3, "mesh-averaged")
        for name, X in (("A", lev.A), ("B", lev.B), ("M", lev.M.toarray())):
            path = ellipse_dumps / f"level{k}_{name}.txt"
            assert path.read_text() == _dense_text(X)
            assert np.array_equal(np.loadtxt(path, skiprows=1), X)


def test_dump_format(ellipse_dumps):
    """D of each level: one line of n decimals.  The mesh: one line
    ``panel_id chart t0 t1 length`` per panel, the two ids as integers.
    np.loadtxt reads both back to the level's arrays exactly."""
    for k in (1, 2):
        D, m = corner_level("ellipse", k, 3, "mesh-averaged").D, corner_mesh("ellipse", k)
        path = ellipse_dumps / f"level{k}_D.txt"
        assert path.read_text() == " ".join(f"{v:.17g}" for v in D) + "\n"
        assert np.array_equal(np.loadtxt(path), D)
        path = ellipse_dumps / f"level{k}_mesh.txt"
        assert path.read_text() == "".join(
            f"{i} {p.chart} {p.t0:.17g} {p.t1:.17g} {p.length:.17g}\n"
            for i, p in enumerate(m.panels))
        back = np.loadtxt(path)
        assert back.shape == (m.n_panels, 5)
        for column, a in zip(back.T, (np.arange(m.n_panels), m.chart, m.t0, m.t1, m.length)):
            assert np.array_equal(column, a)


def _weight_ten(monkeypatch):
    """The run's Richardson weight set to 10, above 2/lambda_max on every mesh."""
    real = cli.richardson_weight
    monkeypatch.setattr(cli, "richardson_weight", lambda *args: (*real(*args)[:2], 10.0))


def test_error_annotates_level(monkeypatch):
    # omega >= 2/lambda_max depends on the mesh, so only the level can tell
    _weight_ten(monkeypatch)
    cfg = ExperimentConfig(geometry="square", degree=1, levels=1, preconds=("richardson:1",))
    with pytest.raises(RuntimeError, match="level 1: omega=10.0"):
        run_experiment(cfg)


def test_verify_subcommand_passes(capsys):
    assert main(["verify"]) == 0
    # the level-3 blocks: D4's five on the square, the axis mirrors' four
    # on the ellipse; and the guard's residual of M and D on each, far below
    # TAU (measured: 4.7e-16 and 6.9e-15); and of the 6 x (5 + 4) blocks
    # of the six columns, at least block 0 of each column and at most
    # half of the rest tridiagonalized for kappa (measured: 23)
    out = capsys.readouterr().out
    found = re.search(r"square blocks 61/60/60/59/120, M and D mirror residual (\S+), "
                      r"ellipse blocks 41/40/40/39, M and D mirror residual (\S+),", out)
    assert found and max(map(float, found.groups())) < 1e-13, out
    exact = re.search(r"tridiagonalized (\d+)/54$", out, re.M)
    assert exact and 12 <= int(exact.group(1)) <= 12 + 42 // 2, out


def test_config_rejects_misspelled_refine(tmp_path):
    # a config-file value bypasses argparse choices; it must not fall back
    # to uniform refinement
    path = tmp_path / "typo.cfg"
    path.write_text("refine = corners\nlevels = 2\ndegree = 1\n")
    with pytest.raises(ValueError, match="refine"):
        main(["run", "--config", str(path), "--output", str(tmp_path / "t.csv")])
    assert not (tmp_path / "t.csv").exists()


def test_config_rejects_zero_levels():
    with pytest.raises(ValueError, match="levels"):
        main(["run", "--levels", "0"])


def test_config_rejects_unknown_format(tmp_path):
    path = tmp_path / "fmt.cfg"
    path.write_text("fmt = html\n")
    with pytest.raises(ValueError, match="format"):
        main(["run", "--config", str(path)])
    with pytest.raises(ValueError, match="format"):
        ExperimentConfig(fmt="html")


@pytest.mark.parametrize("field, value", [
    ("degree", 2), ("geometry", "circel"), ("inner_product", "averaged"),
])
def test_config_file_rejects_bad_choice(tmp_path, field, value):
    # config-file values bypass argparse choices; each must fail when the
    # config is built, before any level is assembled, not print a table
    path = tmp_path / "bad.cfg"
    path.write_text(f"{field} = {value}\nlevels = 1\npreconds = lumped,mass\n")
    with pytest.raises(ValueError, match=field):
        main(["run", "--config", str(path)])
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_config_rejects_richardson_zero_steps():
    with pytest.raises(ValueError, match="richardson:0"):
        main(["run", "--precond", "lumped,richardson:0", "--levels", "1"])
    with pytest.raises(ValueError):
        ExperimentConfig(preconds=("richardson:0",))
    assert ExperimentConfig(preconds="lumped, richardson:3").preconds == (
        "lumped", "richardson:3")


# kappa tables pinned at the consolidation of the panel-sample layer; any
# change to assembly, Gram matrices, preconditioners or kappa shows here
GOLDEN = {
    ("square", 3, "exact"): (
        "level,h_min,h_max,dofs,lumped,mass,richardson:2,richardson:4,richardson:6,jacobi\n"
        "1,7.812e-03,1.250e-01,144,1.485e+01,7.561e+00,7.256e+00,6.930e+00,7.165e+00,4.032e+02\n"
        "2,2.441e-04,6.250e-02,288,1.478e+01,7.610e+00,7.260e+00,6.903e+00,7.162e+00,1.670e+03\n"
    ),
    ("ellipse", 1, "mesh-averaged"): (
        "level,h_min,h_max,dofs,lumped,mass,richardson:2,richardson:4,richardson:6,jacobi\n"
        "1,3.069e-03,8.575e-02,48,1.300e+01,1.527e+01,2.490e+01,1.638e+01,1.558e+01,1.300e+01\n"
        "2,9.587e-05,4.746e-02,96,1.294e+01,1.541e+01,2.481e+01,1.629e+01,1.559e+01,1.294e+01\n"
    ),
}


@pytest.mark.parametrize("geometry,degree,inner", list(GOLDEN))
def test_golden_kappa_tables(geometry, degree, inner):
    cfg = ExperimentConfig(geometry=geometry, degree=degree, inner_product=inner,
                           levels=2, preconds=ALL_SIX)
    assert emit_table(run_experiment(cfg), "csv") == GOLDEN[geometry, degree, inner]


# ---------------------------------------------------------------------------
# the run path builds every G on the blocks of A's factor


def _spy_levels(monkeypatch):
    """Record the Level of every ``build_level`` call."""
    seen, real = [], cli.build_level

    def spy(*args):
        lev = real(*args)
        seen.append(lev)
        return lev

    monkeypatch.setattr(cli, "build_level", spy)
    return seen


def _dense_kappas(lev, names, omega):
    """kappa of each G built at full size, with one dense factor of A."""
    return {n: kappa(cli._build_precond(n, lev.B, lev.M, lev.D, omega), lev.A) for n in names}


@pytest.mark.parametrize("geometry,degree,inner", [("square", 1, "exact"),
                                                   ("square", 3, "exact"),
                                                   ("ellipse", 1, "mesh-averaged")])
def test_run_kappa_matches_dense_path(monkeypatch, geometry, degree, inner):
    seen = _spy_levels(monkeypatch)
    cfg = ExperimentConfig(geometry=geometry, degree=degree, inner_product=inner,
                           levels=4, preconds=ALL_SIX)
    rows = run_experiment(cfg)
    omega = richardson_weight(1, degree)[2]
    for row, lev in zip(rows, seen, strict=True):
        assert lev.factor.sizes == BLOCK_SIZES[geometry, degree][row.level - 1], row.level
        for name, ref in _dense_kappas(lev, ALL_SIX, omega).items():
            assert row.kappas[name] == pytest.approx(ref, rel=1e-10), (row.level, name)


def test_each_level_factors_a_and_b_blocks_once(monkeypatch):
    # the Cholesky factors of A's and B's blocks are the SPD checks, and
    # B's are kept for the builders: no builder and no kappa factors again
    seen = _spy_levels(monkeypatch)
    calls, real = [], np.linalg.cholesky

    def counted(X):
        calls.append(X.shape)
        return real(X)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    run_experiment(ExperimentConfig(geometry="square", degree=3, levels=2, preconds=ALL_SIX))
    assert calls == [(n, n) for lev in seen for n in 2 * lev.factor.sizes]


def _run_refused(monkeypatch, cfg):
    """The error of ``run_experiment(cfg)`` on a level whose M or D the
    mirror guard refuses, with assembly counted: it must not run."""
    assembled, real = [], bops.assemble_operator_pair
    monkeypatch.setattr(bops, "assemble_operator_pair",
                        lambda *args: assembled.append(args) or real(*args))
    with pytest.raises(RuntimeError) as info:
        run_experiment(cfg)
    assert assembled == []
    assert type(info.value.__cause__) is MirrorError
    return str(info.value)


@pytest.mark.parametrize("which", ["D", "M"])
def test_broken_mirror_fails_before_assembly(monkeypatch, which):
    # D (or M, which the guard reads sparse) moved off its mirror images by
    # 1e-6 max|X| at one entry (M: one symmetric entry pair): the first
    # level fails before assembly, naming the matrix, the mirror and the
    # residual
    def broken(X):
        X = X.copy()
        if X.ndim == 1:
            X[3] += 1e-6 * X.max()
        else:
            X[3, 5] += 1e-6 * np.abs(X).max()
            X[5, 3] = X[3, 5]
        return X

    name = "lumped_matrix" if which == "D" else "mass_matrix"
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kw: broken(real(*args, **kw)))
    message = _run_refused(monkeypatch, ExperimentConfig(geometry="square", degree=3, levels=2,
                                                         preconds=ALL_SIX))
    assert message == (f"level 1: {which} does not commute with the x mirror: relative "
                       f"residual 1.0e-06 > 1e-07"), message


def test_broken_diagonal_mirror_fails_before_assembly(monkeypatch):
    # M moved by 1e-6 max|M| at one entry pair and at all its images under
    # the axis mirrors, but not under the diagonal one: the error names the
    # diagonal mirror, not the axis mirrors that M commutes with
    real = cli.mass_matrix

    def broken(s, *args, **kw):
        px, py, pd = s.mirrors.perms
        M = real(s, *args, **kw).copy()
        top = np.abs(M).max()
        for i, j in {(g[3], g[5]) for g in (np.arange(s.ndof), px, py, px[py])}:
            M[i, j] += 1e-6 * top
            M[j, i] = M[i, j]
        rx, ry, rd = mirror_residual(Csr.from_dense(M), (px, py, pd))
        assert max(rx, ry) <= TAU < rd
        return M

    monkeypatch.setattr(cli, "mass_matrix", broken)
    message = _run_refused(monkeypatch, ExperimentConfig(geometry="square", degree=3, levels=2,
                                                         preconds=ALL_SIX))
    assert message.startswith("level 1: M does not commute with the diagonal mirror: "
                              "relative residual 1.0e-06"), message


def test_wrong_dof_map_fails_before_assembly(monkeypatch):
    # p_x of the level-1 cubic square with the interior dofs of panel 0 and
    # its image sent across unreversed: a fault of the maps, not of M or D.
    # Assembly would copy A's and B's entries by the wrong map, so the
    # guard stops the level first, and no CoercivityError follows
    real = fespace.mirror_permutations

    def unreversed(s):
        (px, jx), *rest = real(s)
        px, (i, j) = px.copy(), (0, jx[0])
        px[s.conn[i, 1:-1]], px[s.conn[j, 1:-1]] = s.conn[j, 1:-1], s.conn[i, 1:-1]
        return ((px, jx), *rest)

    monkeypatch.setattr(fespace, "mirror_permutations", unreversed)
    message = _run_refused(monkeypatch, ExperimentConfig(geometry="square", degree=3, levels=1,
                                                         preconds=ALL_SIX))
    assert message.startswith("level 1: M does not commute with the x mirror: "
                              "relative residual "), message


def test_mesh_without_mirror_runs_as_one_block(monkeypatch):
    # one panel refined on one side of the ellipse: no mirror maps the mesh
    # onto itself
    monkeypatch.setattr(cli, "level_mesh", lambda cfg, g, k: refine(corner_schedule(g, 1), {1}))
    seen = _spy_levels(monkeypatch)
    rows = run_experiment(ExperimentConfig(geometry="ellipse", degree=1, levels=1,
                                           preconds=ALL_SIX))
    lev, = seen
    assert lev.space.mirrors.perms == () and lev.factor.sizes == (rows[0].dofs,)
    for name, ref in _dense_kappas(lev, ALL_SIX, richardson_weight(1, 1)[2]).items():
        assert rows[0].kappas[name] == ref, name


def test_no_full_size_preconditioner_on_the_blocks(monkeypatch):
    # every builder receives B as the five blocks of D4 and returns five;
    # the sparse coupling work runs once per level: an RCM order of each of
    # M's blocks (5), one contraction check, and banded factors of M's
    # blocks (5), which the check reads for M, and of (2/omega) D - M on
    # each block (5) for the check
    received, calls = [], {"rcm": 0, "check": 0, "banded": 0}
    for name in ("lumped_precond", "mass_precond", "jacobi_precond", "richardson_precond"):
        def spy(B, *args, _real=getattr(cli, name)):
            G = _real(B, *args)
            received.append((B, G))
            return G
        monkeypatch.setattr(cli, name, spy)
    for key, name in (("rcm", "reverse_cuthill_mckee"), ("check", "_check_contraction"),
                      ("banded", "_banded_cholesky")):
        def counted(*args, _key=key, _real=getattr(precond, name), **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(precond, name, counted)
    levels = 2
    rows = run_experiment(ExperimentConfig(geometry="square", degree=3, levels=levels,
                                           preconds=ALL_SIX))
    assert len(received) == levels * len(ALL_SIX)
    sizes = [(r.dofs, BLOCK_SIZES["square", 3][r.level - 1]) for r in rows for _ in ALL_SIX]
    for (B, G), (n, n_k) in zip(received, sizes):
        assert isinstance(B, tuple) and tuple(b.shape[0] for b in B) == n_k
        assert sum(n_k) == 3 * n // 4
        assert isinstance(G, tuple) and [g.shape for g in G] == [b.shape for b in B]
        assert max(b.shape[0] for b in B) < n
    assert calls == {"rcm": levels * 5, "check": levels, "banded": levels * (5 + 5)}


def test_level_setup_cuts_m_once_and_builds_each_basis_block_once(monkeypatch):
    # per level, M is made once as a CSR record, the character bases make
    # one record per block (from its arrays), M's blocks are formed once by
    # project_sparse, three records each (Q_k^T, Q_k^T M and the block),
    # and held by the Coupling as they came; no record is made afterwards,
    # and a record has no slicing: the guard, the band storage, the
    # contraction check and the Richardson chain read arrays
    made, bases, projected = [], [], []
    real_init = spectral.Csr.__post_init__

    def init(self):
        made.append(type(self).__name__)
        real_init(self)

    def counted_bases(group, _real=spectral.character_bases):
        start = len(made)
        out = _real(group)
        bases.append((out, made[start:]))
        return out

    def counted_projection(self, S, _real=spectral.BlockFactor.project_sparse):
        start = len(made)
        projected.append((_real(self, S), made[start:]))
        return projected[-1][0]

    monkeypatch.setattr(spectral.Csr, "__post_init__", init)
    monkeypatch.setattr(spectral, "character_bases", counted_bases)
    monkeypatch.setattr(spectral.BlockFactor, "project_sparse", counted_projection)
    seen = _spy_levels(monkeypatch)
    levels = 3
    run_experiment(ExperimentConfig(geometry="square", degree=3, levels=levels, preconds=ALL_SIX))
    assert len(seen) == len(bases) == len(projected) == levels
    for lev, (Qs, kinds), (blocks, formed) in zip(seen, bases, projected):
        assert kinds == ["Csr"] * len(Qs) == ["Csr"] * len(lev.factor.sizes)
        assert len(blocks) == len(lev.factor.sizes) and formed == ["Csr"] * 3 * len(blocks)
        assert all(a is b for a, b in zip(lev.coupling.blocks, blocks, strict=True))
        assert isinstance(lev.M, spectral.Csr)
    assert len(made) == levels * (1 + 4 * 5)
    with pytest.raises(TypeError):
        seen[0].M[0]


def test_bad_omega_raises_through_the_blocks(monkeypatch):
    # a weight that breaks the contraction on the mesh is caught by the one
    # check per level, and reported with the level
    _weight_ten(monkeypatch)
    cfg = ExperimentConfig(geometry="square", degree=3, levels=2, preconds=ALL_SIX)
    with pytest.raises(RuntimeError, match="level 1: omega=10.0") as info:
        run_experiment(cfg)
    assert isinstance(info.value.__cause__, RichardsonDivergenceError)


def test_public_names_resolve():
    for name in calderon_bench.__all__:
        assert getattr(calderon_bench, name) is not None, name


def test_the_namespace_is_lazy():
    # after a bare import each module of the package is an attribute; each
    # public name is its defining module's object; ``dir`` lists ``__all__``;
    # ``import *`` binds all of it; other names fail as attributes do
    code = """
import importlib, pathlib, sys
import calderon_bench
pkg = pathlib.Path(calderon_bench.__file__).parent
modules = sorted(p.stem for p in pkg.glob("*.py") if p.stem not in ("__init__", "__main__"))
print(all(getattr(calderon_bench, m) is sys.modules["calderon_bench." + m] for m in modules))
print(all(getattr(calderon_bench, n) is getattr(
    importlib.import_module("calderon_bench." + calderon_bench._MODULE_OF[n]), n)
    for n in calderon_bench.__all__))
print(set(calderon_bench.__all__) <= set(dir(calderon_bench)))
try:
    calderon_bench.nope
except AttributeError as exc:
    print(exc)
"""
    assert _run_fresh(code).splitlines() == [
        "True", "True", "True", "module 'calderon_bench' has no attribute 'nope'"]
    star = _run_fresh("from calderon_bench import *\nimport calderon_bench\n"
                      "print(all(globals()[n] is getattr(calderon_bench, n)"
                      " for n in calderon_bench.__all__))\n")
    assert star == "True\n"


def test_output_into_a_missing_directory_fails_before_the_run(tmp_path, monkeypatch):
    # the table would be lost after the whole run: the path is checked first
    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    out = tmp_path / "missing" / "t.csv"
    with pytest.raises(ValueError, match=re.escape(repr(str(out)))):
        main(["run", "--levels", "1", "--output", str(out)])


def test_output_that_is_a_directory_fails_before_the_run(tmp_path, monkeypatch):
    # the table would be lost to an IsADirectoryError after the whole run
    monkeypatch.setattr(cli, "level_mesh", lambda *args: pytest.fail("a level was built"))
    with pytest.raises(ValueError, match=re.escape(f"output {str(tmp_path)!r} must name a file")):
        main(["run", "--levels", "1", "--precond", "lumped", "--output", str(tmp_path)])
    with pytest.raises(ValueError, match="must name a file"):
        run_experiment(ExperimentConfig(levels=1, output=str(tmp_path)))


def test_dump_into_an_existing_file_fails_before_the_run(tmp_path, monkeypatch):
    # os.makedirs raised a bare FileExistsError after level 1 was built
    monkeypatch.setattr(cli, "level_mesh", lambda *args: pytest.fail("a level was built"))
    dump = tmp_path / "dumps"
    dump.write_text("")
    with pytest.raises(ValueError, match=re.escape(repr(str(dump)))):
        main(["run", "--levels", "1", "--precond", "lumped", "--dump-matrices", str(dump),
              "--output", str(tmp_path / "t.csv")])
    assert not (tmp_path / "t.csv").exists()


def test_config_that_sets_a_field_twice_names_both_lines(tmp_path):
    # the last value won, and since a flag's spelling is a key too, fmt and
    # format are easy to set twice by accident
    path = tmp_path / "twice.cfg"
    path.write_text("format = md\nlevels = 1\nfmt = csv\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: fmt already set on line 1$"):
        read_config(path)
    path.write_text("levels = 1\nlevels = 2\n")
    with pytest.raises(ValueError, match="2: levels already set on line 1"):
        main(["run", "--config", str(path)])


@pytest.mark.parametrize("value", ["1.5", "-0.5", "nan", "inf"])
def test_omega_override_refused_as_unknown(tmp_path, capsys, value):
    # the run takes the reference-element weight: a weight given as a flag,
    # a config key or a keyword is refused as unknown, before any level
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit):
        main(["run", "--levels", "1", "--omega-override", value, "--output", str(out)])
    assert "unrecognized arguments: --omega-override" in capsys.readouterr().err
    path = tmp_path / "omega.cfg"
    path.write_text(f"omega_override = {value}\nlevels = 1\n")
    with pytest.raises(ValueError, match="unknown key 'omega_override'"):
        main(["run", "--config", str(path), "--output", str(out)])
    with pytest.raises(TypeError, match="omega_override"):
        ExperimentConfig(omega_override=float(value))
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_alpha_rejected_up_front(tmp_path, value):
    # B~ annihilates constants, so B needs alpha > 0; a bad alpha fails when
    # the config is built, from a flag or a config file, before level 1
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="alpha"):
        main(["run", "--levels", "1", "--alpha", value, "--output", str(out)])
    path = tmp_path / "alpha.cfg"
    path.write_text(f"alpha = {value}\nlevels = 1\n")
    with pytest.raises(ValueError, match="alpha"):
        main(["run", "--config", str(path), "--output", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "3", "57"])
def test_quad_n_rejected_up_front(tmp_path, value):
    # the pair rules need 4 Gauss points and the log rule takes quad_n + 8
    # of gauss_rule's 64; a value outside [4, 56] fails when the config is
    # built, from a flag or a config file, before level 1
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="quad_n"):
        main(["run", "--levels", "1", "--quad-n", value, "--output", str(out)])
    path = tmp_path / "quad.cfg"
    path.write_text(f"quad_n = {value}\nlevels = 1\n")
    with pytest.raises(ValueError, match="quad_n"):
        main(["run", "--config", str(path), "--output", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("geometry, refine, deepest", [
    ("square", "corner", 9), ("circle", "corner", 10), ("ellipse", "corner", 10),
    ("square", "uniform", 49)])
def test_levels_deeper_than_the_schedule_rejected_up_front(monkeypatch, tmp_path, geometry,
                                                            refine, deepest):
    # one level deeper would bisect a panel at an anchor below float
    # resolution, after every lower level had run (level 9 of the cubic
    # square holds dense 13k x 13k matrices); it fails when the config is
    # built, from a flag or a config file, and names the deepest level
    monkeypatch.setattr(cli, "level_mesh", lambda *args: pytest.fail("a level was built"))
    out = tmp_path / "t.csv"
    for levels in (deepest + 1, 60):
        match = rf"levels must be at most {deepest} on the {geometry} with {refine} .*got {levels}"
        with pytest.raises(ValueError, match=match):
            main(["run", "--geometry", geometry, "--refine", refine, "--levels", str(levels),
                  "--output", str(out)])
        path = tmp_path / "levels.cfg"
        path.write_text(f"geometry = {geometry}\nrefine = {refine}\nlevels = {levels}\n")
        with pytest.raises(ValueError, match=match):
            main(["run", "--config", str(path), "--output", str(out)])
    assert not out.exists()
    assert ExperimentConfig(geometry=geometry, refine=refine, levels=deepest).levels == deepest


@pytest.mark.parametrize("field, value", [("levels", 1.5), ("levels", 2.0), ("levels", True),
                                          ("quad_n", 12.5), ("quad_n", 12.0), ("quad_n", True),
                                          ("levels", "2")])
def test_non_integer_counts_rejected_up_front(monkeypatch, field, value):
    # the CLI parses both as int, the Python API does not: a float, a bool
    # or a string fails when the config is built, not in range() or at
    # level 1
    monkeypatch.setattr(cli, "level_mesh", lambda *args: pytest.fail("a level was built"))
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        run_experiment(ExperimentConfig(**{"levels": 1, field: value}))


@pytest.mark.parametrize("field, value", [
    ("degree", True), ("scale", True), ("ellipse_ratio", True), ("alpha", True),
    ("degree", 3.0), ("scale", "0.5")])
def test_bool_and_non_numbers_rejected_up_front(monkeypatch, field, value):
    # True passes the range checks of all four (True in DEGREES, and True
    # is finite and positive); ellipse_ratio=True would make the ellipse a
    # circle.  degree=3.0 and scale="0.5" used to fail later, with a
    # TypeError
    monkeypatch.setattr(cli, "level_mesh", lambda *args: pytest.fail("a level was built"))
    with pytest.raises(ValueError, match=f"{field} must be (an integer|a number), got"):
        run_experiment(ExperimentConfig(**{"geometry": "ellipse", "levels": 1, field: value}))


@pytest.mark.parametrize("field, value", [("dump_matrices", 7), ("output", 3), ("preconds", [1]),
                                          ("preconds", None)])
def test_bad_string_inputs_rejected_up_front(monkeypatch, field, value):
    # dump_matrices=7 died in os.makedirs after level 1, output=3 would be
    # opened as a file descriptor, and preconds=[1] or None died in the
    # parse with an AttributeError or a TypeError
    monkeypatch.setattr(cli, "level_mesh", lambda *args: pytest.fail("a level was built"))
    with pytest.raises(ValueError, match=f"{field} must be a string"):
        run_experiment(ExperimentConfig(**{"levels": 1, field: value}))


def test_one_mirror_search_and_expansion_per_level(monkeypatch):
    # the space carries its mirror group, so assembly and the symmetry
    # basis share one search and one expansion of the maps per level; every
    # module that could hold the two functions is spied
    from calderon_bench import boundary_operators, fespace, spectral
    calls = {"mirror_permutations": 0, "group_elements": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(fespace, name)):
            calls[_name] += 1
            return _real(*args)
        for mod in (fespace, boundary_operators, cli, spectral):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    levels = 3
    rows = run_experiment(ExperimentConfig(geometry="square", degree=1, levels=levels,
                                           preconds=("lumped",)))
    assert len(rows) == levels
    assert calls == {"mirror_permutations": levels, "group_elements": levels}


def test_numpy_integer_counts_accepted():
    cfg = ExperimentConfig(levels=np.int64(1), quad_n=np.int32(8), preconds=("lumped",))
    assert run_experiment(cfg)[0].kappas["lumped"] >= 1.0


@pytest.mark.parametrize("quad_n", [4, 56])
def test_quad_n_at_the_ends_of_its_range_runs(quad_n):
    rows = run_experiment(ExperimentConfig(levels=1, quad_n=quad_n, preconds=("lumped",)))
    assert rows[0].kappas["lumped"] >= 1.0


@pytest.mark.parametrize("field, flags", [
    ("scale", ["--scale", "nan"]),
    ("ellipse_ratio", ["--geometry", "ellipse", "--ellipse-ratio", "nan"]),
    ("ellipse_ratio", ["--geometry", "ellipse", "--ellipse-ratio", "inf"]),
    ("ellipse_ratio", ["--geometry", "square", "--ellipse-ratio", "nan"]),
    ("ellipse_ratio", ["--geometry", "circle", "--ellipse-ratio", "-1"]),
])
def test_non_finite_geometry_rejected_before_level_one(monkeypatch, tmp_path, field, flags):
    # they pass the sign and diameter checks; make_geometry must refuse them
    # before any level is built, not leave them to level-1 assembly
    monkeypatch.setattr(cli, "level_mesh", lambda *args: pytest.fail("a level was built"))
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=field):
        main(["run", "--levels", "1", *flags, "--output", str(out)])
    assert not out.exists()


def test_config_value_that_does_not_parse_names_its_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("levels = 1\n\nquad_n = 2.5\n")
    with pytest.raises(ValueError, match=rf"^{path}:3: quad_n = '2\.5' is not a valid int$"):
        main(["run", "--config", str(path)])
