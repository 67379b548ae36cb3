import csv
import io

import numpy as np
import pytest

import calderon_bench
from calderon_bench import cli, precond
from calderon_bench.cli import (ExperimentConfig, emit_table, main,
                                read_config, run_experiment)
from calderon_bench.mesh import corner_schedule, refine
from calderon_bench.precond import RichardsonDivergenceError, richardson_weight
from calderon_bench.spectral import kappa

ALL_SIX = ("lumped", "mass", "richardson:2", "richardson:4", "richardson:6", "jacobi")


@pytest.fixture(scope="module")
def tiny_rows():
    cfg = ExperimentConfig(geometry="square", degree=1, levels=2,
                           preconds=("lumped", "mass"))
    return cfg, run_experiment(cfg)


def test_run_single_level_lumped():
    cfg = ExperimentConfig(geometry="square", degree=1, levels=1,
                           preconds=("lumped",))
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].kappas["lumped"] >= 1.0
    assert rows[0].dofs == rows[0].level * 0 + 48


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
])
def test_bad_precond_list(spec, match, capsys):
    # each would print a table whose columns do not match the list: none,
    # fewer than asked, or one coupling twice under two spellings
    with pytest.raises(ValueError, match=match):
        main(["run", "--precond", spec, "--levels", "1"])
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(preconds=spec)
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(preconds=tuple(spec.split(",")))


def test_dump_matrices_flag(tmp_path):
    out = tmp_path / "dumps"
    rc = main(["run", "--geometry", "square", "--levels", "1",
               "--precond", "lumped", "--dump-matrices", str(out),
               "--output", str(tmp_path / "t.csv")])
    assert rc == 0
    for name in ("A", "B", "M", "D", "mesh"):
        assert (out / f"level1_{name}.txt").exists()
    first = (out / "level1_A.txt").read_text().splitlines()
    assert int(first[0]) == len(first) - 1


def test_error_annotates_level():
    # omega >= 2/lambda_max depends on the mesh, so only the level can tell
    cfg = ExperimentConfig(geometry="square", degree=1, levels=1, omega_override=10.0,
                           preconds=("richardson:1",))
    with pytest.raises(RuntimeError, match="level 1: omega=10.0"):
        run_experiment(cfg)


def test_verify_subcommand_passes():
    assert main(["verify"]) == 0


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
    """Record the arguments and the factor of every ``level_blocks`` call."""
    seen, real = [], cli.level_blocks

    def spy(*args):
        out = real(*args)
        seen.append((args, out[0]))
        return out

    monkeypatch.setattr(cli, "level_blocks", spy)
    return seen


def _dense_kappas(args, names, omega):
    """kappa of each G built at full size, with one dense factor of A."""
    A, B, M, D, _ = args
    return {n: kappa(cli._build_precond(n, B, M, D, omega), A) for n in names}


@pytest.mark.parametrize("geometry,degree,inner", [("square", 1, "exact"),
                                                   ("square", 3, "exact"),
                                                   ("ellipse", 1, "mesh-averaged")])
def test_run_kappa_matches_dense_path(monkeypatch, geometry, degree, inner):
    seen = _spy_levels(monkeypatch)
    cfg = ExperimentConfig(geometry=geometry, degree=degree, inner_product=inner,
                           levels=4, preconds=ALL_SIX)
    rows = run_experiment(cfg)
    omega = richardson_weight(1, degree)[2]
    for row, (args, F) in zip(rows, seen, strict=True):
        assert len(F.sizes) == 4, row.level
        for name, ref in _dense_kappas(args, ALL_SIX, omega).items():
            assert row.kappas[name] == pytest.approx(ref, rel=1e-10), (row.level, name)


@pytest.mark.parametrize("which", ["B", "M"])
def test_broken_mirror_runs_as_one_block(monkeypatch, which):
    # B (or M, which the guard reads sparse) moved off its mirror images by
    # 1e-6 max|X| at one symmetric entry pair: every level falls back to one
    # block, which runs the dense arithmetic and gives the dense kappa
    def broken(X):
        X = X.copy()
        X[3, 5] += 1e-6 * np.abs(X).max()
        X[5, 3] = X[3, 5]
        return X

    if which == "B":
        real = cli.bops.assemble_operator_pair
        monkeypatch.setattr(cli.bops, "assemble_operator_pair",
                            lambda *args: (real(*args)[0], broken(real(*args)[1])))
    else:
        real = cli.mass_matrix
        monkeypatch.setattr(cli, "mass_matrix", lambda *args, **kw: broken(real(*args, **kw)))
    seen = _spy_levels(monkeypatch)
    rows = run_experiment(ExperimentConfig(geometry="square", degree=3, levels=2,
                                           preconds=ALL_SIX))
    omega = richardson_weight(1, 3)[2]
    for row, (args, F) in zip(rows, seen, strict=True):
        assert F.sizes == (row.dofs,) and F.residual > 1e-7
        for name, ref in _dense_kappas(args, ALL_SIX, omega).items():
            assert row.kappas[name] == ref, name


def test_mesh_without_mirror_runs_as_one_block(monkeypatch):
    # one panel refined on one side of the ellipse: no mirror maps the mesh
    # onto itself
    monkeypatch.setattr(cli, "level_mesh", lambda cfg, g, k: refine(corner_schedule(g, 1), {1}))
    seen = _spy_levels(monkeypatch)
    rows = run_experiment(ExperimentConfig(geometry="ellipse", degree=1, levels=1,
                                           preconds=ALL_SIX))
    (args, F), = seen
    assert args[4] == () and F.sizes == (rows[0].dofs,)
    for name, ref in _dense_kappas(args, ALL_SIX, richardson_weight(1, 1)[2]).items():
        assert rows[0].kappas[name] == ref, name


def test_no_full_size_preconditioner_on_four_blocks(monkeypatch):
    # every builder receives B as four blocks and returns four; the sparse
    # coupling work runs once per level: one RCM order, one contraction
    # check, and banded factors for it (2) and for M's blocks (4)
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
    sizes = [r.dofs for r in rows for _ in ALL_SIX]
    for (B, G), n in zip(received, sizes):
        assert isinstance(B, tuple) and len(B) == 4 and sum(b.shape[0] for b in B) == n
        assert isinstance(G, tuple) and [g.shape for g in G] == [b.shape for b in B]
        assert max(b.shape[0] for b in B) < n
    assert calls == {"rcm": levels, "check": levels, "banded": levels * (2 + 4)}


def test_bad_omega_raises_through_the_blocks():
    # a weight that breaks the contraction on the mesh is caught by the one
    # check per level, and reported with the level
    cfg = ExperimentConfig(geometry="square", degree=3, levels=2, omega_override=10.0,
                           preconds=ALL_SIX)
    with pytest.raises(RuntimeError, match="level 1: omega=10.0") as info:
        run_experiment(cfg)
    assert isinstance(info.value.__cause__, RichardsonDivergenceError)


def test_public_names_resolve():
    for name in calderon_bench.__all__:
        assert getattr(calderon_bench, name) is not None, name


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
def test_omega_override_rejected_up_front(tmp_path, value):
    # a negative or non-finite weight fails when the config is built, from a
    # flag or a config file, before any level is assembled
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="omega_override"):
        main(["run", "--levels", "1", "--omega-override", value, "--output", str(out)])
    path = tmp_path / "omega.cfg"
    path.write_text(f"omega_override = {value}\nlevels = 1\n")
    with pytest.raises(ValueError, match="omega_override"):
        main(["run", "--config", str(path), "--output", str(out)])
    assert not out.exists()
    assert ExperimentConfig(omega_override=0.0).omega_override == 0.0


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
