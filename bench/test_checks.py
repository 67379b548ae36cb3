"""Each benchmark check passes on the program's own output and rejects a
deliberately perturbed table or matrix.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import checks
from calderon_bench import boundary_operators as bops
from calderon_bench import cli
from workloads import WORKLOADS


@dataclasses.dataclass
class Level1:
    space: object
    A: np.ndarray
    B: np.ndarray
    M: np.ndarray
    D: np.ndarray


def _small_run(name, levels):
    wl = WORKLOADS[name]
    cfg = cli.ExperimentConfig(**dict(wl.config_fields(), levels=levels))
    rows = cli.run_experiment(cfg)
    g = cli.make_geometry(cfg.geometry, cfg.scale, cfg.ellipse_ratio)
    meshes = [cli.level_mesh(cfg, g, k) for k in range(1, levels + 1)]
    s = cli.build_space(meshes[0], wl.degree)
    A, B = bops.assemble_operator_pair(s, cfg.quad_n, cfg.alpha)
    lv1 = Level1(s, A, B, cli.mass_matrix(s, cfg.inner_product, n_quad=cfg.quad_n),
                 cli.lumped_matrix(s, cfg.inner_product, n_quad=cfg.quad_n))
    return wl, cfg, rows, cli.emit_table(rows, "csv"), meshes, lv1


@pytest.fixture(scope="module")
def square():
    return _small_run("square-p3-corner", 3)


@pytest.fixture(scope="module")
def ellipse():
    return _small_run("ellipse-p1-averaged", 2)


def _with_kappa(rows, level, name, factor):
    out = list(rows)
    r = out[level - 1]
    kappas = dict(r.kappas, **{name: r.kappas[name] * factor})
    out[level - 1] = dataclasses.replace(r, kappas=kappas)
    return out


def test_table_text(square):
    _, _, rows, text, _, _ = square
    assert checks.table_text(rows, text) == []
    bad = text.replace(f"{rows[1].kappas['mass']:.3e}", f"{rows[1].kappas['mass'] * 1.01:.3e}")
    assert checks.table_text(rows, bad)
    assert checks.table_text(rows, text.rsplit("\n", 2)[0] + "\n")


def test_kappas_valid(square):
    rows = square[2]
    assert checks.kappas_valid(rows) == []
    assert checks.kappas_valid(_with_kappa(rows, 2, "lumped", float("nan")))
    assert checks.kappas_valid(_with_kappa(rows, 2, "lumped", 1e-3))


def test_plateau(square, ellipse):
    for rows in (square[2], ellipse[2]):
        assert checks.plateau(rows, first=1) == []
        assert checks.plateau(_with_kappa(rows, len(rows), "richardson:6", 1.1), first=1)


def test_richardson_near_mass(square):
    rows = square[2]
    assert checks.richardson_near_mass(rows) == []
    mass = rows[0].kappas["mass"]
    bad = _with_kappa(rows, 1, "richardson:6", 1.3 * mass / rows[0].kappas["richardson:6"])
    assert checks.richardson_near_mass(bad)


def test_jacobi_equals_lumped(ellipse):
    rows = ellipse[2]
    assert checks.jacobi_equals_lumped(rows) == []
    assert checks.jacobi_equals_lumped(_with_kappa(rows, 1, "jacobi", 1 + 1e-8))


def test_jacobi_grows(square):
    rows = square[2]
    assert checks.jacobi_grows(rows) == []
    flat = _with_kappa(rows, 3, "jacobi", 5 * rows[0].kappas["jacobi"] / rows[2].kappas["jacobi"])
    assert checks.jacobi_grows(flat)


def test_graded(square):
    rows = square[2]
    last = rows[-1]
    fine = rows[:-1] + [dataclasses.replace(last, h_min=1e-6 * last.h_max)]
    coarse = rows[:-1] + [dataclasses.replace(last, h_min=1e-4 * last.h_max)]
    assert checks.graded(fine) == []
    assert checks.graded(coarse)


def test_dofs_match(square):
    wl, _, rows, _, meshes, _ = square
    panels = [m.n_panels for m in meshes]
    assert checks.dofs_match(rows, panels, wl.degree) == []
    assert checks.dofs_match(rows, panels[:-1] + [panels[-1] + 1], wl.degree)


@pytest.mark.parametrize("run", ["square", "ellipse"])
def test_lumped_sum(run, request):
    wl, _, _, _, _, lv1 = request.getfixturevalue(run)
    length = wl.curve().length()
    assert checks.lumped_sum(lv1.D, length) == []
    D = lv1.D.copy()
    D[0] *= 1 + 1e-6
    assert checks.lumped_sum(D, length)


@pytest.mark.parametrize("run", ["square", "ellipse"])
def test_corner_entries(run, request):
    wl, cfg, _, _, _, lv1 = request.getfixturevalue(run)
    corner = wl.corner_params()[1]
    args = (wl.curve(), lv1.space)
    err = checks.corner_errors(*args, lv1.A, lv1.B, cfg.alpha, [corner])
    assert checks.corner_within(1, err, checks.CORNER_ENTRY_BUDGET) == []
    p = checks.corner_panel(lv1.space.mesh, *corner)
    nu, mu = lv1.space.conn[p][:2]
    for X, i, j in ((lv1.A, nu, nu), (lv1.B, nu, mu)):
        bad = X.copy()
        bad[i, j] *= 1 + 1e-7
        A, B = (bad, lv1.B) if X is lv1.A else (lv1.A, bad)
        err = checks.corner_errors(*args, A, B, cfg.alpha, [corner])
        assert checks.corner_within(1, err, checks.CORNER_ENTRY_BUDGET)


@pytest.mark.parametrize("run", ["square", "ellipse"])
def test_kappa_independent_routes(run, request):
    wl, cfg, rows, _, _, lv1 = request.getfixturevalue(run)
    G = checks.independent_preconds(lv1.B, lv1.M, lv1.D, wl.degree, cfg.preconds)
    ref = {n: checks.kappa_AG(lv1.A, g) for n, g in G.items()}
    assert checks.kappas_agree(1, rows[0].kappas, ref) == []
    for name in cfg.preconds:
        assert checks.kappas_agree(1, _with_kappa(rows, 1, name, 1 + 1e-6)[0].kappas, ref)
    # a wrong matrix moves the independent route away from the table
    B = lv1.B + 1e-3 * np.diag(np.diag(lv1.B))
    G = checks.independent_preconds(B, lv1.M, lv1.D, wl.degree, ("lumped",))
    assert checks.kappas_agree(1, rows[0].kappas, {"lumped": checks.kappa_AG(lv1.A, G["lumped"])})

    gen = checks.kappa_generalized(lv1.A, lv1.B / np.outer(lv1.D, lv1.D))
    assert checks.kappas_agree(1, rows[0].kappas, {"lumped": gen}) == []
    D = lv1.D * (1 + 1e-3 * np.arange(lv1.D.size) / lv1.D.size)
    gen = checks.kappa_generalized(lv1.A, lv1.B / np.outer(D, D))
    assert checks.kappas_agree(1, rows[0].kappas, {"lumped": gen})
