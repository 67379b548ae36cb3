"""Benchmark driver: builds the refinement family, assembles the operator
pair, evaluates the requested preconditioners and emits condition-number
tables (CSV or markdown), mirroring the structure of the reference tables.

Also hosts ``calderon-bench verify``, a quick self-check of the library
invariants with one pass/fail line per property.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sparse

from . import boundary_operators as bops
from . import duals as duals_mod
from .geometry import make_geometry, total_length
from .gram import KINDS, lumped_matrix, mass_matrix, scaled_basis
from .fespace import build_space, mirror_permutations, reference_basis
from .mesh import corner_schedule, dump_mesh, initial_mesh, is_conforming, neighbor_ratios
from .precond import (Coupling, jacobi_precond, lumped_precond, mass_precond,
                      richardson_precond, richardson_weight)
from .quadrature import gauss_rule, pair_rule
from .spectral import block_factor, kappa


GEOMETRIES = ("square", "circle", "ellipse")
DEGREES = (1, 3)
REFINES = ("corner", "uniform")
FORMATS = ("csv", "md")


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: str = "square"
    scale: float = 0.5
    ellipse_ratio: float = 2.0
    degree: int = 1
    levels: int = 4
    refine: str = "corner"            # corner | uniform
    preconds: tuple = ("lumped", "mass")  # a comma list is parsed into a tuple
    alpha: float = 0.05
    quad_n: int = 12
    inner_product: str = "exact"      # exact | mesh-averaged
    fmt: str = "csv"
    output: str = ""
    dump_matrices: str = ""
    omega_override: float = 0.0       # 0 = use the reference-element weight;
                                      # omega >= 2/lambda_max is caught per mesh

    # the operator order is pinned by the shipped kernel pair
    s_order = 0.5

    def __post_init__(self):
        """Reject bad values before any work starts."""
        object.__setattr__(self, "preconds", _parse_precond_names(self.preconds))
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"geometry must be one of {GEOMETRIES}, got {self.geometry!r}")
        if self.degree not in DEGREES:
            raise ValueError(f"degree must be one of {DEGREES}, got {self.degree!r}")
        if self.inner_product not in KINDS:
            raise ValueError(f"inner_product must be one of {KINDS}, "
                             f"got {self.inner_product!r}")
        if self.refine not in REFINES:
            raise ValueError(f"refine must be one of {REFINES}, got {self.refine!r}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.fmt!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and > 0 (B~ alone is only semi-coercive), "
                             f"got {self.alpha!r}")
        if not (math.isfinite(self.omega_override) and self.omega_override >= 0):
            raise ValueError("omega_override must be finite and >= 0 (0 = reference "
                             f"weight), got {self.omega_override!r}")


@dataclass(frozen=True)
class ReportRow:
    level: int
    h_min: float
    h_max: float
    dofs: int
    kappas: dict


def _parse_precond_names(spec):
    """Names from a comma list or a sequence, at least one and each once;
    richardson:k needs k >= 1 without leading zeros, so that each column
    has one spelling."""
    if isinstance(spec, str):
        spec = spec.split(",")
    names = tuple(x.strip() for x in spec if x.strip())
    if not names:
        raise ValueError("the preconditioner list is empty")
    for name in names:
        base, _, k = name.partition(":")
        if name not in ("lumped", "mass", "jacobi") and not (
                base == "richardson" and k.isdigit() and k[0] != "0"):
            raise ValueError(f"unknown preconditioner {name!r} (lumped, mass, jacobi or "
                             "richardson:k with k >= 1, without leading zeros)")
        if names.count(name) > 1:
            raise ValueError(f"preconditioner {name!r} is listed twice")
    return names


def _build_precond(name, B, M, D, omega):
    if name == "lumped":
        return lumped_precond(B, D)
    if name == "mass":
        return mass_precond(B, M)
    if name == "jacobi":
        return jacobi_precond(B, M)
    k = int(name.split(":")[1])
    return richardson_precond(B, M, D, k, omega)


def level_blocks(A, B, M, D, perms):
    """One level in the symmetry basis: A's factor F by the blocks of the
    mirrors ``perms`` (one block unless A, B, M and D all commute with
    them), the blocks of B, M as a Coupling and D's diagonal.  Every
    preconditioner of the level is built on these."""
    Ms = sparse.csr_matrix(M)
    F = block_factor(A, perms, (B, Ms, D))
    C = Coupling(F.project_sparse(Ms), F.project_diagonal(Ms.diagonal()), F.sizes)
    return F, F.project(B), C, F.project_diagonal(D)


def level_mesh(cfg: ExperimentConfig, g, k):
    if cfg.refine == "corner":
        return corner_schedule(g, k)
    return corner_schedule(g, k, rounds_per_level=0)


def run_experiment(cfg: ExperimentConfig):
    """Evaluate every requested preconditioner on every refinement level."""
    g = make_geometry(cfg.geometry, cfg.scale, cfg.ellipse_ratio)
    omega = cfg.omega_override or richardson_weight(1, cfg.degree)[2]
    rows = []
    for k in range(1, cfg.levels + 1):
        try:
            m = level_mesh(cfg, g, k)
            s = build_space(m, cfg.degree)
            A, B = bops.assemble_operator_pair(s, cfg.quad_n, cfg.alpha)
            M = mass_matrix(s, cfg.inner_product, n_quad=cfg.quad_n)
            D = lumped_matrix(s, cfg.inner_product, n_quad=cfg.quad_n)
            F, Bs, C, d = level_blocks(A, B, M, D, mirror_permutations(s))
            kappas = {name: kappa(_build_precond(name, Bs, C, d, omega), A, F)
                      for name in cfg.preconds}
        except Exception as exc:
            raise RuntimeError(f"level {k}: {exc}") from exc
        rows.append(ReportRow(k, m.h_min, m.h_max, s.ndof, kappas))
        if cfg.dump_matrices:
            os.makedirs(cfg.dump_matrices, exist_ok=True)
            pre = f"{cfg.dump_matrices}/level{k}_"
            bops.write_dense_matrix(A, pre + "A.txt")
            bops.write_dense_matrix(B, pre + "B.txt")
            bops.write_dense_matrix(M, pre + "M.txt")
            bops.write_diagonal(D, pre + "D.txt")
            dump_mesh(m, pre + "mesh.txt")
    return rows


def emit_table(rows, fmt="csv", path=None, cfg: ExperimentConfig | None = None):
    """Render report rows; returns the text and optionally writes it."""
    names = list(rows[0].kappas) if rows else (list(cfg.preconds) if cfg else [])
    table = [["level", "h_min", "h_max", "dofs"] + names]
    table += [[str(r.level), f"{r.h_min:.3e}", f"{r.h_max:.3e}", str(r.dofs)]
              + [f"{r.kappas[n]:.3e}" for n in names] for r in rows]
    if fmt == "csv":
        lines = [",".join(vals) for vals in table]
    elif fmt == "md":
        lines = ["| " + " | ".join(vals) + " |" for vals in table]
        lines.insert(1, "|" + "|".join("---" for _ in table[0]) + "|")
        if cfg is not None:
            lines[:0] = [
                f"Spectral condition numbers kappa_S(G A) on the {cfg.geometry} "
                f"(degree {cfg.degree}, s = {cfg.s_order}, alpha = {cfg.alpha}, "
                f"{cfg.inner_product} product, {cfg.refine} refinement).",
                "",
            ]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# configuration plumbing

# config-file values are parsed by the type of the field's default; the
# preconditioner list stays a comma string until the config parses it
_FIELD_TYPES = {f.name: str if f.name == "preconds" else type(f.default)
                for f in fields(ExperimentConfig)}


def read_config(path) -> dict:
    """Flat ``key = value`` file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (x.strip() for x in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _FIELD_TYPES[key](val)
    return out


def config_from_args(args) -> ExperimentConfig:
    values = {}
    if args.config:
        values.update(read_config(args.config))
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return ExperimentConfig(**values)


def _add_run_flags(p):
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--geometry", choices=GEOMETRIES, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--ellipse-ratio", dest="ellipse_ratio", type=float, default=None)
    p.add_argument("--degree", type=int, choices=DEGREES, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--refine", choices=REFINES, default=None)
    p.add_argument("--precond", dest="preconds", default=None,
                   help="comma list: lumped,mass,richardson:2,jacobi")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--quad-n", dest="quad_n", type=int, default=None)
    p.add_argument("--inner-product", dest="inner_product",
                   choices=KINDS, default=None)
    p.add_argument("--format", dest="fmt", choices=FORMATS, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--dump-matrices", dest="dump_matrices", default=None)
    p.add_argument("--omega-override", dest="omega_override", type=float, default=None)


def cmd_run(args):
    cfg = config_from_args(args)
    rows = run_experiment(cfg)
    text = emit_table(rows, cfg.fmt, cfg.output or None, cfg)
    if not cfg.output:
        sys.stdout.write(text)
    else:
        print(f"wrote {cfg.output}")
    return 0


# ---------------------------------------------------------------------------
# verify: quick invariant suite


def _verify_checks():
    ge = make_geometry("ellipse", 0.5, 2.0)
    gs = make_geometry("square", 0.5)

    def geometry_lengths():
        ellipse_len = total_length(ge)
        return (abs(ellipse_len - 1.2110560275684594) < 1e-10
                and abs(total_length(gs) - 2.0) < 1e-12)

    def gauss_exactness():
        g = gauss_rule(16)
        return abs(np.dot(g.weights, g.nodes ** 15) - 1 / 16) < 1e-14

    def singular_rules():
        r = pair_rule("identical", 16)
        v1 = np.dot(r.weights, np.log(np.abs(r.offsets)))
        ra = pair_rule("adjacent", 16)
        v2 = np.dot(ra.weights, np.log(ra.offsets + ra.unodes))
        return (abs(v1 / -1.5 - 1) < 1e-12
                and abs(v2 / (2 * np.log(2) - 1.5) - 1) < 1e-12)

    def mesh_invariants():
        ok = True
        for g, k in ((gs, 3), (ge, 2)):
            m = corner_schedule(g, k)
            ok &= is_conforming(m)
            ok &= abs(m.total_length() / total_length(g) - 1) < 1e-12
            ok &= neighbor_ratios(m, normalized=True).max() <= 2 * (1 + 1e-9)
        return bool(ok)

    def lumping_identity():
        ok = True
        for ell in (1, 3):
            s = build_space(corner_schedule(ge, 1), ell)
            for kind in ("exact", "mesh-averaged"):
                M = mass_matrix(s, kind)
                D = lumped_matrix(s, kind)
                ok &= np.allclose(M.sum(1), D, rtol=1e-12, atol=0)
                ok &= abs(D.sum() / s.mesh.total_length() - 1) < 1e-12
        return bool(ok)

    def partition_of_unity():
        xs = np.linspace(0, 1, 101)
        return all(
            np.abs(reference_basis(ell, xs).sum(0) - 1).max() < 1e-12 for ell in (1, 3)
        )

    def richardson_weights():
        checks = [
            (richardson_weight(1, 1)[2], 1.5, 1e-12),
            (richardson_weight(2, 1)[2], 1.6, 1e-12),
            (richardson_weight(3, 1)[2], 5 / 3, 1e-12),
            (richardson_weight(2, 3)[2], 0.836, 1.1e-3),
        ]
        return all(abs(v - ref) <= tol * max(1, abs(ref)) for v, ref, tol in checks)

    def kappa_identities():
        s = build_space(initial_mesh(gs, 2), 1)
        A, B = bops.assemble_operator_pair(s)
        D = lumped_matrix(s)
        G = lumped_precond(B, D)
        k1 = kappa(G, A)
        k2 = kappa(A, G)                 # kappa(AG) via the swapped pencil
        k3 = kappa(scaled_basis(B, D), scaled_basis(A, D))
        return abs(k1 / k2 - 1) < 1e-8 and abs(k1 / k3 - 1) < 1e-8

    def richardson_contraction():
        # q_h = max |1 - omega lambda(D^{-1/2} M D^{-1/2})| on a graded mesh
        # against the reference-element bound q_ref
        detail, ok = [], True
        for ell in (1, 3):
            s = build_space(corner_schedule(gs, 3), ell)
            lam_minus, lam_plus, omega = richardson_weight(1, ell)
            q_ref = (lam_plus - lam_minus) / (lam_plus + lam_minus)
            lam = np.linalg.eigvalsh(scaled_basis(mass_matrix(s), lumped_matrix(s)))
            q_h = np.abs(1.0 - omega * lam).max()
            ok &= q_h <= q_ref * (1 + 1e-10)
            detail.append(f"degree {ell}: q_h = {q_h:.6f}, q_ref = {q_ref:.6f}")
        return bool(ok), "; ".join(detail)

    def mirror_blocks():
        # kappa of the run path, G built on the blocks of the two mirrors,
        # against a dense G and one dense factor of A, for the six
        # preconditioners of the benchmark
        detail, worst, ok = [], 0.0, True
        names = ("lumped", "mass", "richardson:2", "richardson:4", "richardson:6", "jacobi")
        for g, ell, inner in ((gs, 3, "exact"), (ge, 1, "mesh-averaged")):
            s = build_space(corner_schedule(g, 3), ell)
            A, B = bops.assemble_operator_pair(s)
            M, D = mass_matrix(s, inner), lumped_matrix(s, inner)
            omega = richardson_weight(1, ell)[2]
            F, Bs, C, d = level_blocks(A, B, M, D, mirror_permutations(s))
            dense = block_factor(A)
            for name in names:
                k_run = kappa(_build_precond(name, Bs, C, d, omega), A, F)
                G = _build_precond(name, B, M, D, omega)
                worst = max(worst, abs(k_run / kappa(G, A, dense) - 1))
            ok &= len(F.sizes) == 4
            detail.append(f"{g.kind} blocks {'/'.join(map(str, F.sizes))}")
        detail.append(f"max |kappa_block/kappa_dense - 1| = {worst:.1e}")
        return bool(ok and worst <= 1e-10), ", ".join(detail)

    def duals_quick():
        ok, detail = True, []
        for ell in (1, 3):
            s = build_space(corner_schedule(gs, 1), ell)
            d = duals_mod.build_dual_basis(s, duals_mod.build_bubbles(s))
            ok &= np.abs(d.pairing.toarray() - np.diag(d.lumped)).max() < 1e-10
            ok &= duals_mod.eval_dual_sum(d) < 1e-10
            detail.append(f"degree {ell}: ||P|| = {duals_mod.fortin_l2_norm(d):.5f}, "
                          f"||I|| = {duals_mod.bijection_l2_norm(d):.5f}")
        return bool(ok), "; ".join(detail)

    return [
        ("geometry arc lengths", geometry_lengths),
        ("gauss rule exactness", gauss_exactness),
        ("singular pair rules", singular_rules),
        ("mesh tiling/conformity/K-mesh", mesh_invariants),
        ("lumping identity", lumping_identity),
        ("partition of unity", partition_of_unity),
        ("richardson reference weights", richardson_weights),
        ("richardson contraction, level-3 square", richardson_contraction),
        ("kappa coincidence and scaling", kappa_identities),
        ("kappa by mirror blocks, level-3 square and ellipse", mirror_blocks),
        ("dual basis biorthogonality, degrees 1 and 3, level-1 square", duals_quick),
    ]


def cmd_verify(_args):
    """One PASS/FAIL line per check; a check that returns (ok, detail)
    also prints the measured numbers after its name."""
    failures = 0
    for name, check in _verify_checks():
        try:
            ok = check()
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            ok = False
            name = f"{name} ({exc})"
        if isinstance(ok, tuple):
            ok, detail = ok
            name = f"{name}: {detail}"
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += not ok
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="calderon-bench",
        description="Opposite-order preconditioning benchmark on closed curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a benchmark experiment")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)
    p_ver = sub.add_parser("verify", help="run the invariant self-checks")
    p_ver.set_defaults(func=cmd_verify)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
