"""Benchmark driver: builds the refinement family, assembles the operator
pair, evaluates the requested preconditioners and emits condition-number
tables (CSV or markdown), mirroring the structure of the reference tables.

Also hosts ``calderon-bench verify``, a quick self-check of the library
invariants with one pass/fail line per property.
"""

from __future__ import annotations

import argparse
import math
import numbers
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import boundary_operators as bops
from .geometry import make_geometry, total_length
from .gram import KINDS, lumped_matrix, mass_matrix, scaled_basis
from .fespace import MIRROR_NAMES, FeSpace, build_space, reference_basis
from .mesh import (corner_schedule, deepest_level, dump_mesh, initial_mesh, is_conforming,
                   neighbor_ratios)
from .precond import (Coupling, jacobi_precond, lumped_precond, mass_precond,
                      richardson_precond, richardson_weight)
from .quadrature import gauss_rule, pair_rule
from .spectral import (TAU, BlockFactor, Csr, MirrorError, NotSPDError, block_factor, kappa,
                       mirror_residual, spd_factor)


GEOMETRIES = ("square", "circle", "ellipse")
DEGREES = (1, 3)
REFINES = ("corner", "uniform")
FORMATS = ("csv", "md")
# the allowed values of a config field, for the config and for argparse
_CHOICES = {"geometry": GEOMETRIES, "degree": DEGREES, "refine": REFINES,
            "inner_product": KINDS, "fmt": FORMATS}
# the type that a numeric or a path field must have, as named in its error
_TYPES = {**dict.fromkeys(("degree", "levels", "quad_n"), (numbers.Integral, "an integer")),
          **dict.fromkeys(("scale", "ellipse_ratio", "alpha", "omega_override"),
                          (numbers.Real, "a number")),
          **dict.fromkeys(("output", "dump_matrices"), (str, "a string"))}


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
        for key, (kind, what) in _TYPES.items():
            if isinstance(value := getattr(self, key), bool) or not isinstance(value, kind):
                raise ValueError(f"{key} must be {what}, got {value!r}")
        for key, allowed in _CHOICES.items():
            if (value := getattr(self, key)) not in allowed:
                raise ValueError(f"{'format' if key == 'fmt' else key} must be one of "
                                 f"{allowed}, got {value!r}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and > 0 (B~ alone is only semi-coercive), "
                             f"got {self.alpha!r}")
        if not 4 <= self.quad_n <= 56:
            raise ValueError("quad_n must be in [4, 56] (the pair rules take at least 4 Gauss "
                             f"points, the log rule quad_n + 8 <= 64), got {self.quad_n!r}")
        if not (math.isfinite(self.omega_override) and self.omega_override >= 0):
            raise ValueError("omega_override must be finite and >= 0 (0 = reference "
                             f"weight), got {self.omega_override!r}")
        deepest = deepest_level(make_geometry(self.geometry, self.scale, self.ellipse_ratio),
                                self.levels, self.rounds_per_level)
        if deepest < self.levels:
            raise ValueError(f"levels must be at most {deepest} on the {self.geometry} with "
                             f"{self.refine} refinement, got {self.levels}: level {deepest + 1} "
                             "would bisect a panel at an anchor below float resolution")

    @property
    def rounds_per_level(self) -> int:
        """Rounds of corner bisections per level in ``corner_schedule``."""
        return 4 if self.refine == "corner" else 0


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
    if not isinstance(spec, Sequence) or not all(isinstance(x, str) for x in spec):
        raise ValueError(f"preconds must be a string or a sequence of strings, got {spec!r}")
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


@dataclass(frozen=True, eq=False)
class Level:
    """One level of the table: the space (with its mirror group), A and B,
    M (a CSR record, ``spectral.Csr``) and D, and the same level in the
    symmetry basis: A's factor by the blocks of the space's mirror group
    (five on D4, four on the axis mirrors alone, one without mirrors), the
    lower Cholesky factors of the blocks of B, M as a Coupling and D's
    diagonal.  Every preconditioner of the level is built on the last
    three, as a factor F with G = F^T F."""

    space: FeSpace
    A: np.ndarray
    B: np.ndarray
    M: Csr
    D: np.ndarray
    factor: BlockFactor
    B_factors: tuple
    coupling: Coupling
    d: np.ndarray


def build_level(s: FeSpace, inner_product="exact", quad_n=12, alpha=0.05) -> Level:
    """Gram matrices, the guard, assembly and the projections of one level.

    ``mass_matrix`` returns M dense, because the benchmark's independent
    preconditioners read it dense.  Here it lives only until its one pass
    to a CSR record (``Csr.from_dense``).  Before assembly, M and D must
    commute with each generator of ``s.mirrors`` to TAU, M under every
    mirror first, or MirrorError names the matrix, the mirror and the
    residual; A's factor takes the group's blocks as given.  M's blocks go to the
    Coupling as a list, once.  The Cholesky factors of the blocks check
    that A and B are SPD: CoercivityError on A, AssemblyError on B, naming
    the block's order."""
    M = Csr.from_dense(mass_matrix(s, inner_product, n_quad=quad_n))
    D = lumped_matrix(s, inner_product, n_quad=quad_n)
    for name, X in (("M", M), ("D", D)):
        for mirror, residual in zip(MIRROR_NAMES, mirror_residual(X, s.mirrors.perms)):
            if residual > TAU:
                raise MirrorError(f"{name} does not commute with the {mirror} mirror: relative "
                                  f"residual {residual:.1e} > {TAU:g}")
    A, B = bops.assemble_operator_pair(s, quad_n, alpha)
    try:
        F = block_factor(A, s.mirrors)
    except NotSPDError as exc:
        raise bops.CoercivityError(f"single layer A, a symmetry block: {exc}") from None
    try:
        LB = tuple(spd_factor(Bk) for Bk in F.project(B))
    except NotSPDError as exc:
        raise bops.AssemblyError(f"stabilized hypersingular B, a symmetry block: {exc}") from None
    C = Coupling(F.project_sparse(M), F.project_diagonal(M.diagonal()))
    return Level(s, A, B, M, D, F, LB, C, F.project_diagonal(D))


def level_mesh(cfg: ExperimentConfig, g, k):
    return corner_schedule(g, k, cfg.rounds_per_level)


def run_experiment(cfg: ExperimentConfig):
    """Evaluate every requested preconditioner on every refinement level."""
    g = make_geometry(cfg.geometry, cfg.scale, cfg.ellipse_ratio)
    omega = cfg.omega_override or richardson_weight(1, cfg.degree)[2]
    return [_run_level(cfg, g, k, omega) for k in range(1, cfg.levels + 1)]


def _run_level(cfg: ExperimentConfig, g, k, omega):
    """Row k of the table.  The level's matrices live only in this call, so
    one level is alive at a time."""
    try:
        m = level_mesh(cfg, g, k)
        s = build_space(m, cfg.degree)
        lev = build_level(s, cfg.inner_product, cfg.quad_n, cfg.alpha)
        kappas = {name: kappa(_build_precond(name, lev.B_factors, lev.coupling, lev.d, omega),
                              lev.A, lev.factor)
                  for name in cfg.preconds}
    except Exception as exc:
        raise RuntimeError(f"level {k}: {exc}") from exc
    if cfg.dump_matrices:
        os.makedirs(cfg.dump_matrices, exist_ok=True)
        pre = f"{cfg.dump_matrices}/level{k}_"
        bops.write_dense_matrix(lev.A, pre + "A.txt")
        bops.write_dense_matrix(lev.B, pre + "B.txt")
        bops.write_dense_matrix(lev.M.toarray(), pre + "M.txt")
        bops.write_diagonal(lev.D, pre + "D.txt")
        dump_mesh(m, pre + "mesh.txt")
    return ReportRow(k, m.h_min, m.h_max, s.ndof, kappas)


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
            try:
                out[key] = _FIELD_TYPES[key](val)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} = {val!r} is not a valid "
                                 f"{_FIELD_TYPES[key].__name__}") from None
    return out


def config_from_args(args) -> ExperimentConfig:
    values = read_config(args.config) if args.config else {}
    values.update({key: getattr(args, key) for key in _FIELD_TYPES
                   if getattr(args, key, None) is not None})
    return ExperimentConfig(**values)


# one flag per config field, named after it unless listed here
_FLAGS = {"preconds": "--precond", "fmt": "--format"}


def _add_run_flags(p):
    p.add_argument("--config", default=None, help="flat key = value config file")
    for key, kind in _FIELD_TYPES.items():
        p.add_argument(_FLAGS.get(key, "--" + key.replace("_", "-")), dest=key, type=kind,
                       choices=_CHOICES.get(key), default=None,
                       help="comma list: lumped,mass,richardson:2,jacobi"
                       if key == "preconds" else None)


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
        lev = build_level(build_space(initial_mesh(gs, 2), 1))
        A, B, D = lev.A, lev.B, lev.D
        F = lumped_precond(B, D)
        k1 = kappa(F, A)
        k2 = kappa(spd_factor(A).T, F.T @ F)     # kappa(AG) via the swapped pencil
        k3 = kappa(spd_factor(scaled_basis(B, D)).T, scaled_basis(A, D))
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
        # kappa of the run path, F built on the mirror blocks (five of D4
        # on the square, four of the axis mirrors on the ellipse), against
        # a dense F and one dense factor of A, for the six preconditioners
        # of the benchmark; and the guard's margin: M's and D's residual
        detail, worst, ok = [], 0.0, True
        names = ("lumped", "mass", "richardson:2", "richardson:4", "richardson:6", "jacobi")
        for g, ell, inner in ((gs, 3, "exact"), (ge, 1, "mesh-averaged")):
            lev = build_level(build_space(corner_schedule(g, 3), ell), inner)
            omega = richardson_weight(1, ell)[2]
            dense = block_factor(lev.A)
            for name in names:
                k_run = kappa(_build_precond(name, lev.B_factors, lev.coupling, lev.d, omega),
                              lev.A, lev.factor)
                k_dense = kappa(_build_precond(name, lev.B, lev.M, lev.D, omega), lev.A, dense)
                worst = max(worst, abs(k_run / k_dense - 1))
            sizes = lev.factor.sizes
            ok &= len(sizes) == (5 if g.kind == "square" else 4)
            perms = lev.space.mirrors.perms
            residual = max(mirror_residual(lev.M, perms) + mirror_residual(lev.D, perms))
            detail.append(f"{g.kind} blocks {'/'.join(map(str, sizes))}, "
                          f"M and D mirror residual {residual:.1e}")
        detail.append(f"max |kappa_block/kappa_dense - 1| = {worst:.1e}")
        return bool(ok and worst <= 1e-10), ", ".join(detail)

    def assembly_symmetry():
        # every row of A and B is a copy of a representative's row under the
        # mirror group, so both are symmetric and commute with each mirror
        # to the bit
        ok = True
        for g, ell, n_gens in ((gs, 3, 3), (ge, 1, 2)):
            s = build_space(corner_schedule(g, 2), ell)
            perms = s.mirrors.perms
            ok &= len(perms) == n_gens
            for X in bops.assemble_operator_pair(s):
                ok &= np.array_equal(X, X.T)
                ok &= all(np.array_equal(X[np.ix_(p, p)], X) for p in perms)
        return bool(ok)

    def duals_quick():
        from . import duals as duals_mod       # only verify reads the duals
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
        ("assembly symmetry and mirror invariance, level-2 square and ellipse",
         assembly_symmetry),
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
