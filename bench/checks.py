"""Correctness checks on a finished kappa table.

Each check returns a list of failure messages; an empty list is a pass.
The checks compare against computations made apart from the program
(:mod:`oracle`, scipy's eigensolvers) and against properties the method
must have.  None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg
from scipy.integrate import IntegrationWarning

from oracle import CornerEntries, reference_richardson_weight

# worst relative error allowed in the corner entries of A and B.  At
# level 1 the graded singular rules at quad_n = 12 reach about 5e-10.  At
# the finest level they reach only 1.4e-4: quadrature points sit at
# absolute chart parameters t0 + dt * node, which on panels with dt near
# 1e-8 keep about 8 digits of their position inside the panel, so the
# innermost graded cells evaluate the log kernel on rounding noise.  The
# finest budget admits that fault; the metric shows its size.
CORNER_ENTRY_BUDGET = 1e-8
FINEST_CORNER_BUDGET = 1e-3
KAPPA_RTOL = 1e-8
PLATEAU_NAMES = ("lumped", "mass", "richardson:6")
PLATEAU_FIRST_LEVEL = 3
PLATEAU_RATIO = 1.05


def table_text(rows, text):
    """The emitted CSV holds every row's level, dofs and kappas."""
    lines = text.strip().splitlines()
    names = list(rows[0].kappas)
    out = []
    if lines[0].split(",") != ["level", "h_min", "h_max", "dofs"] + names:
        out.append(f"table header is {lines[0]!r}")
    if len(lines) != len(rows) + 1:
        return out + [f"table has {len(lines) - 1} rows, expected {len(rows)}"]
    for r, line in zip(rows, lines[1:]):
        cells = line.split(",")
        if int(cells[0]) != r.level or int(cells[3]) != r.dofs:
            out.append(f"level {r.level}: table row {line!r} names another level or size")
        for name, cell in zip(names, cells[4:]):
            if abs(float(cell) / r.kappas[name] - 1) > 5e-4:
                out.append(f"level {r.level}: table shows {name} = {cell}, "
                           f"computed {r.kappas[name]!r}")
    return out


def kappas_valid(rows):
    """Every kappa is finite and at least 1."""
    return [f"level {r.level}: {n} = {k!r}" for r in rows for n, k in r.kappas.items()
            if not (math.isfinite(k) and k >= 1.0)]


def plateau(rows, names=PLATEAU_NAMES, first=PLATEAU_FIRST_LEVEL, ratio=PLATEAU_RATIO):
    """The paper's uniformity claim: kappa stays flat over the graded levels."""
    out = []
    for n in names:
        ks = [r.kappas[n] for r in rows if r.level >= first]
        if max(ks) > ratio * min(ks):
            out.append(f"{n} leaves the plateau over levels {first}+: {ks}")
    return out


def richardson_near_mass(rows, name="richardson:6", tol=0.25):
    """|kappa_6 - kappa_M| <= tol * kappa_M at every level."""
    return [f"level {r.level}: {name} = {r.kappas[name]:.6g}, mass = {r.kappas['mass']:.6g}"
            for r in rows if abs(r.kappas[name] - r.kappas["mass"]) > tol * r.kappas["mass"]]


def jacobi_equals_lumped(rows, rtol=1e-10):
    """Degree 1, mesh-averaged product: diag M = (2/3) D exactly, so the
    Jacobi and lumped preconditioners differ by a scalar."""
    return [f"level {r.level}: jacobi {r.kappas['jacobi']!r} != lumped {r.kappas['lumped']!r}"
            for r in rows if abs(r.kappas["jacobi"] / r.kappas["lumped"] - 1) > rtol]


def jacobi_grows(rows, factor=10.0):
    """Degree 3: Jacobi scaling is not uniform under grading."""
    k1, kL = rows[0].kappas["jacobi"], rows[-1].kappas["jacobi"]
    return [] if kL > factor * k1 else [f"jacobi grows only from {k1:.4g} to {kL:.4g}"]


def graded(rows, bound=1e-5):
    """The finest mesh is graded to h_min/h_max <= bound."""
    r = rows[-1]
    return [] if r.h_min / r.h_max <= bound else [f"h_min/h_max = {r.h_min / r.h_max:.3g}"]


def dofs_match(rows, panels, degree):
    """A continuous degree-l space on a closed curve has l * panels dofs."""
    return [f"level {r.level}: dofs {r.dofs} != {degree} * {p}"
            for r, p in zip(rows, panels) if r.dofs != degree * p]


def lumped_sum(d, length, rtol=1e-12):
    """The lumped diagonal sums to the curve length (partition of unity)."""
    total = float(np.sum(d))
    return [] if abs(total / length - 1) <= rtol else [f"sum D = {total!r}, length {length!r}"]


def corner_entry_errors(A, B, entries: CornerEntries, nu, mu):
    """Relative errors of A and B at (nu, nu) and (nu, mu) against the
    oracle's panel-pair integrals."""
    errs = {}
    with warnings.catch_warnings():
        # QUADPACK may report roundoff at epsrel 1e-11; the achieved accuracy
        # is far inside the budget (the two routes agree to ~5e-10)
        warnings.simplefilter("ignore", IntegrationWarning)
        for kind, X in (("A", A), ("B", B)):
            for i, j in ((nu, nu), (nu, mu)):
                ref = entries.entry(kind, i, j)
                errs[f"{kind}[{i},{j}]"] = abs(X[i, j] - ref) / abs(ref)
    return errs


def corner_within(level, err, budget):
    """The worst corner-entry error at a level stays within its budget."""
    return [] if err <= budget else [
        f"level {level}: corner entry relative error {err:.3g} > {budget:g}"]


def corner_panel(mesh, chart, t):
    """Id of the panel that starts at the given anchor point."""
    for i, p in enumerate(mesh.panels):
        if p.chart == chart and abs(p.t0 - t) <= 1e-12:
            return i
    raise LookupError(f"no panel starts at chart {chart}, t = {t}")


def corner_errors(curve, space, A, B, alpha, corners):
    """Worst relative error of A and B at (nu, nu) and (nu, mu), for the
    vertex node nu at each given anchor and its neighbour mu on the panel
    that starts there."""
    panels = [(p.chart, p.t0, p.t1) for p in space.mesh.panels]
    entries = CornerEntries(curve, panels, space.conn, space.degree, alpha)
    worst = 0.0
    for chart, t in corners:
        p = corner_panel(space.mesh, chart, t)
        errs = corner_entry_errors(A, B, entries, space.conn[p][0], space.conn[p][1])
        worst = max(worst, max(errs.values()))
    return worst


def independent_preconds(B, M, d, degree, names):
    """Each G built without the program's builders; Richardson from its
    closed form R^(k) = D^{-1/2} p_k(S) S^{-1} D^{-1/2}, p_k = 1 - (1 - omega s)^k."""
    r = 1.0 / np.sqrt(d)
    lam, V = np.linalg.eigh(M * np.outer(r, r))
    omega = reference_richardson_weight(degree)
    out = {}
    for name in names:
        if name == "lumped":
            G = B / np.outer(d, d)
        elif name == "jacobi":
            m = np.diag(M)
            G = B / np.outer(m, m)
        elif name == "mass":
            X = np.linalg.solve(M, B)
            G = np.linalg.solve(M, X.T)
        else:
            k = int(name.split(":")[1])
            f = (1.0 - (1.0 - omega * lam) ** k) / lam
            R = (r[:, None] * V * f) @ V.T * r[None, :]
            G = R @ B @ R
        out[name] = 0.5 * (G + G.T)
    return out


def kappa_AG(A, G):
    """kappa_S(A G) from the nonsymmetric eigenvalues of A G."""
    ev = np.real(scipy.linalg.eigvals(A @ G))
    return ev.max() / ev.min()


def kappas_agree(level, computed, reference, rtol=KAPPA_RTOL):
    return [f"level {level}: {n} = {computed[n]!r} but the independent route gives {v!r}"
            for n, v in reference.items() if abs(computed[n] / v - 1) > rtol]


def kappa_generalized(A, G):
    """kappa_S(G A) from the symmetric-definite pencil (A G A, A):
    G A v = mu v  <=>  A G A v = mu A v."""
    ev = scipy.linalg.eigh(A @ G @ A, A, eigvals_only=True)
    return ev[-1] / ev[0]
