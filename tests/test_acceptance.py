"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.

Criterion 5 checks what the Richardson construction guarantees on the
level-6 corner-refined square, for degrees 1 and 3.  With the lumped
diagonal D and S = D^{-1/2} M D^{-1/2}, k damped steps give
R^(k) = D^{-1/2} p_k(S) S^{-1} D^{-1/2} with p_k(x) = 1 - (1 - omega x)^k,
so the weighted residual e_k = ||I - S D^{1/2} R^(k) D^{1/2}||_2 equals
q_h^k, where q_h = max |1 - omega lambda(S)| must not exceed the
reference-element contraction q_ref = (lambda+ - lambda-)/(lambda+ + lambda-).
The criterion asserts that e_k falls strictly over k in {1,2,4,6} and
equals q_h^k (read from the eigenvalues of the symmetric part of
I - S D^{1/2} R^(k) D^{1/2}, whose skew part is asserted below 1e-12 in the
Frobenius norm), that q_h <= q_ref < 1, that six steps bring kappa_S(G^(k) A)
closer to the mass-matrix value kappa_M than one step does, and that
kappa at k = 6 and k = 64 lies within 25 % and 1e-4 of kappa_M.

It does not assert that kappa falls monotonically in k: the damped
iteration has an alternating transient, so the sequence may overshoot.
Measured for k = 1, 2, 4, 6:

    degree 1: 8.758, 12.612, 8.224, 7.879   (kappa_M = 7.863; the sign of
              kappa_k - kappa_M alternates for k = 2..12)
    degree 3: 14.763, 7.276, 6.903, 7.172   (kappa_M = 7.637; approached
              from below)
"""

import numpy as np

from calderon_bench.duals import (build_bubbles, build_dual_basis, dual_gram, eval_dual_sum,
                                  fortin_l2_norm)
from calderon_bench.fespace import reference_basis
from calderon_bench.gram import lumped_matrix, mass_matrix, scaled_basis
from calderon_bench.precond import (jacobi_precond, lumped_precond, mass_precond,
                                    richardson_precond, richardson_weight)
from calderon_bench.spectral import kappa, spd_factor

from helpers import (adaptive_integrate_2d, circle_uniform_operators, circle_uniform_space,
                     corner_gram, corner_mesh, corner_operators, corner_space, fortin_matrix,
                     holding_space, node_params, richardson_inverse)

LEVELS = range(1, 7)


def _report(num, name, ok, detail=""):
    print(f"[ACCEPTANCE] criterion {num:2d} ({name}): "
          f"{'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _kappa_lumped(kind, k, ell, inner="exact"):
    A, B = corner_operators(kind, k, ell)
    _, D = corner_gram(kind, k, ell, inner)
    return kappa(lumped_precond(B, D), A)


def test_criterion_01_reference_richardson_weights():
    checks = []
    for d, expect in ((1, 3 / 2), (2, 8 / 5), (3, 5 / 3)):
        _, _, om = richardson_weight(d, 1)
        checks.append(abs(om - expect) <= 1e-12 * expect)
    _, _, om23 = richardson_weight(2, 3)
    checks.append(abs(om23 - 0.836) <= 1e-3)
    _report(1, "reference Richardson weights", all(checks),
            f"omega(2,3)={om23:.6f}")


def test_criterion_02_lumping_identity():
    worst_rowsum, worst_total, worst_affine = 0.0, 0.0, 0.0
    for kind in ("square", "circle", "ellipse"):
        for ell in (1, 3):
            for k in LEVELS:
                s = corner_space(kind, k, ell)
                glen = s.mesh.total_length()
                for inner in ("exact", "mesh-averaged"):
                    M, D = corner_gram(kind, k, ell, inner)
                    worst_rowsum = max(worst_rowsum,
                                       np.abs(M.sum(1) / D - 1).max())
                    worst_total = max(worst_total, abs(D.sum() / glen - 1))
                if kind == "square":
                    _, De = corner_gram(kind, k, ell, "exact")
                    _, Da = corner_gram(kind, k, ell, "mesh-averaged")
                    worst_affine = max(worst_affine,
                                       np.abs(De / Da - 1).max())
    ok = worst_rowsum <= 1e-12 and worst_total <= 1e-12 and worst_affine <= 1e-14
    _report(2, "lumping identity", ok,
            f"rowsum={worst_rowsum:.1e} total={worst_total:.1e} "
            f"affine={worst_affine:.1e}")


def _plateau(kind, ell, inner):
    kappas = {k: _kappa_lumped(kind, k, ell, inner) for k in LEVELS}
    mesh6 = corner_mesh(kind, 6)
    span_ok = mesh6.h_min / mesh6.h_max <= 1e-5
    tail = [kappas[k] for k in LEVELS if k >= 3]
    plateau_ok = max(tail) / min(tail) <= 1.25
    cap_ok = all(kappas[k] <= 3.0 * kappas[3] for k in LEVELS)
    detail = (f"kappa={['%.3f' % kappas[k] for k in LEVELS]} "
              f"tail ratio={max(tail)/min(tail):.4f}")
    return span_ok and plateau_ok and cap_ok, detail


def test_criterion_03_uniform_boundedness_square():
    results = {ell: _plateau("square", ell, "exact") for ell in (1, 3)}
    ok = all(r[0] for r in results.values())
    _report(3, "uniform boundedness on the square", ok,
            "; ".join(f"l={ell}: {d}" for ell, (_, d) in results.items()))


def test_criterion_04_preconditioned_system_coincidence():
    worst = 0.0
    instances = [("square", k, ell, "exact") for k in LEVELS for ell in (1, 3)]
    instances += [("ellipse", k, 1, "mesh-averaged") for k in LEVELS]
    for kind, k, ell, inner in instances:
        A, B = corner_operators(kind, k, ell)
        _, D = corner_gram(kind, k, ell, inner)
        F = lumped_precond(B, D)
        worst = max(worst, abs(kappa(F, A) / kappa(spd_factor(A).T, F.T @ F) - 1))
    s = circle_uniform_space(128, 1)
    A, B = circle_uniform_operators(128, 1)
    F = lumped_precond(B, lumped_matrix(s))
    worst = max(worst, abs(kappa(F, A) / kappa(spd_factor(A).T, F.T @ F) - 1))
    _report(4, "kappa(GA) = kappa(AG)", worst <= 1e-8, f"worst rel dev={worst:.1e}")


def test_criterion_05_richardson_improvement():
    clauses = []
    details = []
    ks = (1, 2, 4, 6)
    for ell in (1, 3):
        A, B = corner_operators("square", 6, ell)
        M, D = corner_gram("square", 6, ell)
        lam_minus, lam_plus, om = richardson_weight(1, ell)
        q_ref = (lam_plus - lam_minus) / (lam_plus + lam_minus)
        # I - S Rw = (I - omega S)^k, whose norm is q_h^k.  It is a
        # polynomial in the symmetric S, so its 2-norm is the largest
        # |eigenvalue| of its symmetric part, which differs from the 2-norm
        # of X by at most ||X - X^T||_F / 2
        sq = np.sqrt(D)
        S = M / np.outer(sq, sq)
        q_h = np.abs(1 - om * np.linalg.eigvalsh(S)).max()
        resid, skew = {}, {}
        for k in ks:
            Rw = sq[:, None] * richardson_inverse(M, D, k, om) * sq[None, :]
            X = np.eye(len(D)) - S @ Rw
            skew[k] = np.linalg.norm(X - X.T)
            resid[k] = np.abs(np.linalg.eigvalsh(0.5 * (X + X.T))).max()
        contracts = (all(resid[a] > resid[b] for a, b in zip(ks, ks[1:]))
                     and all(abs(resid[k] / q_h**k - 1) <= 1e-10 for k in ks)
                     and q_h <= q_ref * (1 + 1e-10) < 1)
        symmetric = max(skew.values()) <= 1e-12
        seq = {k: kappa(richardson_precond(B, M, D, k, om), A) for k in ks + (64,)}
        kM = kappa(mass_precond(B, M), A)
        closer = abs(seq[6] - kM) < abs(seq[1] - kM)
        approach = abs(seq[6] - kM) / kM
        k64 = abs(seq[64] - kM) / kM
        clauses += [contracts, symmetric, closer, approach <= 0.25, k64 <= 1e-4]
        details.append(
            f"l={ell}: seq(1,2,4,6)={['%.3f' % seq[k] for k in ks]} "
            f"kM={kM:.3f} e(1,2,4,6)={['%.3e' % resid[k] for k in ks]} "
            f"max||X-X^T||_F={max(skew.values()):.1e} "
            f"q_h={q_h:.6f} q_ref={q_ref:.6f} contracts={contracts} "
            f"|k6-kM|={abs(seq[6] - kM):.3f} |k1-kM|={abs(seq[1] - kM):.3f} "
            f"|k6-kM|/kM={approach:.4f} k64 dev={k64:.1e}")
    _report(5, "Richardson improvement", all(clauses), "; ".join(details))


def test_criterion_06_jacobi_failure_for_cubics():
    ratios = {}
    kJs = []
    for k in LEVELS:
        A, B = corner_operators("square", k, 3)
        M, D = corner_gram("square", k, 3)
        kJ = kappa(jacobi_precond(B, M), A)
        kD = kappa(lumped_precond(B, D), A)
        kJs.append(kJ)
        ratios[k] = kJ / kD
    increasing = all(a < b for a, b in zip(kJs[:-1], kJs[1:]))
    growth = ratios[6] / ratios[1]
    worst_lin = 0.0
    for k in LEVELS:
        A, B = corner_operators("square", k, 1)
        M, D = corner_gram("square", k, 1)
        worst_lin = max(worst_lin, abs(
            kappa(jacobi_precond(B, M), A) / kappa(lumped_precond(B, D), A) - 1))
    ok = increasing and growth > 3.0 and worst_lin <= 1e-10
    _report(6, "Jacobi failure for cubics", ok,
            f"kJ={['%.0f' % v for v in kJs]} ratio growth={growth:.1f}x "
            f"linears dev={worst_lin:.1e}")


def test_criterion_07_operator_assembly_oracle():
    radius = 0.25
    s = circle_uniform_space(128, 1)
    A, B = circle_uniform_operators(128, 1)
    M = mass_matrix(s)
    D = lumped_matrix(s)
    theta = node_params(s)[1]
    worst_a = worst_b = 0.0
    for k in (1, 2, 4):
        u = np.cos(k * theta)
        ra = (u @ A @ u) / (u @ M @ u)
        rb = (u @ B @ u - 0.05 * (D @ u) ** 2) / (u @ M @ u)
        worst_a = max(worst_a, abs(ra / (radius / (2 * k)) - 1))
        worst_b = max(worst_b, abs(rb / (k / (2 * radius)) - 1))

    # far-field entries: vertex nodes, so four panel-pair integrals each
    chart = s.mesh.geometry.charts[0]
    worst_e = 0.0
    for nu, mu in ((0, 40), (17, 80), (5, 64)):
        ref = 0.0
        for p in (nu - 1, nu):
            for q in (mu - 1, mu):
                pa = s.mesh.panels[p % 128]
                pb = s.mesh.panels[q % 128]
                a = list(s.conn[p % 128]).index(nu)
                b = list(s.conn[q % 128]).index(mu)
                dta, dtb = pa.t1 - pa.t0, pb.t1 - pb.t0

                def f(t, u_, pa=pa, pb=pb, a=a, b=b, dta=dta, dtb=dtb):
                    ta = pa.t0 + dta * t
                    tb = pb.t0 + dtb * u_
                    x, y = chart.point(ta), chart.point(tb)
                    r = np.sqrt(((x - y) ** 2).sum(axis=-1))
                    va = reference_basis(1, t)[a]
                    vb = reference_basis(1, u_)[b]
                    return (-np.log(r) / (2 * np.pi) * va * vb
                            * radius * radius * dta * dtb)

                ref += adaptive_integrate_2d(f, ((0, 1), (0, 1)), tol=1e-12)
        worst_e = max(worst_e, abs(A[nu, mu] / ref - 1))
    ok = worst_a <= 0.02 and worst_b <= 0.05 and worst_e <= 1e-8
    _report(7, "assembly vs circle symbols and oracle", ok,
            f"symbol dev A={worst_a:.4f} B={worst_b:.4f} entry dev={worst_e:.1e}")


def test_criterion_08_duals_suite():
    checks = []
    details = []
    for kind, ell in (("square", 1), ("square", 3)):
        s = corner_space(kind, 2, ell)
        d = build_dual_basis(s, build_bubbles(s))
        bio = np.abs(d.pairing.toarray() - np.diag(d.lumped)).max() / d.lumped.max()
        pou = eval_dual_sum(d, n_samples=1000)
        hold = holding_space(d)
        P = fortin_matrix(d, hold)
        idem = np.abs(P @ P - P).max() / max(np.abs(P).max(), 1.0)
        ones_err = np.abs(hold.dual_rep @ np.ones(s.ndof) - hold.ones_rep).max()
        checks += [bio <= 1e-10, pou <= 1e-10, idem <= 1e-10, ones_err <= 1e-10]
        details.append(f"l={ell}: bio={bio:.1e} pou={pou:.1e} P2={idem:.1e} "
                       f"I1={ones_err:.1e}")
    norms = []
    for k in LEVELS:
        s = corner_space("square", k, 1)
        d = build_dual_basis(s, build_bubbles(s))
        norms.append(fortin_l2_norm(d, dual_gram(d)))
    growth = max(norms[1:]) / norms[0]
    checks.append(growth <= 1.10)
    details.append(f"||P|| levels={['%.4f' % v for v in norms]} growth={growth:.4f}")
    _report(8, "dual-basis machinery", all(checks), "; ".join(details))


def test_criterion_09_scaled_basis_equivalence():
    worst = 0.0
    instances = [("square", k, ell, "exact") for k in LEVELS for ell in (1, 3)]
    instances += [("ellipse", k, 1, "mesh-averaged") for k in LEVELS]
    for kind, k, ell, inner in instances:
        A, B = corner_operators(kind, k, ell)
        _, D = corner_gram(kind, k, ell, inner)
        k_direct = kappa(lumped_precond(B, D), A)
        k_scaled = kappa(spd_factor(scaled_basis(B, D)).T, scaled_basis(A, D))
        worst = max(worst, abs(k_scaled / k_direct - 1))
    _report(9, "scaled-basis equivalence", worst <= 1e-8, f"worst dev={worst:.1e}")


def test_criterion_10_mesh_averaged_robustness():
    ok, detail = _plateau("ellipse", 1, "mesh-averaged")
    _report(10, "mesh-averaged plateau on the ellipse", ok, detail)
