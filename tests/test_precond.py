import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee as scipy_rcm

from calderon_bench.precond import (Coupling, RichardsonDivergenceError,
                                    jacobi_precond, lumped_precond, mass_precond,
                                    reference_mass_and_lumped, reverse_cuthill_mckee,
                                    richardson_precond, richardson_weight)
from calderon_bench.spectral import BlockFactor, Csr, NotSPDError, character_bases, kappa

from helpers import (corner_gram, corner_level, corner_operators, corner_space,
                     richardson_inverse, to_scipy)

rng = np.random.RandomState(99)


def _random_spd(n):
    Q, _ = np.linalg.qr(rng.randn(n, n))
    return Q @ np.diag(rng.uniform(0.5, 4.0, n)) @ Q.T


def _gram(F):
    """The preconditioner G = F^T F of a builder's factor F."""
    return F.T @ F


def test_lumped_precond_examples():
    d = np.array([2.0, 3.0, 5.0])
    F = lumped_precond(np.diag(d) @ np.diag(d), d)
    G = F.T @ F
    assert np.allclose(G, np.eye(3))
    F2 = lumped_precond(np.eye(3), 2.0 * np.ones(3))
    G2 = F2.T @ F2
    assert np.allclose(G2, np.eye(3) / 4)
    with pytest.raises(ValueError):
        lumped_precond(np.eye(2), np.array([1.0, 0.0]))


def test_mass_precond_examples():
    M = _random_spd(5)
    assert np.allclose(_gram(mass_precond(M, M)), np.linalg.inv(M), atol=1e-10)
    B = _random_spd(5)
    assert np.allclose(_gram(mass_precond(B, np.eye(5))), B)
    # residual identity G M B^{-1} M = I
    G = _gram(mass_precond(B, M))
    resid = G @ M @ np.linalg.solve(B, M) - np.eye(5)
    assert np.abs(resid).max() < 1e-10


def test_jacobi_equals_mass_for_diagonal():
    M = np.diag([1.0, 4.0, 9.0])
    B = _random_spd(3)
    assert np.allclose(_gram(jacobi_precond(B, M)), _gram(mass_precond(B, M)),
                       atol=1e-12)


def test_reference_weights_linear_formula():
    # omega = 2(d+2)/(d+3) for degree 1
    for d, expect in ((1, 1.5), (2, 1.6), (3, 5 / 3)):
        lm, lp, om = richardson_weight(d, 1)
        assert lm == pytest.approx(1 / (d + 2), rel=1e-12)
        assert lp == pytest.approx(1.0, rel=1e-12)
        assert om == pytest.approx(expect, rel=1e-12)


def test_reference_weight_cubic_surface():
    _, _, om = richardson_weight(2, 3)
    assert om == pytest.approx(0.836, abs=1e-3)


def test_reference_weight_cubic_curve_exact():
    # closed forms from exact rational arithmetic on the cubic reference
    # pencil: lambda_pm = (88 +- sqrt(2641))/105, so omega = 105/88
    lm, lp, om = richardson_weight(1, 3)
    root = np.sqrt(2641.0)
    assert lm == pytest.approx((88.0 - root) / 105.0, rel=1e-12)
    assert lp == pytest.approx((88.0 + root) / 105.0, rel=1e-12)
    assert om == pytest.approx(105.0 / 88.0, rel=1e-12)


def test_reference_lumped_positive():
    for d, ell in ((1, 1), (1, 3), (2, 1), (2, 3), (3, 1)):
        _, D = reference_mass_and_lumped(d, ell)
        assert np.all(D > 0)
    with pytest.raises(ValueError):
        reference_mass_and_lumped(0, 1)


def test_richardson_first_step():
    M = _random_spd(6)
    d = np.diag(M).copy()
    om = 0.5
    R1 = richardson_inverse(M, d, 1, om)
    assert np.allclose(R1, om * np.diag(1.0 / d))


def test_richardson_exact_for_diagonal():
    M = np.diag([2.0, 5.0, 10.0])
    d = np.diag(M).copy()
    for k in (1, 2, 7):
        R = richardson_inverse(M, d, k, 1.0)
        assert np.allclose(R, np.diag(1.0 / np.diag(M)), atol=1e-14)


def test_richardson_symmetry_and_convergence():
    M, D = corner_gram("square", 2, 1)
    _, _, om = richardson_weight(1, 1)
    sq = np.sqrt(D)
    S = M / np.outer(sq, sq)
    contraction = np.abs(1 - om * np.linalg.eigvalsh(S)).max()
    n = M.shape[0]
    for k in (1, 2, 4, 8, 16, 64):
        R = richardson_inverse(M, D, k, om)
        assert np.abs(R - R.T).max() <= 1e-12 * np.abs(R).max()
        # in the diagonally weighted norm the residual is exactly the k-th
        # power of the contraction factor: I - S R_w = (I - omega S)^k
        Rw = sq[:, None] * R * sq[None, :]
        resid = np.linalg.norm(np.eye(n) - S @ Rw, 2)
        assert resid == pytest.approx(contraction**k, rel=1e-6)
    assert np.abs(richardson_inverse(M, D, 64, om) - np.linalg.inv(M)).max() < 1e-10


def test_richardson_chain_continues_and_restarts():
    # R^(2), R^(4), R^(6) from one chain are the R^(k) of separate chains;
    # a smaller k, another omega or another d starts the chain again
    M, D = corner_gram("square", 2, 3)
    _, _, om = richardson_weight(1, 3)
    C = Coupling.dense(M)
    eye = (np.eye(M.shape[0]),)

    def chain(d, k, omega):                        # R^(k) from C's chain on I
        (R,) = C.richardson(eye, d, k, omega)
        return 0.5 * (R + R.T)

    for k in (2, 4, 6, 1, 3):
        assert np.array_equal(chain(D, k, om),
                              richardson_inverse(M, D, k, om)), k
    assert np.array_equal(chain(D, 4, 0.9 * om),
                          richardson_inverse(M, D, 4, 0.9 * om))
    D2 = 1.1 * D
    assert np.array_equal(chain(D2, 5, om), richardson_inverse(M, D2, 5, om))


@pytest.mark.parametrize("ell", [1, 3])
def test_richardson_chain_on_the_factor_of_b(ell):
    # Y_k = R^(k) L_B by the recurrence on L_B is R^(k) applied to L_B
    _, B = corner_operators("square", 3, ell)
    M, D = corner_gram("square", 3, ell)
    _, _, om = richardson_weight(1, ell)
    LB = (np.linalg.cholesky(B),)
    C = Coupling.dense(M)
    for k in (1, 2, 4, 6):
        (Y,) = C.richardson(LB, D, k, om)
        ref = richardson_inverse(M, D, k, om) @ LB[0]
        assert np.abs(Y - ref).max() <= 1e-13 * np.abs(ref).max(), k


@pytest.mark.parametrize("kind,ell,inner", [("square", 3, "exact"),
                                            ("ellipse", 1, "mesh-averaged")])
def test_richardson_chain_continued_equals_fresh(kind, ell, inner):
    # on the run path's blocks, k = 4 continued from k = 2 is, to the bit,
    # k = 4 from a fresh chain
    lev = corner_level(kind, 3, ell, inner)
    _, _, om = richardson_weight(1, ell)
    C = lev.coupling
    fresh = Coupling(C.blocks, C.m)
    richardson_precond(lev.B_factors, C, lev.d, 2, om)
    continued = richardson_precond(lev.B_factors, C, lev.d, 4, om)
    for a, b in zip(continued, richardson_precond(lev.B_factors, fresh, lev.d, 4, om)):
        assert np.array_equal(a, b)


def test_richardson_divergence_guard():
    M = _random_spd(5)
    d = np.diag(M).copy()
    with pytest.raises(RichardsonDivergenceError):
        richardson_inverse(M, d, 3, omega=50.0)


def _richardson_dense(M, d, k, omega):
    """Reference: the dense recurrence R <- R + omega D^{-1} (I - M R)."""
    dinv = 1.0 / d
    R = omega * np.diag(dinv)
    for _ in range(k - 1):
        R = R + omega * (dinv[:, None] * (np.eye(M.shape[0]) - M @ R))
    return 0.5 * (R + R.T)


def _mass_precond_dense(B, M):
    """Reference: M^{-1} B M^{-1} by dense Cholesky solves."""
    c = (np.linalg.cholesky(M), True)
    G = scipy.linalg.cho_solve(c, scipy.linalg.cho_solve(c, B).T).T
    return 0.5 * (G + G.T)


@pytest.mark.parametrize("ell", [1, 3])
def test_sparse_richardson_matches_dense_recurrence(ell):
    M, D = corner_gram("square", 3, ell)
    _, _, om = richardson_weight(1, ell)
    for k in (1, 2, 4, 6, 64):
        ref = _richardson_dense(M, D, k, om)
        R = richardson_inverse(M, D, k, om)
        assert np.abs(R - ref).max() <= 1e-13 * np.abs(ref).max(), k


@pytest.mark.parametrize("ell", [1, 3])
def test_mass_precond_matches_dense_cholesky(ell):
    _, B = corner_operators("square", 3, ell)
    M, _ = corner_gram("square", 3, ell)
    ref = _mass_precond_dense(B, M)
    assert np.abs(_gram(mass_precond(B, M)) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_mass_precond_rejects_indefinite_mass():
    M = np.diag([1.0, 2.0, -1.0, 3.0])
    M[0, 1] = M[1, 0] = 0.5
    with pytest.raises(NotSPDError):
        mass_precond(_random_spd(4), M)


@pytest.mark.parametrize("ell", [1, 3])
def test_divergence_guard_at_the_mesh_bound(ell):
    """The guard's definiteness test flips at omega = 2 / lambda_max of
    D^{-1/2} M D^{-1/2}, here computed by a dense eigensolver."""
    M, D = corner_gram("square", 3, ell)
    sq = np.sqrt(D)
    lam_max = np.linalg.eigvalsh(M / np.outer(sq, sq))[-1]
    richardson_inverse(M, D, 2, (1 - 1e-6) * 2.0 / lam_max)
    with pytest.raises(RichardsonDivergenceError):
        richardson_inverse(M, D, 2, (1 + 1e-6) * 2.0 / lam_max)
    for omega in (0.0, -0.5, float("nan")):
        with pytest.raises(RichardsonDivergenceError):
            richardson_inverse(M, D, 2, omega)


def test_richardson_precond_first_step_is_scaled_lumped():
    A, B = corner_operators("square", 1, 1)
    M, D = corner_gram("square", 1, 1)
    _, _, om = richardson_weight(1, 1)
    F1 = richardson_precond(B, M, D, 1, om)
    FD = lumped_precond(B, D)
    G1, GD = _gram(F1), _gram(FD)
    assert np.allclose(G1, om * om * GD, rtol=1e-12)
    assert kappa(F1, A) == pytest.approx(kappa(FD, A), rel=1e-8)


def test_richardson_precond_converges_to_mass():
    A, B = corner_operators("square", 2, 1)
    M, D = corner_gram("square", 2, 1)
    _, _, om = richardson_weight(1, 1)
    kM = kappa(mass_precond(B, M), A)
    k64 = kappa(richardson_precond(B, M, D, 64, om), A)
    assert abs(k64 / kM - 1) < 1e-6


def test_jacobi_matches_lumped_for_linears_on_square():
    # in 1-D linears diag(M) = (2/3) D entrywise on affine charts
    A, B = corner_operators("square", 2, 1)
    M, D = corner_gram("square", 2, 1)
    assert np.abs(np.diag(M) - (2.0 / 3.0) * D).max() <= 1e-12 * D.max()
    kJ = kappa(jacobi_precond(B, M), A)
    kD = kappa(lumped_precond(B, D), A)
    assert kJ == pytest.approx(kD, rel=1e-10)


def test_precond_matrices_symmetric_spd():
    A, B = corner_operators("square", 1, 3)
    M, D = corner_gram("square", 1, 3)
    _, _, om = richardson_weight(1, 3)
    for F in (lumped_precond(B, D), mass_precond(B, M), jacobi_precond(B, M),
              richardson_precond(B, M, D, 4, om)):
        G = _gram(F)
        assert isinstance(G, np.ndarray) and G.shape == B.shape
        assert np.abs(G - G.T).max() <= 1e-12 * np.abs(G).max()
        np.linalg.cholesky(G)


def test_kappa_scalar_invariance_with_precond():
    A, B = corner_operators("square", 1, 1)
    _, D = corner_gram("square", 1, 1)
    F = lumped_precond(B, D)
    # 10 G = (sqrt(10) F)^T (sqrt(10) F)
    assert kappa(np.sqrt(10.0) * F, A) == pytest.approx(kappa(F, A), rel=1e-10)


def _same_rcm(S: Csr):
    want = scipy_rcm(to_scipy(S), symmetric_mode=True)
    got = reverse_cuthill_mckee(S)
    return got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("kind,ell,inner", [("square", 1, "exact"), ("square", 3, "exact"),
                                            ("circle", 1, "exact"), ("circle", 3, "exact"),
                                            ("ellipse", 1, "mesh-averaged"),
                                            ("ellipse", 3, "exact")])
def test_rcm_port_equals_scipy_on_the_blocks_of_m(kind, ell, inner):
    # the port gives scipy's permutation on every block of M on corner
    # levels 1-5, seeds, degree ties and all
    for k in range(1, 6):
        s = corner_space(kind, k, ell)
        M, _ = corner_gram(kind, k, ell, inner)
        bases = character_bases(s.mirrors)
        blocks = BlockFactor(tuple((Qt, None) for Qt in bases)).project_sparse(Csr.from_dense(M))
        for b, Mk in enumerate(blocks + [Csr.from_dense(M)]):
            assert _same_rcm(Mk), (k, b)


def test_rcm_port_equals_scipy_on_random_patterns():
    # symmetric patterns of several components, rows with and without a
    # stored diagonal, isolated nodes, and degree ties everywhere
    for trial in range(60):
        n = rng.randint(1, 60)
        X = (rng.rand(n, n) < rng.choice([0.03, 0.08, 0.2])) * rng.rand(n, n)
        X = X + X.T
        X[np.diag_indices(n)] = rng.rand(n) * (rng.rand(n) < 0.5)
        cut = rng.randint(0, n + 1)
        X[:cut, cut:] = X[cut:, :cut] = 0.0              # at least two components
        assert _same_rcm(Csr.from_dense(X)), trial
