import numpy as np
import pytest

from calderon_bench.spectral import NotSPDError, kappa, spd_factor

from helpers import faddeev_leverrier

rng = np.random.RandomState(314159)


def test_spd_factor_identity_and_diagonal():
    assert np.array_equal(spd_factor(np.eye(4)), np.eye(4))
    d = np.array([4.0, 9.0, 16.0])
    assert np.allclose(spd_factor(np.diag(d)), np.diag(np.sqrt(d)))


def test_spd_factor_random_reconstruction():
    Q, _ = np.linalg.qr(rng.randn(6, 6))
    S = Q @ np.diag([1.0, 2.0, 3.0, 5.0, 8.0, 13.0]) @ Q.T
    S = 0.5 * (S + S.T)
    L = spd_factor(S)
    assert np.abs(L @ L.T - S).max() <= 1e-10 * np.abs(S).max()
    assert np.abs(np.triu(L, 1)).max() == 0.0


def test_spd_factor_rejects_indefinite():
    with pytest.raises(NotSPDError):
        spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_kappa_known_spectra():
    # against the identity, kappa is the extreme eigenvalue ratio of G
    assert kappa(np.diag([3.0, 1.0, 2.0]), np.eye(3)) == pytest.approx(3.0, rel=1e-14)
    assert kappa(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2)) == pytest.approx(3.0, rel=1e-14)


def test_kappa_vs_characteristic_polynomial():
    # quartic-root oracle: char poly by Faddeev-LeVerrier trace recursion
    S = _random_spd(4)
    roots = np.sort(np.roots(faddeev_leverrier(S)).real)
    assert kappa(S, np.eye(4)) == pytest.approx(roots[-1] / roots[0], rel=1e-10)


def test_kappa_inverse_is_one():
    Q, _ = np.linalg.qr(rng.randn(5, 5))
    A = Q @ np.diag([1.0, 2.0, 4.0, 7.0, 11.0]) @ Q.T
    A = 0.5 * (A + A.T)
    assert kappa(np.linalg.inv(A), A) == pytest.approx(1.0, rel=1e-10)


def _random_spd(n):
    Q, _ = np.linalg.qr(rng.randn(n, n))
    A = Q @ np.diag(rng.uniform(0.5, 5.0, n)) @ Q.T
    return 0.5 * (A + A.T)


def test_kappa_left_right_coincide():
    G, A = _random_spd(7), _random_spd(7)
    assert kappa(G, A) == pytest.approx(kappa(A, G), rel=1e-8)


def test_kappa_matches_cubic_characteristic_oracle():
    G = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
    A = np.array([[1.0, 0.2, 0.1], [0.2, 2.0, 0.0], [0.1, 0.0, 0.5]])
    lam = np.sort(np.roots(faddeev_leverrier(G @ A)).real)
    brute = (lam.max() / lam.min())            # rho(X) rho(X^{-1}) for positive spectrum
    assert kappa(G, A) == pytest.approx(brute, rel=1e-8)


def test_kappa_matches_nonsymmetric_definition_small():
    for n in (2, 4, 8):
        G, A = _random_spd(n), _random_spd(n)
        lam = np.linalg.eigvals(G @ A)
        assert np.abs(lam.imag).max() < 1e-10 * np.abs(lam.real).max()
        brute = np.abs(lam.real).max() / np.abs(lam.real).min()
        assert kappa(G, A) == pytest.approx(brute, rel=1e-8)


def test_kappa_scalar_invariance():
    G, A = _random_spd(6), _random_spd(6)
    k = kappa(G, A)
    assert kappa(10.0 * G, A) == pytest.approx(k, rel=1e-10)
    assert kappa(G, 10.0 * A) == pytest.approx(k, rel=1e-10)


def test_kappa_with_shared_factor_matches_own_factor():
    G, A = _random_spd(9), _random_spd(9)
    L = spd_factor(A)
    for Gi in (G, 3.0 * G, np.linalg.inv(A)):
        C = L.T @ Gi @ L                        # reference: two dense GEMMs
        lam = np.linalg.eigvalsh(0.5 * (C + C.T))
        assert kappa(Gi, A, L) == kappa(Gi, A)
        assert kappa(Gi, A, L) == pytest.approx(lam[-1] / lam[0], rel=1e-12)


def test_kappa_rejects_indefinite():
    A = _random_spd(4)
    G = np.diag([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(NotSPDError):
        kappa(G, A)
