import functools

import numpy as np
import pytest
import scipy.sparse

from calderon_bench import spectral
from calderon_bench.boundary_operators import assemble_operator_pair
from calderon_bench.cli import _build_precond, build_level
from calderon_bench.fespace import MirrorGroup, build_space, mirror_permutations
from calderon_bench.geometry import make_geometry
from calderon_bench.gram import lumped_matrix
from calderon_bench.mesh import corner_schedule, initial_mesh, refine
from calderon_bench.precond import (jacobi_precond, lumped_precond, mass_precond,
                                    richardson_precond, richardson_weight)
from calderon_bench.spectral import (BlockFactor, Csr, NotSPDError, _extreme_eigenvalues, _gram,
                                     _project, block_ends, block_factor, character_bases, kappa,
                                     mirror_residual, spd_factor)

from helpers import (BLOCK_SIZES, corner_gram, corner_level, corner_space, faddeev_leverrier,
                     node_points, to_scipy)

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
    assert kappa(_factor(np.diag([3.0, 1.0, 2.0])), np.eye(3)) == pytest.approx(3.0, rel=1e-14)
    assert kappa(_factor(np.array([[2.0, 1.0], [1.0, 2.0]])), np.eye(2)) == pytest.approx(
        3.0, rel=1e-14)


def test_kappa_vs_characteristic_polynomial():
    # quartic-root oracle: char poly by Faddeev-LeVerrier trace recursion
    S = _random_spd(4)
    roots = np.sort(np.roots(faddeev_leverrier(S)).real)
    assert kappa(_factor(S), np.eye(4)) == pytest.approx(roots[-1] / roots[0], rel=1e-10)


def test_kappa_inverse_is_one():
    Q, _ = np.linalg.qr(rng.randn(5, 5))
    A = Q @ np.diag([1.0, 2.0, 4.0, 7.0, 11.0]) @ Q.T
    A = 0.5 * (A + A.T)
    assert kappa(_factor(np.linalg.inv(A)), A) == pytest.approx(1.0, rel=1e-10)


def _random_spd(n):
    Q, _ = np.linalg.qr(rng.randn(n, n))
    A = Q @ np.diag(rng.uniform(0.5, 5.0, n)) @ Q.T
    return 0.5 * (A + A.T)


def _factor(G):
    """A bare SPD G as kappa's factor F, G = F^T F."""
    return spd_factor(G).T


def _two_sided(X, Qt):
    """Q_k^T X Q_k by two sparse products, for any X: the reference for the
    dense G, which commutes with the mirrors only to D's mirror residual."""
    return Qt @ (Qt @ X).T


def test_kappa_left_right_coincide():
    G, A = _random_spd(7), _random_spd(7)
    assert kappa(_factor(G), A) == pytest.approx(kappa(_factor(A), G), rel=1e-8)


def test_kappa_matches_cubic_characteristic_oracle():
    G = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
    A = np.array([[1.0, 0.2, 0.1], [0.2, 2.0, 0.0], [0.1, 0.0, 0.5]])
    lam = np.sort(np.roots(faddeev_leverrier(G @ A)).real)
    brute = (lam.max() / lam.min())            # rho(X) rho(X^{-1}) for positive spectrum
    assert kappa(_factor(G), A) == pytest.approx(brute, rel=1e-8)


def test_kappa_matches_nonsymmetric_definition_small():
    for n in (2, 4, 8):
        G, A = _random_spd(n), _random_spd(n)
        lam = np.linalg.eigvals(G @ A)
        assert np.abs(lam.imag).max() < 1e-10 * np.abs(lam.real).max()
        brute = np.abs(lam.real).max() / np.abs(lam.real).min()
        assert kappa(_factor(G), A) == pytest.approx(brute, rel=1e-8)


def test_kappa_scalar_invariance():
    G, A = _random_spd(6), _random_spd(6)
    k = kappa(_factor(G), A)
    assert kappa(_factor(10.0 * G), A) == pytest.approx(k, rel=1e-10)
    assert kappa(_factor(G), 10.0 * A) == pytest.approx(k, rel=1e-10)


def test_kappa_with_shared_factor_matches_own_factor():
    G, A = _random_spd(9), _random_spd(9)
    F, L = block_factor(A), spd_factor(A)
    for Gi in (G, 3.0 * G, np.linalg.inv(A)):
        C = L.T @ Gi @ L                        # reference: two dense GEMMs
        lam = np.linalg.eigvalsh(0.5 * (C + C.T))
        Fi = _factor(Gi)
        assert kappa(Fi, F) == kappa(Fi, A)
        assert kappa(Fi, F) == pytest.approx(lam[-1] / lam[0], rel=1e-12)


def test_kappa_rejects_indefinite():
    # G = F^T F is semidefinite for every F; a singular F makes it singular
    A = _random_spd(4)
    F = np.diag([1.0, 0.0, 1.0, 1.0])
    with pytest.raises(NotSPDError):
        kappa(F, A)


# ---------------------------------------------------------------------------
# the certificate: only blocks that two shifted Cholesky factors cannot
# place strictly inside the ends found so far are tridiagonalized

def _planted(spectra):
    """Blocks F_k = diag(sqrt(lam_k)) Q_k with Q_k a random orthogonal
    matrix, and a factor of A with L_k = I, so that C_k = F_k^T F_k has the
    spectrum lam_k up to rounding."""
    F = tuple(np.sqrt(lam)[:, None] * np.linalg.qr(rng.randn(len(lam), len(lam)))[0]
              for lam in map(np.asarray, spectra))
    return F, BlockFactor(tuple((None, np.eye(Fk.shape[0])) for Fk in F))


def _exact_kappa(F, factor):
    """kappa with every block tridiagonalized."""
    ends = [_extreme_eigenvalues(_gram(Fk, L)) for Fk, (_, L) in zip(F, factor.blocks)]
    return max(hi for _, hi in ends) / min(lo for lo, _ in ends)


def _tridiagonalized(monkeypatch):
    """The order of each block that kappa tridiagonalizes, as it goes."""
    seen, real = [], spectral._extreme_eigenvalues
    monkeypatch.setattr(spectral, "_extreme_eigenvalues",
                        lambda C: seen.append(C.shape[0]) or real(C))
    return seen


def test_certificate_tridiagonalizes_only_blocks_that_reach_an_end(monkeypatch):
    # block 0 always; a later block holding the smallest or the largest
    # eigenvalue, or within an ulp of an end found so far; never one
    # strictly inside.  The blocks' orders tell them apart
    F0, factor0 = _planted([np.linspace(1.0, 10.0, 8)])
    lo_0, hi_0, _ = block_ends(F0, factor0)
    cases = [
        ([np.linspace(2.0, 5.0, 9)], []),                                   # inside
        ([np.linspace(0.5, 5.0, 9)], [9]),                                  # lambda_min
        ([np.linspace(2.0, 20.0, 9)], [9]),                                 # lambda_max
        ([np.linspace(2.0, np.nextafter(hi_0, 0.0), 9)], [9]),              # 1 ulp below hi
        ([np.linspace(np.nextafter(lo_0, 2.0), 5.0, 9)], [9]),              # 1 ulp above lo
        ([np.linspace(2.0, 5.0, 9), np.linspace(0.5, 3.0, 10), np.geomspace(3.0, 7.0, 11),
          np.linspace(4.0, 12.0, 12), np.linspace(0.8, 11.0, 13)], [10, 12]),
    ]
    for later, expected in cases:
        F, factor = _planted(later)
        F, factor = F0 + F, BlockFactor(factor0.blocks + factor.blocks)
        seen = _tridiagonalized(monkeypatch)
        ends = block_ends(F, factor)
        monkeypatch.undo()
        assert seen == [8] + expected and ends.tridiagonalized == len(seen)
        assert kappa(F, factor) == _exact_kappa(F, factor) == ends.hi / ends.lo


@pytest.mark.parametrize("kind,ell,inner", [("square", 3, "exact"),
                                            ("ellipse", 1, "mesh-averaged")])
def test_certified_kappa_equals_all_blocks_tridiagonalized(monkeypatch, kind, ell, inner):
    # the six columns of level 3 to the bit, and the square's 2-D block
    # (n = 120), which holds no extreme there, never tridiagonalized
    lev = corner_level(kind, 3, ell, inner)
    omega = richardson_weight(1, ell)[2]
    seen = _tridiagonalized(monkeypatch)
    for name in ("lumped", "mass", "richardson:2", "richardson:4", "richardson:6", "jacobi"):
        F = _build_precond(name, lev.B_factors, lev.coupling, lev.d, omega)
        del seen[:]
        k = kappa(F, lev.factor)
        assert seen[0] == lev.factor.sizes[0] and len(seen) < len(lev.factor.sizes), name
        assert 120 not in seen, name
        assert k == _exact_kappa(F, lev.factor), name


# ---------------------------------------------------------------------------
# kappa by the blocks of the curve's mirrors

def _preconds(B, M, D, ell):
    """The six preconditioners of dense B, M and D, each as its dense
    factor F, G = F^T F."""
    omega = richardson_weight(1, ell)[2]
    out = {"lumped": lumped_precond(B, D), "mass": mass_precond(B, M),
           "jacobi": jacobi_precond(B, M)}
    out.update({f"richardson:{k}": richardson_precond(B, M, D, k, omega) for k in (2, 4, 6)})
    return out


@pytest.mark.parametrize("kind,ell,inner", [("square", 1, "exact"), ("square", 3, "exact"),
                                            ("ellipse", 1, "mesh-averaged")])
def test_block_kappa_matches_dense(kind, ell, inner):
    for k in range(1, 5):
        lev = corner_level(kind, k, ell, inner)
        A, B, n = lev.A, lev.B, lev.space.ndof
        F = block_factor(A, lev.space.mirrors)
        assert F.sizes == BLOCK_SIZES[kind, ell][k - 1], (k, F.sizes)
        assert sum(F.sizes) == (3 * n // 4 if kind == "square" else n), k
        dense = block_factor(A)
        for name, Fd in _preconds(B, lev.M, lev.D, ell).items():
            assert kappa(Fd, F) == pytest.approx(kappa(Fd, dense), rel=1e-10), (k, name)


@pytest.mark.parametrize("kind,ell,inner", [("square", 3, "exact"),
                                            ("ellipse", 1, "mesh-averaged")])
def test_kappa_takes_A_or_its_factor(kind, ell, inner):
    # A is factored in kappa as one block: its own one-block factor gives
    # the same kappa to the bit, the mirror blocks' factor the same to rounding
    lev = corner_level(kind, 3, ell, inner)
    dense = block_factor(lev.A)
    for name, Fd in _preconds(lev.B, lev.M, lev.D, ell).items():
        assert kappa(Fd, dense) == kappa(Fd, lev.A), name
        assert kappa(Fd, lev.factor) == pytest.approx(kappa(Fd, lev.A), rel=1e-10), name


@pytest.mark.parametrize("kind,ell,inner", [("square", 1, "exact"), ("square", 3, "exact"),
                                            ("ellipse", 1, "mesh-averaged")])
def test_block_builds_match_projected_dense(kind, ell, inner):
    # each G_k = F_k^T F_k built on its block from the factor of B_k,
    # M-hat and d-hat is Q_k^T G Q_k of the G built at full size
    omega = richardson_weight(1, ell)[2]
    for k in range(1, 5):
        lev = corner_level(kind, k, ell, inner)
        F, C = lev.factor, lev.coupling
        sizes = tuple(b.shape[0] for b in lev.B_factors)
        assert F.sizes == C.sizes == sizes == BLOCK_SIZES[kind, ell][k - 1]
        for name, Fd in _preconds(lev.B, lev.M, lev.D, ell).items():
            blocks = _build_precond(name, lev.B_factors, C, lev.d, omega)
            assert isinstance(blocks, tuple) and len(blocks) == len(F.sizes), (k, name)
            for Fk, (Qt, _) in zip(blocks, F.blocks):
                Gk, ref = Fk.T @ Fk, _two_sided(Fd.T @ Fd, Qt)
                assert np.abs(Gk - ref).max() <= 1e-12 * np.abs(Gk).max(), (k, name)


@pytest.mark.parametrize("kind,ell,inner", [("square", 3, "exact"),
                                            ("ellipse", 1, "mesh-averaged")])
def test_factor_kappa_matches_dense_eigvalsh(kind, ell, inner):
    # the run path (block factors, trmm, syrk, dsytrd and two bisections)
    # against the full spectrum of L^T (F^T F) L from one dense factor of A
    # and the dense F, for the six preconditioners of the benchmark
    omega = richardson_weight(1, ell)[2]
    for k in range(1, 5):
        lev = corner_level(kind, k, ell, inner)
        L = np.linalg.cholesky(lev.A)
        for name, Fd in _preconds(lev.B, lev.M, lev.D, ell).items():
            C = L.T @ (Fd.T @ Fd) @ L
            lam = np.linalg.eigvalsh(0.5 * (C + C.T))
            run = kappa(_build_precond(name, lev.B_factors, lev.coupling, lev.d, omega),
                        lev.factor)
            assert run == pytest.approx(lam[-1] / lam[0], rel=1e-10), (k, name)


def test_kappa_takes_no_full_spectrum(monkeypatch):
    # only the two ends of each block's spectrum are computed
    lev = corner_level("square", 2, 3)
    F = lumped_precond(lev.B_factors, lev.d)
    expected = kappa(F, lev.factor)

    def refuse(*args, **kwargs):
        raise AssertionError("a full eigen-solve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert kappa(F, lev.factor) == expected


@pytest.mark.parametrize("kind,ell,inner", [("square", 3, "exact"),
                                            ("ellipse", 1, "mesh-averaged")])
def test_gathered_projection_matches_two_products(kind, ell, inner):
    # sqrt|orbit| X[reps] Q_k against Q_k^T (Q_k^T X)^T for A and B, which
    # orbit assembly makes commute with the mirrors: D4 on the square, the
    # axis mirrors on the ellipse
    for k in (2, 4):
        lev = corner_level(kind, k, ell, inner)
        assert len(lev.factor.sizes) == (5 if kind == "square" else 4)
        for X in (lev.A, lev.B):
            for got, (Qt, _) in zip(lev.factor.project(X), lev.factor.blocks):
                assert np.abs(got - _two_sided(X, Qt)).max() <= 1e-14 * np.abs(X).max(), k


def test_gathered_projection_exact_on_one_block():
    g = make_geometry("ellipse", 0.5, 2.0)
    s = build_space(refine(corner_schedule(g, 1), {1}), 1)
    A, B = assemble_operator_pair(s)
    F = block_factor(A)
    assert F.sizes == (s.ndof,)
    for X in (A, B):
        (got,) = F.project(X)
        assert np.array_equal(got, X)
        (Qt, _), = F.blocks
        assert np.array_equal(_project(X, [Qt])[0], _two_sided(X, Qt))


# blocks taken: the axis mirrors' four, or D4's five where a panel of the
# 12-panel circle straddles the diagonal
STRADDLE_BLOCKS = {("circle", 6): 4, ("ellipse", 10): 4, ("circle", 12): 5}


@pytest.mark.parametrize("kind,n_panels", list(STRADDLE_BLOCKS))
def test_block_builds_where_a_panel_straddles_an_axis(kind, n_panels):
    # a panel that a mirror maps onto itself couples a dof with its own
    # image, so diag(Q^T M Q) is not the image of diag(M) (12 % apart
    # here); Jacobi must take the latter
    lev = build_level(build_space(initial_mesh(make_geometry(kind, 0.5, 2.0), n_panels), 3))
    F, C = lev.factor, lev.coupling
    assert len(F.sizes) == STRADDLE_BLOCKS[kind, n_panels]
    Mh = scipy.sparse.block_diag([to_scipy(b) for b in C.blocks])
    assert np.abs(Mh.diagonal() - C.m).max() > 0.1 * C.m.max()
    omega = richardson_weight(1, 3)[2]
    for name, Fd in _preconds(lev.B, lev.M, lev.D, 3).items():
        blocks = _build_precond(name, lev.B_factors, C, lev.d, omega)
        for Fk, (Qt, _) in zip(blocks, F.blocks):
            Gk, ref = Fk.T @ Fk, _two_sided(Fd.T @ Fd, Qt)
            assert np.abs(Gk - ref).max() <= 1e-12 * np.abs(Gk).max(), name
        assert kappa(blocks, F) == pytest.approx(kappa(Fd, lev.A), rel=1e-10), name


def test_projected_coupling_is_block_diagonal():
    # M-hat keeps no entry between blocks and matches Q^T M Q inside them;
    # D and diag(M) are constant on orbits, so their images are diagonal
    lev = corner_level("square", 2, 3)
    F, C, M, D = lev.factor, lev.coupling, lev.M.toarray(), lev.D
    Qt = scipy.sparse.vstack([to_scipy(b) for b, _ in F.blocks]).toarray()
    cuts = np.cumsum((0,) + F.sizes)
    full = Qt @ M @ Qt.T
    Mh = scipy.sparse.block_diag([to_scipy(b) for b in C.blocks]).toarray()
    for a, b in zip(cuts[:-1], cuts[1:]):
        assert np.abs(Mh[a:b, a:b] - full[a:b, a:b]).max() <= 1e-15 * np.abs(M).max()
        full[a:b, a:b] = Mh[a:b, a:b] = 0.0
    assert not Mh.any()
    for x, xh in ((D, lev.d), (np.diag(M), C.m)):
        X = Qt @ np.diag(x) @ Qt.T
        assert np.abs(X - np.diag(xh)).max() <= 1e-15 * x.max()


def _klein(group):
    """The Klein group of the two axis mirrors: the first four elements of
    D4, whose encoding gives p_d the bit 4."""
    return MirrorGroup(group.dofs[:4], group.panels[:4])


def test_character_bases_orthogonal_partition():
    # the Klein group of the two axis mirrors, which the ellipse takes; on
    # the square they are the first two of its three mirrors
    s = corner_space("square", 2, 3)
    perms = s.mirrors.perms[:2]
    bases = character_bases(_klein(s.mirrors))
    Q = scipy.sparse.vstack([to_scipy(b) for b in bases]).toarray()     # rows: the whole basis
    assert Q.shape == (s.ndof, s.ndof)
    assert np.abs(Q @ Q.T - np.eye(s.ndof)).max() <= 1e-14
    assert np.abs(Q.T @ Q - np.eye(s.ndof)).max() <= 1e-14
    # every row lives on one orbit {i, p_x(i), p_y(i), p_x p_y(i)}
    px, py = perms
    for row in Q:
        support = set(np.flatnonzero(row))
        i = min(support)
        assert support <= {i, px[i], py[i], px[py[i]]}
    # the blocks decouple a mirror-invariant matrix
    M, _ = corner_gram("square", 2, 3)
    QMQ = Q @ M @ Q.T
    cuts = np.cumsum([0] + [b.shape[0] for b in bases])
    for a, b in zip(cuts[:-1], cuts[1:]):
        QMQ[a:b, a:b] = 0.0
    assert np.abs(QMQ).max() <= 1e-15 * np.abs(M).max()
    # the sizes of the level-5 degree-3 square, under the axis mirrors and
    # under D4
    s5 = corner_space("square", 5, 3)
    g5 = s5.mirrors
    assert [b.shape[0] for b in character_bases(_klein(g5))] == [313, 312, 312, 311]
    assert [b.shape[0] for b in character_bases(g5)] == [157, 156, 156, 155, 312]


def _bases_by_definition(group):
    """The dense row bases of ``character_bases`` from the definition: for
    each orbit's least dof r, sum_g chi(g) e_{g(r)} over the group (the
    Klein group for D4's 2-D block), normalized, zero rows dropped."""
    g, chi = group.dofs, group.character
    if len(group.perms) < 3:
        blocks = [(g, chi(k)) for k in range(len(g))]
    else:
        blocks = [(g, chi(k)) for k in (0, 3, 4, 7)] + [(g[:4], chi(1)[:4])]
    out = []
    for images, c in blocks:
        rows = []
        for r in range(images.shape[1]):
            if images[:, r].min() < r:
                continue                                # not the orbit's least dof
            v = np.zeros(images.shape[1])
            np.add.at(v, images[:, r], c)
            if v.any():
                rows.append(v / np.sqrt(v @ v))
        out.append(np.array(rows))
    return out


@pytest.mark.parametrize("kind,group", [("square", "trivial"), ("ellipse", "klein"),
                                        ("square", "d4"), ("circle", "d4")])
def test_character_bases_match_the_definition(kind, group):
    # each block is the definition's matrix to the bit, with every row's
    # dofs in ascending order, and its rows are orthonormal
    for k in range(1, 5):
        s = corner_space(kind, k, 3)
        G = MirrorGroup.trivial(s.ndof, s.mesh.n_panels) if group == "trivial" else s.mirrors
        assert len(G.perms) == {"trivial": 0, "klein": 2, "d4": 3}[group]
        bases = character_bases(G)
        for Qt, ref in zip(bases, _bases_by_definition(G), strict=True):
            assert isinstance(Qt, Csr) and Qt.shape == ref.shape, k
            assert np.array_equal(Qt.toarray(), ref), k
            assert all(np.all(np.diff(Qt.indices[a:b]) > 0)
                       for a, b in zip(Qt.indptr[:-1], Qt.indptr[1:])), k
            assert np.abs(Qt @ Qt.toarray().T - np.eye(Qt.shape[0])).max() <= 1e-15, k
        Q = scipy.sparse.vstack([to_scipy(b) for b in bases]).toarray()
        assert np.abs(Q @ Q.T - np.eye(Q.shape[0])).max() <= 1e-15, k
        assert Q.shape[0] == (3 * s.ndof // 4 if group == "d4" else s.ndof), k


def test_assembly_and_bases_read_one_orbit_record(monkeypatch):
    # the dof orbits are derived once per group, on first use, whichever of
    # assembly and the character bases comes first; the bases of D4's 2-D
    # block derive those of its Klein subgroup.  The inverse dof maps are
    # derived once, by assembly alone: the bases do not read them, so the
    # Klein subgroup goes without
    calls = {"orbits": [], "inverses": []}
    for name, seen in calls.items():
        def counted(group, _derive=getattr(MirrorGroup, name).func, _seen=seen):
            _seen.append(group)
            return _derive(group)

        derived = functools.cached_property(counted)
        derived.__set_name__(MirrorGroup, name)
        monkeypatch.setattr(MirrorGroup, name, derived)
    for first_bases in (True, False):
        s = build_space(corner_schedule(make_geometry("square", 0.5), 1), 3)
        bases, assembly = lambda: character_bases(s.mirrors), lambda: assemble_operator_pair(s)
        for step in (bases, assembly) if first_bases else (assembly, bases):
            step()
            assert [g for g in calls["orbits"] if g is s.mirrors] == [s.mirrors], first_bases
            assert calls["inverses"] == ([] if step is bases and first_bases else [s.mirrors])
        assert len(calls["orbits"]) == 2        # the group and its Klein subgroup
        for seen in calls.values():
            seen.clear()


def _orbit(perms, i):
    """The orbit of dof i under the group generated by ``perms``."""
    orbit = {i}
    while True:
        grown = orbit | {int(p[j]) for p in perms for j in orbit}
        if grown == orbit:
            return orbit
        orbit = grown


@pytest.mark.parametrize("kind", ["square", "circle"])
def test_mirror_permutations_on_d4_curves(kind):
    # three involutions on the square and the circle, with p_d conjugating
    # p_x into p_y; each maps every node onto its mirror image
    for k, ell in ((1, 1), (2, 3), (3, 3)):
        s = corner_space(kind, k, ell)
        perms = s.mirrors.perms
        assert len(perms) == 3, k
        px, py, pd = perms
        for p in perms:
            assert np.array_equal(np.sort(p), np.arange(s.ndof))
            assert np.array_equal(p[p], np.arange(s.ndof))
        assert np.array_equal(pd[px[pd]], py)
        assert not np.array_equal(pd, px) and not np.array_equal(pd, py)
    pts = node_points(s) - np.array(s.mesh.geometry.mirror_centre)
    for i in range(s.ndof):
        x, y = pts[i]
        for p, image in zip(perms, ((-x, y), (x, -y), (y, x))):
            assert np.abs(pts[p[i]] - image).max() <= 1e-12


def test_mirror_permutations_on_the_ellipse():
    # the ellipse of ratio 2 has the two axis mirrors only
    for k, ell in ((1, 1), (2, 3), (3, 3)):
        perms = mirror_permutations(corner_space("ellipse", k, ell))
        assert len(perms) == 2, k


def test_d4_bases_orthonormal_on_orbits():
    s = corner_space("square", 2, 3)
    perms = s.mirrors.perms
    bases = character_bases(s.mirrors)
    assert [b.shape[0] for b in bases] == [37, 36, 36, 35, 72]
    Q = scipy.sparse.vstack([to_scipy(b) for b in bases]).toarray()
    assert Q.shape == (3 * s.ndof // 4, s.ndof)
    assert np.abs(Q @ Q.T - np.eye(Q.shape[0])).max() <= 1e-14
    # a 1-D block's row lives on one orbit of D4, a row of the 2-D block
    # on one orbit of the axis mirrors
    cuts = np.cumsum([0] + [b.shape[0] for b in bases])
    for r, row in enumerate(Q):
        support = set(np.flatnonzero(row).tolist())
        group = perms if r < cuts[4] else perms[:2]
        assert support <= _orbit(group, min(support)), r
    # with the left-out partner, the axis mirrors' (+, -) block, the rows
    # make an orthogonal n x n matrix
    partner = character_bases(_klein(s.mirrors))[2]
    Qf = np.vstack([Q, partner.toarray()])
    assert np.abs(Qf.T @ Qf - np.eye(s.ndof)).max() <= 1e-14
    # the five blocks decouple a D4-invariant matrix
    M, _ = corner_gram("square", 2, 3)
    QMQ = Q @ M @ Q.T
    for a, b in zip(cuts[:-1], cuts[1:]):
        QMQ[a:b, a:b] = 0.0
    assert np.abs(QMQ).max() <= 1e-15 * np.abs(M).max()


def test_d4_partner_blocks_are_isospectral():
    # the left-out block (+, -) of the axis mirrors has the spectrum of the
    # kept 2-D block (-, +) for A, B and each of the six G, and the pencil
    # of G and A has the same extreme eigenvalues on both: why kappa may
    # drop it
    lev = corner_level("square", 3, 3)
    s, A, B, M, D = lev.space, lev.A, lev.B, lev.M, lev.D
    kept = character_bases(s.mirrors)[4]
    partner = character_bases(_klein(s.mirrors))[2]
    assert kept.shape == partner.shape == (120, s.ndof)
    assert np.abs(kept @ partner.toarray().T).max() <= 1e-15
    Fs = _preconds(B, M, D, 3)
    for name, X in [("A", A), ("B", B), *((n, Fd.T @ Fd) for n, Fd in Fs.items())]:
        lam, mu = (np.linalg.eigvalsh(_two_sided(X, Qt)) for Qt in (kept, partner))
        assert np.abs(lam - mu).max() <= 1e-12 * np.abs(mu).max(), name
    L = [spd_factor(_two_sided(A, Qt)) for Qt in (kept, partner)]
    for name, Fd in Fs.items():
        ext, ext_partner = (np.array(_extreme_eigenvalues(_gram((Qt @ Fd.T).T, Lk)))
                            for Qt, Lk in zip((kept, partner), L))
        assert np.abs(ext / ext_partner - 1).max() <= 1e-12, name


def test_mirror_residual_reads_half_the_rows():
    # the residual of a dense matrix, made a CSR record, is that of the
    # full dense difference, to the bit, on the level-3 square's A and B
    # and on a random matrix that commutes with no mirror
    lev = corner_level("square", 3, 3)
    A, B, D = lev.A, lev.B, lev.D
    X = rng.randn(*A.shape)
    perms = lev.space.mirrors.perms
    for Y in (A, B, X):
        assert mirror_residual(Csr.from_dense(Y), perms) == tuple(np.abs(Y[p][:, p] - Y).max() / np.abs(Y).max()
                                                  for p in perms)
    assert mirror_residual(D, perms) == tuple(np.abs(D[p] - D).max() / D.max() for p in perms)
    # a unit entry in any row, those on a mirror's axis included, is seen
    n = 96
    for p in corner_space("square", 2, 1).mirrors.perms:
        assert np.any(p == np.arange(n))
        j = np.flatnonzero(p != np.arange(n))[0]
        for i in range(n):
            X = np.zeros((n, n))
            X[i, j] = 1.0
            assert mirror_residual(Csr.from_dense(X), [p]) == (1.0,), i


def test_mirror_residual_per_map_equals_single_map_calls():
    # one set-up of the matrix for every map gives, map by map, the bits of
    # a call with that map alone, on M (CSR) and D of the level-3 cubic square
    lev = corner_level("square", 3, 3)
    perms = lev.space.mirrors.perms
    assert len(perms) == 3
    for X in (lev.M, lev.D):
        assert mirror_residual(X, perms) == tuple(mirror_residual(X, [p])[0] for p in perms)
    assert mirror_residual(lev.M, ()) == ()


def test_mesh_without_mirror_takes_single_block():
    # one panel refined on one side of the ellipse: no mirror maps the mesh
    # onto itself, so the factor is one block
    g = make_geometry("ellipse", 0.5, 2.0)
    s = build_space(refine(corner_schedule(g, 1), {1}), 1)
    assert mirror_permutations(s) == ()
    A, B = assemble_operator_pair(s)
    F = block_factor(A, s.mirrors)
    assert F.sizes == (s.ndof,)
    Fd = lumped_precond(B, lumped_matrix(s))
    assert kappa(Fd, F) == kappa(Fd, A)
