"""``calderon_bench._kernels``: scipy's LAPACK, BLAS and CSR extension
modules loaded by file location are the modules scipy imports, and the
run path's calls into them give scipy's public routines' results to the
bit."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import calderon_bench
from calderon_bench import _kernels
from calderon_bench.precond import (_banded_cholesky, _banded_solve, reference_mass_and_lumped,
                                    richardson_weight)
from calderon_bench.spectral import BlockFactor, Csr, _extreme_eigenvalues, character_bases

from helpers import corner_gram, corner_level, corner_space, to_scipy

NAMES = {"scipy.linalg._flapack": "flapack", "scipy.linalg._fblas": "fblas",
         "scipy.sparse._sparsetools": "sparsetools"}
SRC = os.path.dirname(os.path.dirname(calderon_bench.__file__))
rng = np.random.RandomState(2718)


@pytest.mark.parametrize("scipy_first", [False, True])
def test_both_routes_give_one_module_object(scipy_first):
    # loaded from their files before scipy's packages, the modules are the
    # ones scipy.linalg.lapack, scipy.linalg.blas and scipy.sparse import
    # later; imported by name first, the loader takes them from there
    public = ("import scipy.linalg.lapack, scipy.linalg.blas, scipy.sparse\n"
              "from scipy.sparse import _sparsetools as st\n")
    loader = "from calderon_bench import _kernels as k\n"
    code = (public + loader if scipy_first else loader + public) + (
        "print(k.flapack is scipy.linalg.lapack._flapack, k.fblas is scipy.linalg.blas._fblas,"
        " k.sparsetools is st, scipy.linalg.lapack.dsytrd is k.flapack.dsytrd)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "True True True True\n"


def test_loader_falls_back_to_the_import_by_name(monkeypatch):
    # with no file found the loader imports each module by its dotted name,
    # through scipy's package init, and gets the same module object
    for name, attr in NAMES.items():
        assert _kernels._extension_file(name) is not None
        assert sys.modules[name] is getattr(_kernels, attr)
    monkeypatch.setattr(_kernels, "_extension_file", lambda name: None)
    for name, attr in NAMES.items():
        assert _kernels.load(name) is getattr(_kernels, attr), name


def test_lapack_and_blas_calls_equal_scipys_routines():
    # kappa's dtrmm, dsyrk, dsytrd and dstebz on a level-2 block, the
    # banded dpbtrf and dpbtrs of the mass preconditioner, and dsygvd of the
    # Richardson weight: each equals scipy's public routine to the bit
    lev = corner_level("square", 2, 3)
    (_, L), F = lev.factor.blocks[4], lev.B_factors[4].T
    Y = scipy.linalg.blas.dtrmm(1.0, L, F, side=1, lower=1)
    C = scipy.linalg.blas.dsyrk(1.0, Y, trans=1, lower=1)
    lwork = int(scipy.linalg.lapack.dsytrd_lwork(C.shape[0], lower=1)[0])
    _, d, e, _, _ = scipy.linalg.lapack.dsytrd(C, lower=1, lwork=lwork)
    ends = [scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 0.0, i, i, 0.0, "E")[1][0]
            for i in (1, C.shape[0])]
    assert _extreme_eigenvalues(F, L) == tuple(ends)
    coupling = lev.coupling
    for ab, perm, LB in zip(coupling.bands, coupling.order, lev.B_factors):
        c = _banded_cholesky(ab)
        assert np.array_equal(c, scipy.linalg.cholesky_banded(ab, lower=True))
        assert np.array_equal(_banded_solve(c, LB[perm]),
                              scipy.linalg.cho_solve_banded((c, True), LB[perm]))
    for dim, ell in ((1, 1), (1, 3), (2, 3)):
        M, D = reference_mass_and_lumped(dim, ell)
        lam = scipy.linalg.eigh(M, np.diag(D), eigvals_only=True)
        assert richardson_weight(dim, ell)[:2] == (lam[0], lam[-1])


def test_banded_calls_keep_the_finite_check():
    ab = np.array([[4.0, np.nan, 4.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="infs or NaNs"):
        _banded_cholesky(ab)
    c = _banded_cholesky(np.array([[4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        _banded_solve(c, np.array([[1.0], [np.inf], [0.0]]))


def test_csr_products_equal_scipy_sparse():
    # the record's products with dense blocks (csr_matvecs), its transpose
    # and the blocks of M (csr_matmat, csr_tocsc, csr_sort_indices) are
    # scipy.sparse's, array for array
    s = corner_space("ellipse", 3, 3)
    M, _ = corner_gram("ellipse", 3, 3)
    Ms, bases = Csr.from_dense(M), character_bases(s.mirrors)
    ref = scipy.sparse.csr_matrix(M)
    for got, want in ((Ms, ref), (Ms.transpose(), ref.T.tocsr())):
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in
                   ((got.indptr, want.indptr), (got.indices, want.indices),
                    (got.data, want.data)))
    assert np.array_equal(Ms.toarray(), M) and np.array_equal(Ms.diagonal(), np.diag(M))
    for X in (rng.randn(s.ndof, 7), rng.randn(7, s.ndof).T, rng.randn(s.ndof, 1)):
        for Qt in bases:
            assert np.array_equal(Qt @ X, to_scipy(Qt) @ X)
    blocks = BlockFactor(tuple((Qt, None) for Qt in bases)).project_sparse(Ms)
    for Qt, P in zip(bases, blocks):
        want = to_scipy(Qt) @ ref @ to_scipy(Qt).T
        want.sort_indices()
        assert np.array_equal(P.indptr, want.indptr)
        assert np.array_equal(P.indices, want.indices)
        assert np.array_equal(P.data, want.data)
    with pytest.raises(ValueError):
        Ms @ rng.randn(s.ndof + 1, 2)
