"""The compiled routines of the run path, without scipy's package imports.

The program calls five LAPACK routines, two BLAS routines and scipy's CSR
kernels.  They live in three extension modules of scipy:
``scipy.linalg._flapack``, ``scipy.linalg._fblas`` and
``scipy.sparse._sparsetools``.  Importing them through ``scipy.linalg`` or
``scipy.sparse`` first runs scipy's package set-up (its array-API layer
and, through it, ``numpy.f2py``), which takes several times as long as
importing numpy.  The extension modules need none of it.  So each one is
loaded here from its file in scipy's install directory and registered
under its dotted name.  A later ``import scipy.linalg`` or
``scipy.sparse``, in the tests, ``verify`` or the benchmark's checks,
finds it there and reuses the same module object.  Where the file is not
found, or the module is already loaded, it is imported by name, through
scipy's package init: the same routines either way.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys


def _extension_file(name: str) -> str | None:
    """The file of scipy's extension module ``name`` (dotted, e.g.
    ``scipy.linalg._flapack``), found without importing scipy, or None."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    *package, leaf = name.split(".")[1:]
    for root in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, *package, leaf + suffix)
            if os.path.isfile(path):
                return path
    return None


def load(name: str):
    """The extension module ``name``: loaded from its file and registered
    in ``sys.modules``, or imported by name if it is already loaded or its
    file is not found."""
    path = _extension_file(name)
    if path is None or name in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


flapack = load("scipy.linalg._flapack")
fblas = load("scipy.linalg._fblas")
sparsetools = load("scipy.sparse._sparsetools")
