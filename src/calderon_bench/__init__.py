"""Opposite-order operator preconditioning with diagonally scaled coupling
on closed curves, plus the benchmark that checks uniformity of the
resulting spectral condition numbers under local refinement.

The namespace is lazy (PEP 562): each public name, and each module of the
package, is imported on its first use, so building a geometry does not
load the run path."""

import importlib

_SOURCES = {
    "geometry": ("Geometry", "make_geometry", "arc_length", "total_length"),
    "mesh": ("Mesh", "initial_mesh", "refine", "uniform_refine", "corner_schedule",
             "panel_samples", "panel_chords"),
    "fespace": ("FeSpace", "build_space"),
    "quadrature": ("QuadRule", "PairRule", "gauss_rule", "pair_rule", "adaptive_integrate"),
    "gram": ("mass_matrix", "lumped_matrix", "scaled_basis"),
    "boundary_operators": ("assemble_operator_pair",),
    "precond": ("lumped_precond", "mass_precond", "jacobi_precond",
                "richardson_weight", "richardson_precond"),
    "spectral": ("spd_factor", "block_factor", "kappa"),
    "cli": ("ExperimentConfig", "ReportRow", "run_experiment", "emit_table"),
}
# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
_MODULES = frozenset({*_SOURCES, "_kernels", "duals"})

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    """A public name or a module of the package, imported on first use and
    bound here, so that later lookups do not come back."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
