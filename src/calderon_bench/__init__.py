"""Opposite-order operator preconditioning with diagonally scaled coupling
on closed curves, plus the benchmark that checks uniformity of the
resulting spectral condition numbers under local refinement."""

from .geometry import Geometry, make_geometry, arc_length, total_length
from .mesh import (Mesh, initial_mesh, refine, uniform_refine, corner_schedule, panel_samples,
                   panel_chords)
from .fespace import FeSpace, build_space
from .quadrature import QuadRule, PairRule, gauss_rule, pair_rule, adaptive_integrate
from .gram import mass_matrix, lumped_matrix, scaled_basis
from .boundary_operators import assemble_operator_pair
from .precond import (lumped_precond, mass_precond, jacobi_precond,
                      richardson_weight, richardson_precond)
from .spectral import spd_factor, block_factor, kappa
from .cli import ExperimentConfig, ReportRow, run_experiment, emit_table

__all__ = [
    "Geometry", "make_geometry", "arc_length", "total_length",
    "Mesh", "initial_mesh", "refine", "uniform_refine", "corner_schedule", "panel_samples",
    "panel_chords",
    "FeSpace", "build_space",
    "QuadRule", "PairRule", "gauss_rule", "pair_rule", "adaptive_integrate",
    "mass_matrix", "lumped_matrix", "scaled_basis",
    "assemble_operator_pair",
    "lumped_precond", "mass_precond", "jacobi_precond",
    "richardson_weight", "richardson_precond",
    "spd_factor", "block_factor", "kappa",
    "ExperimentConfig", "ReportRow", "run_experiment", "emit_table",
]

__version__ = "0.1.0"
