"""Nearest shift-invariant subspaces from sampled Fourier data.

Fits, to a finite family of observed spectra, the closest subspace of
prescribed length in four regimes: plain shift-invariant, shift-invariant
with lattice extra-invariance, multi-tile Paley-Wiener, and the discrete
sequence-space analogue.  See the README for the model and file formats.
"""

from .discrete import (
    DiscreteDataset,
    DiscreteModel,
    DiscretePartition,
    brute_force_optimal,
    error_discrete,
    fit_discrete,
)
from .errors import ConvergenceError, SisfitError, ValidationError
from .extra import ExtraInvariantModel, error_extra, fit_extra_invariant
from .hermitian import EigenSystem, eig_hermitian
from .lattice import DualLattice, coset_of, make_dual_lattice
from .multitile import MultiTileModel, fit_multitile
from .sis import FittedModel, error_sis, fit_sis, project_onto
from .spectral import SpectralDataset, SpectralGrid, ingest, synthesize
from .verify import verify_extra_invariance, verify_model

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DiscreteDataset",
    "DiscreteModel",
    "DiscretePartition",
    "DualLattice",
    "EigenSystem",
    "ExtraInvariantModel",
    "FittedModel",
    "MultiTileModel",
    "SisfitError",
    "SpectralDataset",
    "SpectralGrid",
    "ValidationError",
    "brute_force_optimal",
    "coset_of",
    "eig_hermitian",
    "error_discrete",
    "error_extra",
    "error_sis",
    "fit_discrete",
    "fit_extra_invariant",
    "fit_multitile",
    "fit_sis",
    "ingest",
    "make_dual_lattice",
    "project_onto",
    "synthesize",
    "verify_extra_invariance",
    "verify_model",
]
