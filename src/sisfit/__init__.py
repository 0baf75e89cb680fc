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
    block_gramian,
    brute_force_optimal,
    error_discrete,
    fit_discrete,
)
from .errors import ConvergenceError, SisfitError, ValidationError
from .extra import (
    ExtraInvariantModel,
    error_extra,
    fit_extra_invariant,
    split_by_coset,
)
from .hermitian import EigenSystem, eig_hermitian, normalize_phase, rank_by_threshold
from .lattice import DualLattice, coset_of, make_dual_lattice, primal_description
from .multitile import (
    MultiTileModel,
    TileLayer,
    decompose_layers,
    error_multitile_series,
    fit_multitile,
    weight,
)
from .sis import FittedModel, error_sis, fit_sis, project_onto
from .spectral import (
    SpectralDataset,
    SpectralGrid,
    energy_report,
    fiber,
    gramian,
    ingest,
    synthesize,
    write_dataset,
)
from .verify import verify_extra_invariance, verify_model, verify_multitile

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
    "TileLayer",
    "ValidationError",
    "block_gramian",
    "brute_force_optimal",
    "coset_of",
    "decompose_layers",
    "eig_hermitian",
    "energy_report",
    "error_discrete",
    "error_extra",
    "error_multitile_series",
    "error_sis",
    "fiber",
    "fit_discrete",
    "fit_extra_invariant",
    "fit_multitile",
    "fit_sis",
    "gramian",
    "ingest",
    "make_dual_lattice",
    "normalize_phase",
    "primal_description",
    "project_onto",
    "rank_by_threshold",
    "split_by_coset",
    "synthesize",
    "verify_extra_invariance",
    "verify_model",
    "verify_multitile",
    "weight",
]
