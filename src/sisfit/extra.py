"""Shift-invariant fits constrained to extra lattice invariance.

Prescribing invariance under a finer translation lattice splits every
fiber Gramian into blocks, one per coset of the dual sublattice.  The
best constrained subspace keeps the globally largest ``rank`` eigenvalues
across all blocks of a cell; each kept eigenvector yields a generator
fiber supported on a single coset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import DualLattice, coset_of
from .sis import FittedModel, _check_rank, _column_blocks, _fit_cells, block_spectra, error_at_rank
from .spectral import SpectralDataset


@dataclass(eq=False)
class ExtraInvariantModel(FittedModel):
    """Fitted model whose generators respect a coset structure.

    ``home_cosets[g, s]`` is the coset label carrying generator s at cell
    g and ``block_ranks[g, s]`` its eigenvalue's rank inside that block;
    both are -1 on zero-padded slots.
    """

    lattice: DualLattice
    home_cosets: np.ndarray
    block_ranks: np.ndarray


def _coset_blocks(ds: SpectralDataset, lat: DualLattice):
    """The column index of each coset of ``lat`` on the grid of ``ds``."""
    return _column_blocks(coset_of(ds.grid.translations, lat), lat.index, ds.grid.n_cells * ds.m)


def fit_extra_invariant(
    ds: SpectralDataset,
    lat: DualLattice,
    rank: int,
) -> ExtraInvariantModel:
    """Fit the nearest length-``rank`` shift-invariant space that is also
    invariant under the lattice dual to ``lat``.

    Per cell the coset blocks of the Gramian are eigendecomposed
    separately, the records of all blocks are merged, and the top
    ``rank`` eigenvalues are kept (ties: smaller coset label, then
    smaller in-block rank).  Generators are supported on their home
    coset exactly.  The residual at a cell adds the discarded
    eigenvalues coset by coset, each coset's in descending order.
    """
    rank = _check_rank(rank)
    lam, spectra, resid, home, ranks = _fit_cells(ds.samples.transpose(1, 0, 2), _coset_blocks(ds, lat), rank)
    return ExtraInvariantModel(grid=ds.grid, rank=rank, eigenvalues=lam, spectra=spectra, residuals=resid,
                               error=float(resid.sum()) * ds.grid.cell_volume, lattice=lat, home_cosets=home,
                               block_ranks=ranks)


def spectra_extra(ds: SpectralDataset, lat: DualLattice) -> np.ndarray:
    """The coset block spectra (cells, cosets, m) (``block_spectra``)."""
    return block_spectra(ds.samples.transpose(1, 0, 2), _coset_blocks(ds, lat))


def error_extra(
    ds: SpectralDataset,
    lat: DualLattice,
    rank: int,
) -> float:
    """Squared distance to the nearest extra-invariant space of length
    ``rank``, equal to ``fit_extra_invariant(...).error`` (0 gives the
    total energy)."""
    rank = _check_rank(rank, minimum=0)
    return error_at_rank(spectra_extra(ds, lat), rank, ds.grid.cell_volume)
