"""Nearest multi-tile spectrum model.

Here the fitted object is a set picked per cell: among the translations
inside a centered box, keep the ``rank`` with the largest sample energy.
The chosen set tiles the line/space ``rank`` times and splits into
``rank`` single-tile layers; its generators are one-hot fibers, hence
exactly orthonormal.  Energy at in-grid translations outside the box is
beyond reach of any choice and is reported separately as ``tail``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sis import _check_rank
from .spectral import SpectralDataset, SpectralGrid


@dataclass(eq=False)
class MultiTileModel:
    """Per-cell choice of ``rank`` translations inside the box of radius
    ``box_radius``; ``chosen[g]`` is lexicographically sorted."""

    grid: SpectralGrid
    rank: int
    box_radius: int
    chosen: np.ndarray
    residuals: np.ndarray
    error: float
    tail: float


def _check_box(grid: SpectralGrid, rank: int, box_radius: int) -> int:
    b = int(box_radius)
    if b < 1 or b != box_radius:
        raise ValidationError(f"box radius must be a positive integer, got {box_radius!r}")
    if b > grid.trunc_radius:
        raise ValidationError(
            f"box radius {b} exceeds the grid truncation radius {grid.trunc_radius}"
        )
    capacity = (2 * b + 1) ** grid.dim
    if capacity < rank:
        raise ValidationError(
            f"box of radius {b} holds {capacity} translations, fewer than rank {rank}"
        )
    return b


def _weights(ds: SpectralDataset) -> np.ndarray:
    s = ds.samples
    return (s.real**2 + s.imag**2).sum(axis=0)


def fit_multitile(ds: SpectralDataset, rank: int, box_radius: int) -> MultiTileModel:
    """Pick, per cell, the ``rank`` heaviest translations in the box.

    Ties go to the lexicographically smallest translation.  The residual
    at a cell is the weight sum of the unchosen in-box translations;
    ``error`` is the quadrature sum of residuals and ``tail`` the
    quadrature energy at in-grid translations outside the box.
    """
    rank = _check_rank(rank)
    box = _check_box(ds.grid, rank, box_radius)
    kk = ds.grid.translations
    inbox = np.flatnonzero(np.abs(kk).max(axis=1) <= box)
    k_in = kk[inbox]

    w_all = _weights(ds)
    w_in = w_all[:, inbox]
    w_out = np.delete(w_all, inbox, axis=1)

    # stable argsort on negated weights: ties keep lexicographic order,
    # and sorting the picked indices sorts the picks lexicographically,
    # because in-box translations are already lexicographically sorted
    order = np.argsort(-w_in, axis=1, kind="stable")
    chosen = k_in[np.sort(order[:, :rank], axis=1)]
    residuals = np.take_along_axis(w_in, order[:, rank:], axis=1).sum(axis=1)
    error = float(residuals.sum()) * ds.grid.cell_volume
    tail = float(w_out.sum()) * ds.grid.cell_volume
    return MultiTileModel(
        grid=ds.grid,
        rank=rank,
        box_radius=box,
        chosen=chosen,
        residuals=residuals,
        error=error,
        tail=tail,
    )


def multitile_spectra(model: MultiTileModel) -> np.ndarray:
    """One-hot generator fibers of the layers, shape (rank, cells,
    translations).  Exactly orthonormal per cell."""
    ncells = model.grid.n_cells
    spectra = np.zeros((model.rank, ncells, model.grid.n_translations), dtype=np.complex128)
    ki = model.grid.translation_indices(model.chosen)
    spectra[np.arange(model.rank)[None, :], np.arange(ncells)[:, None], ki] = 1.0
    return spectra


def error_multitile_series(ds: SpectralDataset, rank: int, box_radii) -> list[float]:
    """Total unreachable energy (error plus out-of-box tail) for an
    increasing sequence of box radii.  Non-increasing in the radius."""
    radii = [int(b) for b in box_radii]
    if not radii:
        raise ValidationError("box_radii must not be empty")
    if any(b2 <= b1 for b1, b2 in zip(radii, radii[1:])):
        raise ValidationError(f"box radii must be strictly increasing, got {radii}")
    out = []
    for b in radii:
        model = fit_multitile(ds, rank, b)
        out.append(model.error + model.tail)
    return out
