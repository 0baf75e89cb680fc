"""Nearest multi-tile spectrum model.

Here the fitted object is a set picked per cell: among the translations
inside a centered box, keep the ``rank`` with the largest sample energy.
The chosen set tiles the line/space ``rank`` times and splits into
``rank`` single-tile layers; its generators are one-hot fibers, hence
exactly orthonormal once a cell's picks are distinct and lie in a box the
grid holds (``_check_box``), so no code builds them.  Energy at in-grid
translations outside the box is beyond reach of any choice and is
reported separately as ``tail``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sis import _check_rank
from .spectral import SpectralDataset, SpectralGrid, _squares


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
    return _squares(ds).sum(axis=0)


def _sorted_box(grid: SpectralGrid, w_all: np.ndarray, box: int):
    """The in-box translations of the box of radius ``box``, their
    weights (cells, in-box) out of ``w_all``, each cell's order of them
    from heaviest to lightest, and the quadrature tail outside the box."""
    kk = grid.translations
    inbox = np.flatnonzero(np.abs(kk).max(axis=1) <= box)
    w_in = w_all[:, inbox]
    # stable argsort on negated weights: ties keep lexicographic order,
    # and sorting the picked indices sorts the picks lexicographically,
    # because in-box translations are already lexicographically sorted
    order = np.argsort(-w_in, axis=1, kind="stable")
    tail = float(np.delete(w_all, inbox, axis=1).sum()) * grid.cell_volume
    return kk[inbox], w_in, order, tail


def _residuals(w_in: np.ndarray, order: np.ndarray, rank: int) -> np.ndarray:
    """Per cell, the weight of the in-box translations after its ``rank``
    heaviest, added in ``order``."""
    return np.take_along_axis(w_in, order[:, rank:], axis=1).sum(axis=1)


def fit_multitile(ds: SpectralDataset, rank: int, box_radius: int) -> MultiTileModel:
    """Pick, per cell, the ``rank`` heaviest translations in the box.

    Ties go to the lexicographically smallest translation.  The residual
    at a cell is the weight sum of the unchosen in-box translations;
    ``error`` is the quadrature sum of residuals and ``tail`` the
    quadrature energy at in-grid translations outside the box.
    """
    rank = _check_rank(rank)
    box = _check_box(ds.grid, rank, box_radius)
    k_in, w_in, order, tail = _sorted_box(ds.grid, _weights(ds), box)
    residuals = _residuals(w_in, order, rank)
    return MultiTileModel(
        grid=ds.grid,
        rank=rank,
        box_radius=box,
        chosen=k_in[np.sort(order[:, :rank], axis=1)],
        residuals=residuals,
        error=float(residuals.sum()) * ds.grid.cell_volume,
        tail=tail,
    )


def sweep_multitile(ds: SpectralDataset, ranks, box_radii) -> list[list[tuple[float, float]]]:
    """``(fit_multitile(ds, r, b).error, fit_multitile(ds, r, b).tail)``
    for each rank r of ``ranks`` (one list each) and each box radius b of
    ``box_radii``, bit for bit, from one weight pass and one sort per
    distinct radius: the error at every rank is read off the same order.
    A bad pair raises ``fit_multitile``'s ValidationError; the pairs are
    checked rank by rank, each rank's radii in turn, before any work."""
    checked = []
    for r in ranks:
        r = _check_rank(r)
        checked.append((r, [_check_box(ds.grid, r, b) for b in box_radii]))
    w_all, volume, fits = _weights(ds), ds.grid.cell_volume, {}
    distinct = dict.fromkeys(r for r, _ in checked)
    for b in dict.fromkeys(b for _, radii in checked for b in radii):
        _, w_in, order, tail = _sorted_box(ds.grid, w_all, b)
        for r in distinct:
            fits[r, b] = (float(_residuals(w_in, order, r).sum()) * volume, tail)
    return [[fits[r, b] for b in radii] for r, radii in checked]
