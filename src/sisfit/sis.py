"""Nearest shift-invariant subspace of prescribed length.

At each grid cell the fibers of the observed functions span a small
subspace; the best approximation of length ``rank`` keeps, cellwise, the
dominant eigenvectors of the fiber Gramian.  The squared distance is the
quadrature sum of the discarded eigenvalues, and the kept eigenvectors
yield generator fibers that are orthonormal wherever they are nonzero.

``block_eigen`` is that construction for a Gramian split into column
blocks; the extra-invariant and discrete fits call it with one block per
coset or partition cell, and the plain fit with the whole fiber as one
block.  A block of c columns is solved on its smaller side: the m x m
Gramian a a^H, or the c x c Gramian a^H a when c < m, whose nonzero
eigenvalues are the same squared singular values of a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hermitian import EIG_TOL_DEFAULT, RANK_REL_TOL, eig_hermitian_batch
from .spectral import SpectralDataset, SpectralGrid, check_same_grid


@dataclass(eq=False)
class FittedModel:
    """Result of a subspace fit.

    ``eigenvalues[g, s]`` is the s-th kept eigenvalue at cell g (rows are
    zero-padded when fewer records exist than ``rank``); ``spectra[s]``
    holds the matching generator fiber over (cell, translation); the fiber
    is identically zero when its eigenvalue is numerically zero.
    """

    grid: SpectralGrid
    rank: int
    eigenvalues: np.ndarray
    spectra: np.ndarray
    residuals: np.ndarray
    error: float


def _check_rank(rank: int, minimum: int = 1) -> int:
    r = int(rank)
    if r < minimum or r != rank:
        raise ValidationError(f"rank must be an integer >= {minimum}, got {rank!r}")
    return r


def allocation_residual(block_lams, alloc) -> float:
    """Energy left over when block b keeps its top ``alloc[b]``
    eigenvalues: each block's discarded tail is added in order, block
    after block, to one running float.  Every fit, error and the
    brute-force oracle total through here, so their residuals agree bit
    for bit."""
    acc = 0.0
    for lam, a in zip(block_lams, alloc):
        for v in lam[a:].tolist():
            acc += v
    return acc


@dataclass(eq=False)
class BlockEigen:
    """Top-``rank`` eigen-records of the block Gramians of one cell.

    Record s has eigenvalue ``eigenvalues[s]`` (descending; ties go to
    the smaller block, then the smaller in-block rank), block
    ``blocks[s]`` and in-block rank ``block_ranks[s]``.
    ``generators[s]`` is its generator over the cell's columns, zero
    outside its block (None when not requested).  ``allocation[b]``
    counts the records kept from block b, ``block_eigenvalues[b]`` is
    block b's whole spectrum and ``residual`` the discarded energy.
    """

    eigenvalues: np.ndarray
    blocks: np.ndarray
    block_ranks: np.ndarray
    allocation: np.ndarray
    block_eigenvalues: list
    residual: float
    generators: np.ndarray | None


# matrix elements per eigensolver call: one call solves up to
# CHUNK_ELEMENTS // n**2 Gramians of order n (256 of order 8, 64 of order
# 16), where per-call overhead is spread thin and the work array still
# fits in cache.  A fixed constant, so no result depends on the machine.
CHUNK_ELEMENTS = 16384


def _per_call(n: int) -> int:
    return max(1, CHUNK_ELEMENTS // (n * n))


def _sides(m: int, blocks, n_cols: int) -> list[int]:
    """Order of the Gramian solved for each block: min(m, c_b) for a block
    of c_b of the ``n_cols`` columns.  A block with fewer columns than
    functions is solved on its c_b x c_b side a^H a, which has the same
    nonzero spectrum as a a^H; a tie c_b == m stays on the m x m side.
    The side depends on the shapes only, never on the data."""
    cols = np.arange(n_cols)
    return [min(m, cols[c].size) for c in blocks]


def _gramians(fs, blocks, sides) -> dict:
    """Stage 1: the symmetrized Gramian of every block of every cell
    matrix in ``fs``, a a^H of order m or a^H a of order c_b as ``sides``
    says, stacked by order: {order: (cells * blocks of that order, n, n)},
    cell-major.  Empty blocks (order 0) have none.  One product per
    block, as on a single cell, so BLAS rounds each the same way whatever
    the chunk."""
    m = fs[0].shape[0]
    out = {n: np.empty((len(fs) * sides.count(n), n, n), dtype=np.complex128) for n in sorted(set(sides)) if n}
    at = dict.fromkeys(out, 0)
    for f in fs:
        for cols, n in zip(blocks, sides):
            if not n:
                continue
            a = f[:, cols]
            gm = a @ a.conj().T if n == m else a.conj().T @ a
            out[n][at[n]] = (gm + gm.conj().T) / 2.0
            at[n] += 1
    return out


def _eigensolve(grams: dict, sides, m: int, n_cells: int, tol: float, vectors: bool):
    """Stage 2: eigendecompose the Gramian stacks of ``_gramians``, one
    kernel call per ``_per_call`` of each order.  Returns the block
    spectra, shape (cells, blocks, m), each padded with +0.0 records up to
    m, and, when ``vectors``, every cell's list of block eigenvector
    matrices (order n_b; None for an empty block)."""
    lams = np.zeros((n_cells, len(sides), m))
    vecs = [[None] * len(sides) for _ in range(n_cells)] if vectors else None
    for n, stack in grams.items():
        bs = [b for b, k in enumerate(sides) if k == n]
        per = _per_call(n)
        parts = [eig_hermitian_batch(stack[i : i + per], tol, vectors=vectors) for i in range(0, stack.shape[0], per)]
        lams[:, bs, :n] = np.concatenate([p.eigenvalues for p in parts]).reshape(n_cells, len(bs), n)
        if vectors:
            v = np.concatenate([p.vectors for p in parts]).reshape(n_cells, len(bs), n, n)
            for c in range(n_cells):
                for i, b in enumerate(bs):
                    vecs[c][b] = v[c, i]
    return lams, vecs


def _select(lams: np.ndarray, rank: int):
    """Stage 3: the top-``rank`` records of one cell from its block
    spectra, shape (blocks, m): flat indices of the kept records, their
    blocks and in-block ranks, and the per-block allocation."""
    nb, m = lams.shape
    lam = lams.reshape(-1)
    block = np.repeat(np.arange(nb), m)
    in_block = np.tile(np.arange(m), nb)
    kept = np.lexsort((in_block, block, -lam))[:rank]
    return kept, block[kept], in_block[kept], np.bincount(block[kept], minlength=nb)


def _assemble(f: np.ndarray, blocks, lams: np.ndarray, vecs, kept, block, in_block) -> np.ndarray:
    """Stage 4: the generator of every kept record on its block, or zero
    when lambda is numerically zero (at most 1e-10 of the cell's largest
    eigenvalue).  An eigenvector u of a a^H gives lambda^(-1/2) u^H a; an
    eigenvector w of a^H a gives w^H, which is the same generator, since
    lambda^(-1/2) u^H a = w^H for u = lambda^(-1/2) a w."""
    m = f.shape[0]
    generators = np.zeros((kept.shape[0], f.shape[1]), dtype=np.complex128)
    lam = lams.reshape(-1)
    lmax = max(float(lam.max()), 0.0)
    for s, (i, b, j) in enumerate(zip(kept.tolist(), block.tolist(), in_block.tolist())):
        if lam[i] > RANK_REL_TOL * lmax and lam[i] > 0.0:
            cols = blocks[b]
            w = vecs[b][:, j].conj()
            if w.shape[0] < m:
                generators[s, cols] = w
            else:
                generators[s, cols] = (1.0 / math.sqrt(lam[i])) * (w @ f[:, cols])
    return generators


def _cells_eigen(fs, blocks, rank: int, tol: float, vectors: bool) -> list[BlockEigen]:
    """``block_eigen`` of every cell matrix in ``fs``, with the Gramians
    of all of them eigendecomposed together."""
    m, n_cols = fs[0].shape
    sides = _sides(m, blocks, n_cols)
    lams, vecs = _eigensolve(_gramians(fs, blocks, sides), sides, m, len(fs), tol, vectors)
    out = []
    for c, f in enumerate(fs):
        kept, block, in_block, allocation = _select(lams[c], rank)
        generators = None
        if vectors:
            generators = _assemble(f, blocks, lams[c], vecs[c], kept, block, in_block)
        out.append(
            BlockEigen(
                eigenvalues=lams[c].reshape(-1)[kept],
                blocks=block,
                block_ranks=in_block,
                allocation=allocation,
                block_eigenvalues=list(lams[c]),
                residual=allocation_residual(lams[c], allocation),
                generators=generators,
            )
        )
    return out


def block_eigen(f: np.ndarray, blocks, rank: int, tol: float, *, vectors: bool = True) -> BlockEigen:
    """Best ``rank`` block-supported generators for the rows of ``f``.

    ``blocks`` lists the column index (array or slice) of each block.
    Every block Gramian is eigendecomposed on its smaller side (see
    ``_sides``), each block's spectrum is padded with zeros to m records,
    the globally largest ``rank`` eigenvalues are kept, and each kept
    eigenvector gives the generator lambda^(-1/2) u^H f on its block (w^H
    for an eigenvector w of a^H a), or zero when lambda is numerically zero (at most
    1e-10 of the largest eigenvalue of the cell).  The residual sums the
    discarded eigenvalues by ``allocation_residual``.
    """
    return _cells_eigen([f], blocks, rank, tol, vectors)[0]


# all columns as one block; a slice, so that f[:, cols] is f itself and
# the products round exactly as on the contiguous cell matrix
_WHOLE_FIBER = (slice(None),)


def _column_blocks(labels: np.ndarray, n_blocks: int):
    """Column index of each block, from the block label of every column.
    A single block is ``_WHOLE_FIBER``, so that one-block fits of every
    regime round exactly as the plain fit does."""
    if n_blocks == 1:
        return _WHOLE_FIBER
    return [np.flatnonzero(labels == b) for b in range(n_blocks)]


def _cell_chunks(ds: SpectralDataset, blocks, rank: int, tol: float, vectors: bool):
    """``block_eigen`` of every cell of ``ds`` in cell order, a chunk of
    cells at a time: as many cells as fill one eigensolver call, counting
    the n_b x n_b Gramian of every block."""
    per = max(1, CHUNK_ELEMENTS // max(1, sum(n * n for n in _sides(ds.m, blocks, ds.grid.n_translations))))
    ncells = ds.grid.n_cells
    for start in range(0, ncells, per):
        fs = [np.ascontiguousarray(ds.samples[:, g, :]) for g in range(start, min(start + per, ncells))]
        yield from _cells_eigen(fs, blocks, rank, tol, vectors)


def _fit_cells(ds: SpectralDataset, blocks, rank: int, tol: float):
    """Run ``block_eigen`` at every cell of ``ds``.

    Returns the ``FittedModel`` fields as a dict, plus the block and
    in-block rank of every kept record, shape (cells, rank), -1 on
    zero-padded slots.  ``error`` is the quadrature sum of the cell
    residuals.
    """
    ncells = ds.grid.n_cells
    eigenvalues = np.zeros((ncells, rank))
    spectra = np.zeros((rank, ncells, ds.grid.n_translations), dtype=np.complex128)
    residuals = np.zeros(ncells)
    home = np.full((ncells, rank), -1, dtype=np.int64)
    block_ranks = np.full((ncells, rank), -1, dtype=np.int64)
    for g, cell in enumerate(_cell_chunks(ds, blocks, rank, tol, True)):
        t = cell.eigenvalues.shape[0]
        eigenvalues[g, :t] = cell.eigenvalues
        spectra[:t, g, :] = cell.generators
        residuals[g] = cell.residual
        home[g, :t] = cell.blocks
        block_ranks[g, :t] = cell.block_ranks
    fields = dict(
        grid=ds.grid,
        rank=rank,
        eigenvalues=eigenvalues,
        spectra=spectra,
        residuals=residuals,
        error=float(residuals.sum()) * ds.grid.cell_volume,
    )
    return fields, home, block_ranks


def _error_cells(ds: SpectralDataset, blocks, rank: int, tol: float) -> float:
    """Quadrature sum of the ``block_eigen`` residuals of every cell."""
    residuals = np.array([cell.residual for cell in _cell_chunks(ds, blocks, rank, tol, False)])
    return float(residuals.sum()) * ds.grid.cell_volume


def fit_sis(
    ds: SpectralDataset,
    rank: int,
    *,
    tol: float = EIG_TOL_DEFAULT,
) -> FittedModel:
    """Fit the nearest shift-invariant space of length ``rank``.

    Per cell: eigendecompose the fiber Gramian (on its smaller side, see
    ``block_eigen``), keep the top min(rank, m) eigenpairs and turn each
    into an orthonormal generator fiber (zero when the eigenvalue is
    numerically zero, i.e. at most 1e-10 of the cell's largest).  The residual at a cell is the
    sum of the discarded eigenvalues, added in descending order;
    ``error`` is their quadrature sum.
    """
    rank = _check_rank(rank)
    fields, _, _ = _fit_cells(ds, _WHOLE_FIBER, rank, tol)
    return FittedModel(**fields)


def error_sis(
    ds: SpectralDataset,
    rank: int,
    *,
    tol: float = EIG_TOL_DEFAULT,
) -> float:
    """Squared distance to the nearest length-``rank`` shift-invariant
    space, without materializing generators; equal to ``fit_sis(...).error``.
    ``rank`` 0 gives the total energy."""
    rank = _check_rank(rank, minimum=0)
    return _error_cells(ds, _WHOLE_FIBER, rank, tol)


def project_onto(model: FittedModel, ds: SpectralDataset):
    """Orthogonal projection of every function onto the fitted space.

    Generator fibers are assumed orthonormal-or-zero per cell, which
    holds for fitted models.  Returns the projected dataset, the squared
    projection residual of each function, and that of each cell summed
    over the functions without the cell volume (comparable with
    ``model.residuals``).
    """
    check_same_grid(model.grid, ds.grid)
    m = ds.m
    ncells = ds.grid.n_cells
    proj = np.zeros_like(ds.samples)
    residuals = np.zeros(m)
    cell_residuals = np.zeros(ncells)
    for g in range(ncells):
        x = ds.samples[:, g, :]
        e = model.spectra[:, g, :]
        coef = x @ e.conj().T
        p = coef @ e
        proj[:, g, :] = p
        r = x - p
        rr = (r.real**2 + r.imag**2).sum(axis=1)
        residuals += rr
        cell_residuals[g] = rr.sum()
    residuals *= ds.grid.cell_volume
    return SpectralDataset(grid=ds.grid, samples=proj), residuals, cell_residuals
