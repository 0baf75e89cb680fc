"""Nearest shift-invariant subspace of prescribed length.

At each grid cell the fibers of the observed functions span a small
subspace; the best approximation of length ``rank`` keeps, cellwise, the
dominant eigenvectors of the fiber Gramian.  The squared distance is the
quadrature sum of the discarded eigenvalues, and the kept eigenvectors
yield generator fibers that are orthonormal wherever they are nonzero.

``_fit_cells`` is that construction for a Gramian split into column
blocks, and the one driver of every fit: with one block per coset for the
extra-invariant fit, one per partition block on a stack of one cell for
the discrete fit, and the whole fiber as one block for the plain fit.  A
block of c columns is solved on its smaller side: the m x m Gramian
a a^H, or the c x c Gramian a^H a when c < m, whose nonzero eigenvalues
are the same squared singular values of a.  Its four stages
(``_gramians``, ``_eigensolve``, ``_select``, ``_assemble``) each work on
a whole chunk of cells and return chunk arrays; no stage holds a record
per cell.  The spectra do not depend on the rank: ``block_spectra`` runs
the first two alone, values only, and ``error_at_rank`` reads the error
at any rank from its result.  ``_fit_cells``, ``block_spectra`` and
``project_onto`` hold ``blas.one_blas_thread``, so their bits do not
depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .errors import ValidationError
from .hermitian import RANK_REL_TOL, eig_hermitian_batch, hermitian_part
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


def allocation_residual(lams, alloc) -> np.ndarray:
    """Energy left over when block b keeps its top ``alloc[..., b]``
    eigenvalues of the block spectra ``lams``, shape (..., blocks, m).

    Each block's discarded tail is added in order, block after block, to
    one running float that starts at +0.0: one ``np.add.accumulate``
    (strictly sequential) in which kept records count as +0.0, which
    leaves a sum started at +0.0 unchanged.  Every fit, error and the
    brute-force oracle total through here, so their residuals agree bit
    for bit.  Returns shape (...).
    """
    lams = np.asarray(lams)
    m = lams.shape[-1]
    tail = np.where(np.arange(m) >= np.asarray(alloc)[..., None], lams, 0.0).reshape(*lams.shape[:-2], -1)
    return np.add.accumulate(np.concatenate([np.zeros(tail.shape[:-1] + (1,)), tail], axis=-1), axis=-1)[..., -1]


# Gramian matrix elements per chunk of cells: a chunk solves up to
# CHUNK_ELEMENTS // n**2 Gramians of order n (256 of order 8, 64 of order
# 16), where per-call overhead is spread thin and a chunk's Gramians,
# eigenvectors and generators still fit in cache.  A cell above it is a
# chunk of its own.  A fixed constant, so no result depends on the machine.
CHUNK_ELEMENTS = 16384


def _sides(m: int, blocks, n_cols: int) -> list[int]:
    """Order of the Gramian solved for each block: min(m, c_b) for a block
    of c_b of the ``n_cols`` columns.  A block with fewer columns than
    functions is solved on its c_b x c_b side a^H a, which has the same
    nonzero spectrum as a a^H; a tie c_b == m stays on the m x m side.
    The side depends on the shapes only, never on the data."""
    cols = np.arange(n_cols)
    return [min(m, cols[c].size) for c in blocks]


def _gramians(fs: np.ndarray, blocks, sides) -> dict:
    """Stage 1: the exactly Hermitian G/2 + G^H/2 of the Gramian G of every
    block of every cell matrix of the stack ``fs``, a a^H of order m or
    a^H a of order c_b as ``sides`` says, stacked by order: {order: (cells,
    blocks of that order, n, n)}.  Empty blocks (order 0) have none.  One
    stacked product per block, which BLAS rounds as it does each cell's,
    and one ``hermitian_part``."""
    cells, m, _ = fs.shape
    out = {n: np.empty((cells, sides.count(n), n, n), dtype=np.complex128) for n in sorted(set(sides)) if n}
    at = dict.fromkeys(out, 0)
    for cols, n in zip(blocks, sides):
        if not n:
            continue
        a = fs[:, :, cols]
        gm = a @ a.conj().swapaxes(1, 2) if n == m else a.conj().swapaxes(1, 2) @ a
        out[n][:, at[n]] = hermitian_part(gm)
        at[n] += 1
    return out


def _eigensolve(fs: np.ndarray, blocks, vectors: bool):
    """Stage 2: eigendecompose the block Gramians of the stack ``fs`` (stage
    1, ``_gramians``), one ``eig_hermitian_batch`` call per order.
    Returns the block spectra, shape (cells, blocks, m), each padded with
    +0.0 records up to m, and, when ``vectors``, each block's eigenvector
    stack, shape (cells, n_b, n_b) (None for an empty block)."""
    n_cells, m, n_cols = fs.shape
    sides = _sides(m, blocks, n_cols)
    lams = np.zeros((n_cells, len(sides), m))
    vecs = [None] * len(sides) if vectors else None
    for n, stack in _gramians(fs, blocks, sides).items():
        bs = [b for b, k in enumerate(sides) if k == n]
        es = eig_hermitian_batch(stack.reshape(-1, n, n), vectors=vectors)
        lams[:, bs, :n] = es.eigenvalues.reshape(n_cells, len(bs), n)
        if vectors:
            v = es.vectors.reshape(n_cells, len(bs), n, n)
            for i, b in enumerate(bs):
                vecs[b] = v[:, i]
    return lams, vecs


def _select(lams: np.ndarray, rank: int):
    """Stage 3: the top-``rank`` records of every cell from its block
    spectra, shape (cells, blocks, m), as flat indices block * m +
    in-block rank, whose order is the tie order: a stable sort keeps
    equal eigenvalues in flat index order (smaller block, then smaller
    in-block rank).  Also the per-block allocation (cells, blocks)."""
    cells, nb, m = lams.shape
    kept = np.argsort(-lams.reshape(cells, -1), axis=1, kind="stable")[:, :rank]
    return kept, (kept[:, :, None] // m == np.arange(nb)).sum(axis=1)


def _assemble(fs: np.ndarray, blocks, vecs, lam: np.ndarray, block: np.ndarray, in_block: np.ndarray) -> np.ndarray:
    """Stage 4: the generator of every kept record on its block, shape
    (cells, records, columns), from the kept eigenvalues ``lam`` (cells,
    records, descending) and the ``block`` and in-block rank ``in_block``
    of each record, or zero when lambda is numerically zero (at most 1e-10
    of the cell's largest eigenvalue, its first record).  An eigenvector u
    of a a^H gives lambda^(-1/2) u^H a; an eigenvector w of a^H a gives
    w^H, which is the same generator, since lambda^(-1/2) u^H a = w^H for
    u = lambda^(-1/2) a w."""
    m, n_cols = fs.shape[1:]
    live = (lam > RANK_REL_TOL * lam[:, :1]) & (lam > 0.0)
    generators = np.zeros(lam.shape + (n_cols,), dtype=np.complex128)
    for b, cols in enumerate(blocks):
        c, s = np.nonzero(live & (block == b))
        if not c.size:
            continue
        w = vecs[b][c, :, in_block[c, s]].conj()
        rows = np.zeros((c.size, n_cols), dtype=np.complex128)
        if w.shape[1] < m:
            rows[:, cols] = w
        else:
            rows[:, cols] = (1.0 / np.sqrt(lam[c, s]))[:, None] * np.matmul(w[:, None, :], fs[c][:, :, cols])[:, 0]
        generators[c, s] = rows
    return generators


# all columns as one block; a slice, so that f[:, :, cols] is f itself and
# the products round exactly as on the contiguous chunks ``_chunks`` copies
_WHOLE_FIBER = (slice(None),)


# block records (cells x blocks x functions), and zero-padded generator values (rank x
# cells x columns), allowed beyond the samples; more would let a lattice of many cosets
# size the block spectra, their sort and a loop over the blocks, or a rank the generators
MAX_BLOCK_RECORDS = 2**24


def _column_blocks(labels: np.ndarray, n_blocks: int, rows: int):
    """Column index of each block, from the block label of every column.
    A single block is ``_WHOLE_FIBER``, so that one-block fits of every
    regime round exactly as the plain fit does.  ``rows`` (cells times
    functions) times ``n_blocks`` records may exceed ``MAX_BLOCK_RECORDS``
    only where they do not exceed the samples, ``rows`` times the columns."""
    records, samples = rows * n_blocks, rows * len(labels)
    if records > max(MAX_BLOCK_RECORDS, samples):
        raise ValidationError(f"{n_blocks} blocks on {len(labels)} columns make {records} block records, "
                              f"more than both {MAX_BLOCK_RECORDS} and the {samples} samples")
    if n_blocks == 1:
        return _WHOLE_FIBER
    return [np.flatnonzero(labels == b) for b in range(n_blocks)]


def _chunks(x: np.ndarray, blocks):
    """(cell slice, contiguous chunk) of the stack ``x`` (cells, m, columns):
    as many cells as fill one eigensolver call, counting every block.  The
    copy keeps a cell's bits free of the cell count, which a view's strides
    follow: BLAS rounds a strided one-column a^H a (m > 4) otherwise, in 148
    of 221 random stacks.  It stays, although fits run faster without it."""
    ncells, m, n_cols = x.shape
    per = max(1, CHUNK_ELEMENTS // max(1, sum(n * n for n in _sides(m, blocks, n_cols))))
    for start in range(0, ncells, per):
        yield slice(start, start + per), np.ascontiguousarray(x[start : start + per])


@one_blas_thread
def block_spectra(x: np.ndarray, blocks) -> np.ndarray:
    """The block spectra (cells, blocks, m) of the stack ``x`` (cells, m,
    columns), from one values-only pass; they serve every rank."""
    return np.concatenate([_eigensolve(fs, blocks, vectors=False)[0] for _, fs in _chunks(x, blocks)])


def error_at_rank(lams: np.ndarray, rank: int, volume: float) -> float:
    """The error at ``rank`` from the block spectra ``lams``: each cell's
    ``allocation_residual`` of its top ``rank`` records, summed, times the
    cell volume (1.0 for sequences); a fit's ``error``, bit for bit."""
    return float(allocation_residual(lams, _select(lams, rank)[1]).sum()) * volume


@one_blas_thread
def _fit_cells(x: np.ndarray, blocks, rank: int):
    """Best ``rank`` block-supported generators for the rows of each cell
    matrix of the stack ``x``, shape (cells, m, columns), one ``_chunks``
    chunk at a time.

    ``blocks`` lists the column index (array or slice) of each block.
    Every block Gramian is eigendecomposed on its smaller side (see
    ``_sides``), each block's spectrum is padded with zeros to m records,
    the globally largest ``rank`` eigenvalues of each cell are kept, and
    each kept eigenvector gives the generator lambda^(-1/2) u^H f on its
    block (w^H for an eigenvector w of a^H a), or zero when lambda is
    numerically zero (at most 1e-10 of the largest eigenvalue of the
    cell).  A cell's bits do not depend on the other cells of the stack.

    Returns the kept eigenvalues (cells, rank) in descending order, the
    generators (rank, cells, columns), the residuals (cells,) of
    ``allocation_residual``, and the block ``home`` and in-block rank
    ``block_ranks`` of each kept record (cells, rank).  Slots beyond the
    blocks * m records are zero, and -1 in ``home`` and ``block_ranks``.
    A rank whose generators (rank x cells x columns values) exceed both
    ``MAX_BLOCK_RECORDS`` and the samples is refused before any of them
    is allocated.
    """
    ncells, m, n_cols = x.shape
    padded, samples = rank * ncells * n_cols, ncells * m * n_cols
    if padded > max(MAX_BLOCK_RECORDS, samples):
        raise ValidationError(f"rank {rank} on {ncells} cells of {n_cols} columns makes {padded} generator values, "
                              f"more than both {MAX_BLOCK_RECORDS} and the {samples} samples")
    t = min(rank, len(blocks) * m)
    eigenvalues = np.zeros((ncells, rank))
    generators = np.zeros((rank, ncells, n_cols), dtype=np.complex128)
    residuals = np.zeros(ncells)
    home, block_ranks = np.full((2, ncells, rank), -1, dtype=np.int64)
    for cells, fs in _chunks(x, blocks):
        lams, vecs = _eigensolve(fs, blocks, vectors=True)
        kept, allocation = _select(lams, rank)
        residuals[cells] = allocation_residual(lams, allocation)
        lam = eigenvalues[cells, :t] = np.take_along_axis(lams.reshape(fs.shape[0], -1), kept, axis=1)
        block, in_block = np.divmod(kept, m)
        home[cells, :t], block_ranks[cells, :t] = block, in_block
        generators[:t, cells] = _assemble(fs, blocks, vecs, lam, block, in_block).transpose(1, 0, 2)
    return eigenvalues, generators, residuals, home, block_ranks


def fit_sis(
    ds: SpectralDataset,
    rank: int,
) -> FittedModel:
    """Fit the nearest shift-invariant space of length ``rank``.

    Per cell: eigendecompose the fiber Gramian (on its smaller side, see
    ``_fit_cells``), keep the top min(rank, m) eigenpairs and turn each
    into an orthonormal generator fiber (zero when the eigenvalue is
    numerically zero, i.e. at most 1e-10 of the cell's largest).  The residual at a cell is the
    sum of the discarded eigenvalues, added in descending order;
    ``error`` is their quadrature sum.
    """
    rank = _check_rank(rank)
    lam, spectra, resid, _, _ = _fit_cells(ds.samples.transpose(1, 0, 2), _WHOLE_FIBER, rank)
    return FittedModel(grid=ds.grid, rank=rank, eigenvalues=lam, spectra=spectra, residuals=resid,
                       error=float(resid.sum()) * ds.grid.cell_volume)


def spectra_sis(ds: SpectralDataset) -> np.ndarray:
    """The fiber Gramian spectra (cells, 1, m) (``block_spectra``)."""
    return block_spectra(ds.samples.transpose(1, 0, 2), _WHOLE_FIBER)


def error_sis(
    ds: SpectralDataset,
    rank: int,
) -> float:
    """Squared distance to the nearest length-``rank`` shift-invariant
    space, without materializing generators; equal to ``fit_sis(...).error``.
    ``rank`` 0 gives the total energy."""
    rank = _check_rank(rank, minimum=0)
    return error_at_rank(spectra_sis(ds), rank, ds.grid.cell_volume)


def _fibers(model: FittedModel) -> np.ndarray:
    """The generator fibers of every cell, (cells, generators, translations);
    ValidationError when the model's spectra do not match its grid."""
    spectra, grid = np.asarray(model.spectra), model.grid
    if spectra.ndim != 3 or spectra.shape[1:] != (grid.n_cells, grid.n_translations):
        raise ValidationError(f"generator array shape {spectra.shape} does not match the grid")
    return spectra.transpose(1, 0, 2)


def _project(x: np.ndarray, e: np.ndarray):
    """Project the rows of every x[c] onto the orthonormal-or-zero rows of
    e[c], stacks (cells, m, columns) and (cells, records, columns): the
    coefficients x e^H, the projections and each row's squared residual."""
    coef = x @ e.conj().swapaxes(-1, -2)
    proj = coef @ e
    r = x - proj
    sq = np.square(r.real)
    sq += np.square(r.imag, out=r.imag)  # r is this call's own temporary
    return coef, proj, sq.sum(axis=-1)


@one_blas_thread
def project_onto(model: FittedModel, ds: SpectralDataset):
    """Orthogonal projection of every function onto the fitted space, all
    cells at once (one ``_project`` of the stacked cell matrices).

    Generator fibers are assumed orthonormal-or-zero per cell, which
    holds for fitted models.  Returns the projected dataset, the squared
    projection residual of each function, and that of each cell summed
    over the functions without the cell volume (comparable with
    ``model.residuals``).  Spectra off the grid raise ValidationError.
    """
    check_same_grid(model.grid, ds.grid)
    _, proj, rr = _project(ds.samples.transpose(1, 0, 2), _fibers(model))
    return (SpectralDataset(grid=ds.grid, samples=proj.transpose(1, 0, 2)),
            rr.sum(axis=0) * ds.grid.cell_volume, rr.sum(axis=1))
