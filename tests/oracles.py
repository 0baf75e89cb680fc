"""Independent reference computations used to pin expected values.

Nothing here touches the package's own eigensolver or fitting code:
closed-form characteristic polynomial roots for tiny orders, LAPACK for
general ones, and SVD-based projections.
"""

from __future__ import annotations

import math

import numpy as np

from sisfit.errors import ValidationError


def eig2_closed_form(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 2x2 Hermitian matrix, descending."""
    p = float(a[0, 0].real)
    q = float(a[1, 1].real)
    b2 = abs(a[0, 1]) ** 2
    disc = math.sqrt((p - q) ** 2 + 4.0 * b2)
    return np.array([(p + q + disc) / 2.0, (p + q - disc) / 2.0])


def eig3_closed_form(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix, descending, via the
    trigonometric solution of the characteristic polynomial."""
    p1 = abs(a[0, 1]) ** 2 + abs(a[0, 2]) ** 2 + abs(a[1, 2]) ** 2
    q = float(a.trace().real) / 3.0
    d = np.array([a[0, 0].real, a[1, 1].real, a[2, 2].real], dtype=float)
    p2 = float(((d - q) ** 2).sum()) + 2.0 * p1
    if p2 == 0.0:
        return np.full(3, q)
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    det = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = min(1.0, max(-1.0, float(det.real) / 2.0))
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return np.sort(np.array([lam1, lam2, lam3]))[::-1]


def eig_lapack(a: np.ndarray) -> np.ndarray:
    """Descending eigenvalues via LAPACK."""
    return np.linalg.eigvalsh(a)[::-1]


def gramian_naive(fibers: np.ndarray) -> np.ndarray:
    """Entrywise double loop Gramian of row fibers."""
    m = fibers.shape[0]
    g = np.zeros((m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            g[i, j] = sum(fibers[i, k] * np.conj(fibers[j, k]) for k in range(fibers.shape[1]))
    return g


def section(lat) -> np.ndarray:
    """One representative per coset of ``lat``, row ``coset_of``'s label:
    the points of the box prod([0, H_ii)) of its Hermite form, in
    lexicographic order."""
    return np.stack(np.unravel_index(np.arange(lat.index), np.diag(lat.hermite)), axis=-1).astype(np.int64)


def weight(ds, g: int, k) -> float:
    """Total sample energy of all functions at cell g, translation k."""
    if not (0 <= g < ds.grid.n_cells):
        raise ValidationError(f"cell index {g} out of range 0..{ds.grid.n_cells - 1}")
    ki = int(ds.grid.translation_indices(k))
    col = ds.samples[:, g, ki]
    return float(np.sum(col.real**2 + col.imag**2))


def one_hot(model) -> np.ndarray:
    """The generator fibers of a multi-tile model, shape (rank, cells,
    translations): layer s is 1 at cell g's s-th pick and 0 elsewhere."""
    spectra = np.zeros((model.rank, model.grid.n_cells, model.grid.n_translations), dtype=np.complex128)
    for g in range(model.grid.n_cells):
        for s in range(model.rank):
            spectra[s, g, int(model.grid.translation_indices(model.chosen[g, s]))] = 1.0
    return spectra


def projection_residual(x: np.ndarray, span_rows: np.ndarray, rtol: float = 1e-12) -> float:
    """Squared residual of projecting the rows of ``x`` onto the row
    space of ``span_rows``, via an SVD basis."""
    if span_rows.size == 0 or not np.any(span_rows):
        return float((abs(x) ** 2).sum())
    _, sing, vh = np.linalg.svd(span_rows, full_matrices=False)
    keep = sing > rtol * (sing[0] if sing.size else 0.0)
    basis = vh[keep]
    coef = x @ basis.conj().T
    resid = x - coef @ basis
    return float((abs(resid) ** 2).sum())


def sequential_residual(block_lams, alloc) -> float:
    """Discarded energy when block b keeps its first ``alloc[b]``
    eigenvalues: every block's tail added in order, block after block, to
    one Python float that starts at 0.0."""
    acc = 0.0
    for lam, a in zip(block_lams, alloc):
        for v in lam[a:].tolist():
            acc += v
    return acc


def coset_violations(spectra: np.ndarray, labels: np.ndarray, n_cosets: int, tol: float = 1e-8) -> list:
    """(check, cell, generator) of every ``coset-support`` and
    ``coset-span`` violation of a model without a home-coset table, one
    ``np.linalg.lstsq`` per (cell, generator, coset): a fiber touches two
    cosets, or its cut to one coset leaves the span of the cell's fibers
    by more than ``tol`` relative residual."""
    found = []
    for g in range(spectra.shape[1]):
        e_all = spectra[:, g, :]
        for s in range(spectra.shape[0]):
            e = spectra[s, g, :]
            if np.unique(labels[e != 0]).size > 1:
                found.append(("coset-support", g, s))
            for sigma in range(n_cosets):
                cut = np.where(labels == sigma, e, 0.0)
                norm_cut = float(np.linalg.norm(cut))
                if norm_cut == 0.0:
                    continue
                coef, *_ = np.linalg.lstsq(e_all.T, cut, rcond=None)
                if float(np.linalg.norm(cut - e_all.T @ coef)) > tol * norm_cut:
                    found.append(("coset-span", g, s))
    return found


def project_per_cell(samples: np.ndarray, spectra: np.ndarray):
    """Projection of samples[j, g] onto the rows of spectra[:, g], one
    cell at a time: the projected samples, the squared residual of each
    function summed over cells (without the cell volume) and that of each
    cell summed over functions."""
    proj = np.zeros_like(samples)
    cell_resid = np.zeros(samples.shape[1])
    for g in range(samples.shape[1]):
        e = spectra[:, g, :]
        proj[:, g] = samples[:, g] @ e.conj().T @ e
        cell_resid[g] = float((abs(samples[:, g] - proj[:, g]) ** 2).sum())
    return proj, (abs(samples - proj) ** 2).sum(axis=(1, 2)), cell_resid


def misnumbered_by_sorting(block, rank, n_blocks: int) -> bool:
    """The sorted (block, in-block rank) pairs of one row of slots differ
    from a correct numbering's: (b, 0), ..., (b, count_b - 1) for each
    block b of 0..n_blocks-1, and (-1, -1) for each slot without one."""
    block = [int(b) for b in block]
    want = [(-1, -1)] * block.count(-1) + [(b, j) for b in range(n_blocks) for j in range(block.count(b))]
    return sorted(zip(block, (int(j) for j in rank))) != sorted(want)
