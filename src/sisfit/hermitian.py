"""Deterministic eigendecomposition of complex Hermitian matrices.

Wraps LAPACK's Hermitian eigensolver (``np.linalg.eigh``) with stable
descending eigenvalue order, clamping of tiny negative eigenvalues, and a
fixed eigenvector phase convention, all array operations over a stack.
``eig_hermitian`` is the checked entry for one matrix: it validates it and
takes its ``hermitian_part``, then solves it as a batch of one.
``eig_hermitian_batch`` takes stacks that are Hermitian already (the
``hermitian_part`` Gramians of ``sis._gramians``) and checks only that
they are finite.  ``eigh`` factors each matrix of a stack on its own, so
a matrix gets the same bits alone as in any stack while the BLAS thread
count is fixed, which every fit, spectrum and verify ensures with
``blas.one_blas_thread``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, eigh

from .errors import ConvergenceError, ValidationError

# eigenvalues at or below this fraction of the per-matrix maximum are
# treated as numerically zero by rank decisions and generator scaling
RANK_REL_TOL = 1e-10

# eigenvalues in [-NEG_CLAMP_REL * max|lambda|, 0) are rounding noise on a
# positive semidefinite input and are clamped to zero
NEG_CLAMP_REL = 1e-10

PHASE_TOL = 1e-12


@dataclass
class EigenSystem:
    """Eigenvalues in descending order along the last axis; column s of
    ``vectors`` matches ``eigenvalues[..., s]``.  A stacked solve puts one
    leading matrix axis on both; the values-only mode leaves ``vectors``
    None."""

    eigenvalues: np.ndarray
    vectors: np.ndarray | None


def _check_finite(h: np.ndarray) -> None:
    """Reject a non-finite entry of a matrix or a stack, naming the (row,
    column) of the first."""
    finite = np.isfinite(h)  # a complex entry is finite when both parts are
    if not finite.all():
        i, j = np.argwhere(~finite)[0][-2:]
        raise ValidationError(f"non-finite entry at ({i}, {j})")


def _normalize_rows(w: np.ndarray) -> None:
    """Rotate every row of a (k, n) complex array in place so that its
    first component of magnitude above ``PHASE_TOL`` becomes real and
    positive; rows without one stay as they are.  Each row is multiplied
    by the conjugate pivot and divided by its magnitude as one vector on
    its own, so a row's bits do not depend on the other rows."""
    mags = np.abs(w)
    big = mags > PHASE_TOL
    rows = np.flatnonzero(big.any(axis=1))
    piv = np.argmax(big[rows], axis=1)
    mag = mags[rows, piv]
    sub = w[rows]
    sub *= sub[np.arange(rows.size), piv].conj()[:, None]
    sub /= mag[:, None]
    # the rotated pivot is |piv| up to one rounding, but FMA-contracted
    # complex multiplies can leave a stray imaginary ulp; write it explicitly
    # so the convention (real, positive, imag exactly 0.0) holds bit-for-bit
    sub[np.arange(rows.size), piv] = mag
    w[rows] = sub


def hermitian_part(g: np.ndarray) -> np.ndarray:
    """G/2 + G^H/2 of a complex matrix or stack ``g``, which is halved in
    place.  Halving first keeps an entry near the float64 maximum finite;
    in the normal range it gives the bits of (G + G^H)/2, and on subnormal
    entries it rounds each half (to even)."""
    g /= 2.0
    return g + g.conj().swapaxes(-1, -2)


def eig_hermitian_batch(h: np.ndarray, *, vectors: bool = True) -> EigenSystem:
    """Eigendecomposition of every matrix of a complex (B, n, n) stack of
    exactly Hermitian matrices of order n >= 1, with one ``eigh`` call.

    Only finiteness is checked: huge samples overflow their Gramian.
    Each matrix gets exactly the bits ``eig_hermitian`` gives it alone:
    eigenvalues in [-1e-10 * max|lambda|, 0) of the matrix are clamped to
    zero, and sorting, clamping and the phase step are array operations
    that treat every matrix by itself.
    ``vectors=False`` returns eigenvalues only; it too calls ``eigh``,
    since ``eigvalsh`` rounds them differently, and skips the phase step.
    Raises ``ConvergenceError`` if LAPACK does not converge on some
    matrix.
    """
    _check_finite(h)
    n = h.shape[-1]
    try:
        lam, w = eigh(h)
    except LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge (order {n}): {exc}") from None

    # eigh is ascending; a stable sort of -lam keeps its order among ties
    order = np.argsort(-lam, axis=1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=1)
    # sorted descending, the largest |lambda| is the first or the last
    scale = np.maximum(lam[:, :1], -lam[:, -1:])
    lam[(lam < 0.0) & (lam >= -NEG_CLAMP_REL * scale)] = 0.0
    if not vectors:
        return EigenSystem(eigenvalues=lam, vectors=None)

    # rows of w are eigenvectors, so the phase step runs on contiguous rows
    w = np.take_along_axis(w.swapaxes(1, 2), order[:, :, None], axis=1)
    _normalize_rows(w.reshape(-1, n))
    return EigenSystem(eigenvalues=lam, vectors=np.ascontiguousarray(w.swapaxes(1, 2)))


def eig_hermitian(g) -> EigenSystem:
    """Full eigendecomposition of a complex Hermitian matrix.

    Parameters
    ----------
    g : array_like
        Square Hermitian matrix of order at least 1.  Asymmetry up to 1e-12
        relative is symmetrized away; anything larger is rejected.

    Returns
    -------
    EigenSystem
        Eigenvalues descending (ties keep LAPACK's ascending order, so
        ``np.eye(3)`` gives e1, e2, e3);
        eigenvalues in ``[-1e-10 * max|lambda|, 0)`` are clamped to zero.
        Eigenvector columns are unitary and phase-normalized.  An
        eigenvalue beyond the float64 range raises ValidationError.
    """
    arr = np.asarray(g)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValidationError(f"matrix order must be at least 1, got {arr.shape[0]}")
    arr = np.array(arr, dtype=np.complex128)  # a copy, which hermitian_part halves
    _check_finite(arr)
    maxmag = np.abs(arr).max()
    h = hermitian_part(arr)
    # the asymmetry from the halves, |a/2 - b/2| * 2 as a Python float: the
    # bits of |a - b| in the normal range, and no overflow warning near the maximum
    asym = 2.0 * float(np.abs(arr - arr.conj().T).max())
    if asym > 1e-12 * maxmag:
        raise ValidationError(f"matrix is not Hermitian: max asymmetry {asym:.6e} "
                              f"exceeds 1e-12 relative to max entry magnitude {maxmag:.6e}")
    es = eig_hermitian_batch(h[None])
    if not (np.isfinite(es.eigenvalues).all() and np.isfinite(es.vectors).all()):
        raise ValidationError(f"eigenvalues beyond the float64 range: the solve gave {es.eigenvalues[0].tolist()}")
    return EigenSystem(eigenvalues=es.eigenvalues[0], vectors=es.vectors[0])
