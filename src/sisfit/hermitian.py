"""Deterministic eigendecomposition of complex Hermitian matrices.

Wraps the NumPy Jacobi kernel (``kernels.jacobi_batch``), whose sweeps
follow the parallel round-robin ordering of Brent & Luk, with validation,
stable descending eigenvalue order, clamping of tiny negative eigenvalues,
and a fixed eigenvector phase convention.  ``eig_hermitian_batch`` solves a
whole stack of same-order matrices with one kernel call, which takes the
symmetrized complex stack, writes nothing into it and returns the
diagonalized stack and the eigenvectors as rows; every other step is an
array operation over the stack, and ``eig_hermitian`` is a batch of one.
The kernel uses only correctly rounded elementwise operations on each
matrix's own entries and decides convergence on a sum added in sequential
order, so the same input bits give the same output bits, whatever else is
in the batch.  The convergence threshold is fixed: a matrix G has
converged when its off-diagonal Frobenius norm is at most
``EIG_TOL * ||G||_F``.  The values-only mode (``vectors=False``) carries
no eigenvectors through the kernel and does no phase step; its
eigenvalues are bit-identical to the full mode's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .kernels import jacobi_batch

EIG_TOL = 1e-13
MAX_SWEEPS = 64
MAX_ORDER = 256

# eigenvalues at or below this fraction of the per-matrix maximum are
# treated as numerically zero by rank decisions and generator scaling
RANK_REL_TOL = 1e-10

# eigenvalues in [-NEG_CLAMP_REL * ||G||_F, 0) are rounding noise on a
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

    @property
    def order(self) -> int:
        return int(self.eigenvalues.shape[-1])


def _hermitian_stack(arr: np.ndarray) -> np.ndarray:
    """Validate a (B, n, n) stack and return its Hermitian symmetrization.

    Rejects orders outside 1..256, non-finite entries (reporting the
    first offending position), and asymmetry larger than 1e-12 relative
    to the largest entry magnitude; the errors of a stack of several name
    the first failing matrix."""
    n = arr.shape[-1]
    if n < 1 or n > MAX_ORDER:
        raise ValidationError(f"matrix order must be in 1..{MAX_ORDER}, got {n}")
    arr = arr.astype(np.complex128, copy=False)

    def which(b):
        return f" (matrix {b} of the stack)" if arr.shape[0] > 1 else ""

    finite = np.isfinite(arr.real) & np.isfinite(arr.imag)
    if not finite.all():
        b, i, j = np.argwhere(~finite)[0]
        raise ValidationError(f"non-finite entry at ({i}, {j}){which(b)}")
    adj = arr.conj().swapaxes(1, 2)
    maxmag = np.abs(arr).max(axis=(1, 2))
    asym = np.abs(arr - adj).max(axis=(1, 2))
    bad = np.flatnonzero(asym > 1e-12 * maxmag)
    if bad.size:
        b = bad[0]
        raise ValidationError(
            f"matrix is not Hermitian: max asymmetry {asym[b]:.6e} "
            f"exceeds 1e-12 relative to max entry magnitude {maxmag[b]:.6e}{which(b)}"
        )
    return (arr + adj) / 2.0


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


def eig_hermitian_batch(g, *, vectors: bool = True) -> EigenSystem:
    """Eigendecomposition of every matrix of a (B, n, n) stack, with one
    kernel call.

    Each matrix gets exactly the bits ``eig_hermitian`` gives it alone:
    the stack is validated and symmetrized as a whole (errors name the
    first failing matrix), the convergence threshold ``EIG_TOL * ||g_b||_F``
    is per matrix, and sorting, clamping and the phase step are array
    operations that treat every matrix by itself.  ``vectors=False``
    returns eigenvalues only.  Raises ``ConvergenceError`` if any matrix
    does not converge.
    """
    arr = np.asarray(g)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValidationError(f"expected a stack of square matrices, got shape {arr.shape}")
    h = _hermitian_stack(arr)
    n = h.shape[-1]
    # np.linalg.norm per matrix: a stacked reduction may add in another
    # order than its BLAS dot, and the threshold must not depend on the batch
    normg = np.array([np.linalg.norm(x) for x in h], dtype=np.float64)

    sweeps, a, w = jacobi_batch(h, EIG_TOL * normg, MAX_SWEEPS, vectors)
    if (sweeps < 0).any():
        raise ConvergenceError(
            f"eigensolver did not reach tol={EIG_TOL:g} within {MAX_SWEEPS} sweeps "
            f"(order {n})"
        )

    lam = np.diagonal(a, axis1=1, axis2=2).real
    order = np.argsort(-lam, axis=1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=1)
    lam[(lam < 0.0) & (lam >= -NEG_CLAMP_REL * normg[:, None])] = 0.0
    if not vectors:
        return EigenSystem(eigenvalues=lam, vectors=None)

    # row s of w is eigenvector s, so the phase step runs on contiguous rows
    w = np.take_along_axis(w, order[:, :, None], axis=1)
    _normalize_rows(w.reshape(-1, n))
    return EigenSystem(eigenvalues=lam, vectors=np.ascontiguousarray(w.swapaxes(1, 2)))


def eig_hermitian(g) -> EigenSystem:
    """Full eigendecomposition of a complex Hermitian matrix.

    Sweeps stop once the off-diagonal Frobenius norm is at most
    ``EIG_TOL * ||g||_F``, with the fixed ``EIG_TOL = 1e-13``.

    Parameters
    ----------
    g : array_like
        Square Hermitian matrix, order 1..256.  Asymmetry up to 1e-12
        relative is symmetrized away; anything larger is rejected.

    Returns
    -------
    EigenSystem
        Eigenvalues descending (ties keep the kernel's diagonal order);
        eigenvalues in ``[-1e-10 * ||g||_F, 0)`` are clamped to zero.
        Eigenvector columns are unitary and phase-normalized.
    """
    arr = np.asarray(g)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    es = eig_hermitian_batch(arr[None])
    return EigenSystem(eigenvalues=es.eigenvalues[0], vectors=es.vectors[0])
