"""Deterministic eigendecomposition of complex Hermitian matrices.

Wraps the NumPy Jacobi kernel (``kernels.jacobi_cycle``), whose sweeps
follow the parallel round-robin ordering of Brent & Luk, with validation,
stable descending eigenvalue order, clamping of tiny negative eigenvalues,
and a fixed eigenvector phase convention.  The kernel uses only correctly
rounded elementwise operations and decides convergence on a sum added in
sequential order, so the same input bits give the same output bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .kernels import jacobi_cycle

EIG_TOL_DEFAULT = 1e-13
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
    """Eigenvalues in descending order; column s of ``vectors`` matches
    ``eigenvalues[s]``."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def order(self) -> int:
        return int(self.eigenvalues.shape[0])


def hermitian_part(g) -> np.ndarray:
    """Validate ``g`` and return its Hermitian symmetrization.

    Rejects non-square input, orders outside 1..256, non-finite entries
    (reporting the first offending position), and asymmetry larger than
    1e-12 relative to the largest entry magnitude.
    """
    arr = np.asarray(g)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 1 or n > MAX_ORDER:
        raise ValidationError(f"matrix order must be in 1..{MAX_ORDER}, got {n}")
    arr = arr.astype(np.complex128, copy=False)
    finite = np.isfinite(arr.real) & np.isfinite(arr.imag)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValidationError(f"non-finite entry at ({i}, {j})")
    maxmag = float(np.abs(arr).max())
    asym = float(np.abs(arr - arr.conj().T).max())
    if asym > 1e-12 * maxmag:
        raise ValidationError(
            f"matrix is not Hermitian: max asymmetry {asym:.6e} "
            f"exceeds 1e-12 relative to max entry magnitude {maxmag:.6e}"
        )
    return (arr + arr.conj().T) / 2.0


def normalize_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its first component of magnitude above
    1e-12 becomes real and positive.  All-small vectors come back as is."""
    out = np.array(v, dtype=np.complex128, copy=True)
    mags = np.abs(out)
    nz = np.flatnonzero(mags > PHASE_TOL)
    if nz.size == 0:
        return out
    piv = out[nz[0]]
    mag = mags[nz[0]]
    out *= piv.conjugate()
    out /= mag
    # the rotated pivot is |piv| up to one rounding, but FMA-contracted
    # complex multiplies can leave a stray imaginary ulp; write it explicitly
    # so the convention (real, positive, imag exactly 0.0) holds bit-for-bit
    out[nz[0]] = mag
    return out


def eig_hermitian(g, tol: float = EIG_TOL_DEFAULT) -> EigenSystem:
    """Full eigendecomposition of a complex Hermitian matrix.

    Parameters
    ----------
    g : array_like
        Square Hermitian matrix, order 1..256.  Asymmetry up to 1e-12
        relative is symmetrized away; anything larger is rejected.
    tol : float
        Convergence threshold in (0, 1e-6]: sweeps stop once the
        off-diagonal Frobenius norm is at most ``tol * ||g||_F``.

    Returns
    -------
    EigenSystem
        Eigenvalues descending (ties keep the kernel's diagonal order);
        eigenvalues in ``[-1e-10 * ||g||_F, 0)`` are clamped to zero.
        Eigenvector columns are unitary and phase-normalized.
    """
    if not (0.0 < tol <= 1e-6):
        raise ValidationError(f"tol must be in (0, 1e-6], got {tol}")
    h = hermitian_part(g)
    n = h.shape[0]
    normg = float(np.linalg.norm(h))

    are = np.ascontiguousarray(h.real)
    aim = np.ascontiguousarray(h.imag)
    vre = np.eye(n)
    vim = np.zeros((n, n))
    sweeps = jacobi_cycle(are, aim, vre, vim, tol * normg, MAX_SWEEPS)
    if sweeps < 0:
        raise ConvergenceError(
            f"eigensolver did not reach tol={tol:g} within {MAX_SWEEPS} sweeps "
            f"(order {n})"
        )

    lam = np.diagonal(are).copy()
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    lam[(lam < 0.0) & (lam >= -NEG_CLAMP_REL * normg)] = 0.0

    vec = np.empty((n, n), dtype=np.complex128)
    vec.real = vre
    vec.imag = vim
    vec = vec[:, order]
    for s in range(n):
        vec[:, s] = normalize_phase(vec[:, s])
    return EigenSystem(eigenvalues=lam, vectors=vec)


def rank_by_threshold(eigs, rel_tol: float = RANK_REL_TOL) -> int:
    """Count eigenvalues above ``rel_tol`` times the largest positive one.

    Accepts an EigenSystem or a plain array.  Returns 0 when no eigenvalue
    is positive.
    """
    if rel_tol < 0.0:
        raise ValidationError(f"rel_tol must be nonnegative, got {rel_tol}")
    lam = np.asarray(getattr(eigs, "eigenvalues", eigs), dtype=np.float64)
    if lam.size == 0:
        return 0
    lmax = float(lam.max())
    if lmax <= 0.0:
        return 0
    return int(np.count_nonzero(lam > rel_tol * lmax))
