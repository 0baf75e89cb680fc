"""Integer lattices used to prescribe extra invariance.

A lattice M* = B Z^d (B an integer matrix with nonzero determinant)
partitions Z^d into |det B| cosets.  Coset bookkeeping is exact: a
vector's coset is found by reducing it into the box prod([0, H_ii)) of a
column-style Hermite normal form H with integer column operations, so no
float ever decides a coset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_INT64_MAX = np.iinfo(np.int64).max

# cosets a lattice may have: every per-coset list is sized by the index,
# so a large determinant must not reach one
MAX_LATTICE_INDEX = 2**20


def _as_int64(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` as int64; floats must hold integers, and nothing may lie
    outside the int64 range."""
    if np.issubdtype(arr.dtype, np.floating):
        rounded = np.rint(arr)
        if not np.array_equal(arr, rounded):
            raise ValidationError(f"{what} must be integers")
        if not (np.abs(arr) < 2.0**63).all():
            raise ValidationError(f"{what} lie outside the int64 range")
        arr = rounded
    elif not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"{what} must be integers")
    elif arr.dtype.kind == "u" and (arr > _INT64_MAX).any():
        raise ValidationError(f"{what} lie outside the int64 range")
    return arr.astype(np.int64)


def _hermite_form(basis: np.ndarray) -> np.ndarray:
    """Lower-triangular column Hermite form H of ``basis``, H_ii > 0.

    Column operations are unimodular, so H generates the same lattice and
    the box prod([0, H_ii)) is a complete set of coset representatives.
    """
    d = basis.shape[0]
    cols = [[int(x) for x in col] for col in basis.T]
    for i in range(d):
        while True:
            nz = [j for j in range(i, d) if cols[j][i] != 0]
            if not nz:
                raise ValidationError("lattice basis is singular")
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            cols[i], cols[j0] = cols[j0], cols[i]
            if len(nz) == 1:
                break
            # Euclid on row i: every other column keeps a remainder
            for j in range(i + 1, d):
                q = cols[j][i] // cols[i][i]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
        if cols[i][i] < 0:
            cols[i] = [-x for x in cols[i]]
    if any(abs(x) > _INT64_MAX for col in cols for x in col):
        raise ValidationError("lattice basis too large: its Hermite form leaves the int64 range")
    return np.array(cols, dtype=np.int64).T


@dataclass(eq=False)
class DualLattice:
    """Sublattice B Z^d of Z^d.

    ``hermite`` is the lower-triangular Hermite form H of the basis.  The
    points of the box prod([0, H_ii)) are one representative per coset,
    and a coset's label is its representative's index in the box's
    lexicographic order.
    """

    dim: int
    basis: np.ndarray
    index: int
    hermite: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, DualLattice)
            and self.dim == other.dim
            and np.array_equal(self.basis, other.basis)
        )


def make_dual_lattice(basis) -> DualLattice:
    """Build a DualLattice from a square integer basis matrix.

    Rejects non-square or non-integer input, singular matrices and more
    than ``MAX_LATTICE_INDEX`` (2^20) cosets.  The coset count equals
    |det(basis)|.
    """
    b = np.asarray(basis)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 1:
        raise ValidationError(f"lattice basis must be a nonempty square matrix, got shape {b.shape}")
    b = _as_int64(b, "lattice basis entries")
    h = _hermite_form(b)
    index = math.prod(int(x) for x in np.diag(h))
    if index > MAX_LATTICE_INDEX:
        raise ValidationError(f"lattice basis has {index} cosets, more than {MAX_LATTICE_INDEX}")
    return DualLattice(dim=b.shape[0], basis=b, index=index, hermite=h)


def coset_of(k, lat: DualLattice):
    """Coset labels (see ``DualLattice``) of the integer vectors along the
    last axis of ``k``, shape (..., dim).  A single vector gives an
    ``int``, an array of vectors an int64 array of shape ``k.shape[:-1]``.

    Each vector is reduced into the box prod([0, H_ii)) one column of H
    at a time; a vector with a coordinate beyond ``limit`` in absolute
    value, where the reduction could leave the int64 range, is rejected.
    The limit test, the reduction and the label (Horner steps over
    diag(H)) all work on one 1-d coordinate array at a time, not by
    reductions over the short last axis.
    """
    pts = np.asarray(k)
    if pts.shape[-1:] != (lat.dim,):
        raise ValidationError(f"expected integer vectors of dimension {lat.dim}, got shape {pts.shape}")
    pts = _as_int64(pts, "coset_of coordinates")
    h = lat.hermite.tolist()
    # step i adds at most |k|_max times column i, so |k|_max grows by at
    # most the factor 1 + max|H[:, i]|
    limit = _INT64_MAX // math.prod(1 + max(abs(row[i]) for row in h) for i in range(lat.dim))
    cols = [pts[..., c] for c in range(lat.dim)]
    big = np.zeros(pts.shape[:-1], dtype=bool)
    for col in cols:
        big |= (col > limit) | (col < -limit)
    if big.any():
        v = tuple(pts[big][0].tolist())
        raise ValidationError(f"integer vector {v} too large to reduce in int64 (limit {limit})")
    # H is lower triangular: step i changes the coordinates c >= i with H[c, i] != 0
    for i in range(lat.dim):
        q = cols[i] // h[i][i]
        for c in range(i, lat.dim):
            if h[c][i]:
                cols[c] = cols[c] - q * h[c][i]
    labels = cols[0]
    for c in range(1, lat.dim):
        labels = labels * h[c][c] + cols[c]
    return int(labels) if pts.ndim == 1 else labels


def parse_basis(text: str) -> np.ndarray:
    """Parse a basis matrix written row-major like ``"2 0;0 1"``; every
    entry must be an integer in the int64 range."""
    rows = [r.strip() for r in text.replace(",", " ").split(";")]
    rows = [r for r in rows if r]
    if not rows:
        raise ValidationError("empty lattice basis")
    try:
        mat = [[int(tok) for tok in r.split()] for r in rows]
    except ValueError as exc:
        raise ValidationError(f"lattice basis entries must be integers: {exc}") from None
    big = [x for r in mat for x in r if not -_INT64_MAX - 1 <= x <= _INT64_MAX]
    if big:
        raise ValidationError(f"lattice basis entry {big[0]} lies outside the int64 range")
    width = len(mat[0])
    if any(len(r) != width for r in mat) or width != len(mat):
        raise ValidationError("lattice basis must be a square matrix")
    return np.array(mat, dtype=np.int64)


def format_basis(basis: np.ndarray) -> str:
    return ";".join(" ".join(str(int(x)) for x in row) for row in np.asarray(basis))
