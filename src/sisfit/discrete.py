"""Nearest invariant subspaces for finitely supported integer sequences.

The observed data are m sequences on Z^d with finite support.  A
partition of Z^d (explicit position labels, or the cosets of an integer
lattice) splits each sequence into blocks; the nearest subspace spanned
by ``rank`` block-supported generators keeps the globally largest block
eigenvalues.  ``brute_force_optimal`` enumerates every admissible
allocation of ranks to blocks and serves as an optimality oracle for the
greedy selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .hermitian import EIG_TOL_DEFAULT, MAX_ORDER
from .lattice import _INT64_MAX, DualLattice, coset_of, make_dual_lattice, parse_basis
from .sis import _check_rank, _column_blocks, _gramians, allocation_residual, block_eigen

BRUTE_FORCE_GUARD = 10**6


@dataclass(eq=False)
class DiscreteDataset:
    """m complex sequences over a shared finite support.

    ``support`` holds the union of all sample positions, lexicographically
    sorted; ``values[j, i]`` is sequence j at ``support[i]`` (zero where a
    sequence was not sampled).
    """

    dim: int
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.int64)
        if self.support.ndim != 2 or self.support.shape[1] != self.dim:
            raise ValidationError(
                f"support must have shape (points, {self.dim}), got {self.support.shape}"
            )
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 2 or vals.shape[1] != self.support.shape[0]:
            raise ValidationError(
                f"values shape {vals.shape} does not match {self.support.shape[0]} support points"
            )
        if vals.shape[0] < 1:
            raise ValidationError("dataset needs at least one sequence")
        if not (np.isfinite(vals.real) & np.isfinite(vals.imag)).all():
            raise ValidationError("sequence values must be finite")
        self.values = vals

    @classmethod
    def from_sequences(cls, dim: int, sequences) -> "DiscreteDataset":
        """Build from one mapping {position tuple: value} per sequence
        (pairs lists work too).  Duplicate positions within a sequence are
        rejected."""
        if dim < 1:
            raise ValidationError(f"dim must be at least 1, got {dim}")
        seq_maps = []
        for j, seq in enumerate(sequences):
            items = seq.items() if isinstance(seq, dict) else list(seq)
            seen = {}
            for pos, val in items:
                key = tuple(int(x) for x in np.atleast_1d(pos))
                if len(key) != dim:
                    raise ValidationError(
                        f"sequence {j}: position {key} does not have dimension {dim}"
                    )
                if key in seen:
                    raise ValidationError(f"sequence {j}: duplicate position {key}")
                seen[key] = complex(val)
            seq_maps.append(seen)
        if not seq_maps:
            raise ValidationError("dataset needs at least one sequence")
        union = sorted(set().union(*[set(s) for s in seq_maps]))
        if not union:
            union = [(0,) * dim]  # degenerate all-empty data: park it at the origin
        support = np.array(union, dtype=np.int64).reshape(len(union), dim)
        values = np.zeros((len(seq_maps), len(union)), dtype=np.complex128)
        col = {pos: i for i, pos in enumerate(union)}
        for j, s in enumerate(seq_maps):
            for pos, val in s.items():
                values[j, col[pos]] = val
        return cls(dim=dim, support=support, values=values)

    @property
    def m(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_points(self) -> int:
        return int(self.support.shape[0])

    def energies(self) -> np.ndarray:
        v = self.values
        return (v.real**2 + v.imag**2).sum(axis=1)


@dataclass(eq=False)
class DiscretePartition:
    """Partition of Z^d into labeled blocks.

    Either the cosets of an integer lattice (labels are section indices)
    or an explicit position-to-label mapping, in which case only mapped
    positions are covered.  ``labels`` is sorted and fixes block order.
    """

    dim: int
    labels: list
    lattice: DualLattice | None = None
    mapping: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_lattice(cls, lat: DualLattice) -> "DiscretePartition":
        return cls(dim=lat.dim, labels=list(range(lat.index)), lattice=lat)

    @classmethod
    def from_mapping(cls, dim: int, mapping: dict) -> "DiscretePartition":
        if not mapping:
            raise ValidationError("explicit partition mapping must not be empty")
        clean = {}
        for pos, label in mapping.items():
            key = tuple(int(x) for x in np.atleast_1d(pos))
            if len(key) != dim:
                raise ValidationError(f"position {key} does not have dimension {dim}")
            clean[key] = label
        uniq = set(clean.values())
        try:
            labels = sorted(uniq)
        except TypeError:
            labels = sorted(uniq, key=str)
        return cls(dim=dim, labels=labels, mapping=clean)

    @property
    def n_blocks(self) -> int:
        return len(self.labels)

    def label_index(self, pos):
        """Block index of every position along the last axis of ``pos``,
        shape (..., dim): an ``int`` for one position, an int64 array for
        several.  Explicit partitions reject uncovered positions."""
        pts = np.atleast_1d(np.asarray(pos, dtype=np.int64))
        if pts.shape[-1] != self.dim:
            raise ValidationError(f"expected positions of dimension {self.dim}, got shape {pts.shape}")
        idx = self._block_indices(pts)
        if (idx < 0).any():
            raise ValidationError(f"position {tuple(pts[idx < 0][0].tolist())} is not covered by the partition")
        return int(idx) if pts.ndim == 1 else idx

    def _block_indices(self, pts: np.ndarray) -> np.ndarray:
        """``label_index`` of int64 positions, shape (..., dim), with -1
        for positions an explicit partition does not cover."""
        if self.lattice is not None:
            return np.asarray(coset_of(pts, self.lattice))
        block = {lab: i for i, lab in enumerate(self.labels)}
        where = {pos: block[lab] for pos, lab in self.mapping.items()}
        idx = [where.get(key, -1) for key in map(tuple, pts.reshape(-1, self.dim).tolist())]
        return np.array(idx, dtype=np.int64).reshape(pts.shape[:-1])


def block_gramian(ds: DiscreteDataset, part: DiscretePartition, label) -> np.ndarray:
    """m x m Gramian of the sequences restricted to one block."""
    if label not in part.labels:
        raise ValidationError(f"unknown block label {label!r}")
    sigma = part.labels.index(label)
    return _gramians([ds.values], [np.flatnonzero(part.label_index(ds.support) == sigma)])[0]


def _block_columns(ds: DiscreteDataset, part: DiscretePartition):
    return _column_blocks(part.label_index(ds.support), part.n_blocks)


@dataclass(eq=False)
class DiscreteModel:
    """Fitted discrete subspace: ``generators[s]`` lives on ``support``
    and is supported on a single block; ``selected`` lists the kept
    records as (eigenvalue, label, in-block rank)."""

    dim: int
    rank: int
    support: np.ndarray
    generators: np.ndarray
    selected: list
    allocation: list
    labels: list
    error: float


def fit_discrete(
    ds: DiscreteDataset,
    part: DiscretePartition,
    rank: int,
    *,
    tol: float = EIG_TOL_DEFAULT,
) -> DiscreteModel:
    """Fit the nearest subspace spanned by ``rank`` block-supported
    sequences.

    All block Gramians are eigendecomposed; the globally largest ``rank``
    eigenvalues are kept (ties: smaller block, then smaller in-block
    rank).  Each kept eigenvector gives a generator scaled by
    eigenvalue^(-1/2), or the zero sequence when the eigenvalue is
    numerically zero.  ``error`` is the sum of all discarded eigenvalues,
    added block by block, each block's in descending order.
    """
    rank = _check_rank(rank)
    core = block_eigen(ds.values, _block_columns(ds, part), rank, tol)
    generators = np.zeros((rank, ds.n_points), dtype=np.complex128)
    generators[: core.eigenvalues.shape[0]] = core.generators
    selected = [
        (lam, part.labels[sigma], j)
        for lam, sigma, j in zip(core.eigenvalues.tolist(), core.blocks.tolist(), core.block_ranks.tolist())
    ]
    return DiscreteModel(
        dim=ds.dim,
        rank=rank,
        support=ds.support.copy(),
        generators=generators,
        selected=selected,
        allocation=core.allocation.tolist(),
        labels=list(part.labels),
        error=core.residual,
    )


def error_discrete(
    ds: DiscreteDataset,
    part: DiscretePartition,
    rank: int,
    *,
    tol: float = EIG_TOL_DEFAULT,
) -> float:
    """Distance (squared) to the nearest rank-``rank`` block-generated
    subspace, equal to ``fit_discrete(...).error``; ``rank`` 0 gives the
    total energy."""
    rank = _check_rank(rank, minimum=0)
    return block_eigen(ds.values, _block_columns(ds, part), rank, tol, vectors=False).residual


def brute_force_optimal(
    ds: DiscreteDataset,
    part: DiscretePartition,
    rank: int,
    *,
    tol: float = EIG_TOL_DEFAULT,
):
    """Minimize the leftover energy over every admissible rank allocation.

    Enumerates all per-block budgets 0 <= alloc[sigma] <= rank with total
    at most ``rank`` and returns (best error, best allocation); the first
    minimizer in lexicographic enumeration order wins.  Each allocation is
    totaled by ``allocation_residual``, the sum the greedy fit reports, so
    an optimal greedy fit matches bit for bit.  Refuses jobs with more
    than 10^6 allocations.
    """
    rank = _check_rank(rank, minimum=0)
    nb = part.n_blocks
    n_alloc = (rank + 1) ** nb
    if n_alloc > BRUTE_FORCE_GUARD:
        raise ValidationError(
            f"{n_alloc} allocations exceed the enumeration guard of {BRUTE_FORCE_GUARD}"
        )
    lams = block_eigen(ds.values, _block_columns(ds, part), 0, tol, vectors=False).block_eigenvalues
    best_err = None
    best_alloc = None
    for alloc in product(range(rank + 1), repeat=nb):
        if sum(alloc) > rank:
            continue
        err = allocation_residual(lams, alloc)
        if best_err is None or err < best_err:
            best_err = err
            best_alloc = alloc
    return best_err, best_alloc


def parse_discrete_dataset(path) -> DiscreteDataset:
    """Read sequences from a text table: ``j, p_1, ..., p_d, re, im`` per
    line, comments starting with '#'.  The dimension is inferred from the
    column count and must be consistent; sequence indices run from 0 to
    ``MAX_ORDER - 1``."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"dataset file not found: {path}")
    rows = []
    dim = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [tok.strip() for tok in line.split(",")]
        if len(parts) < 4:
            raise ValidationError(f"{path}:{lineno}: expected at least 4 columns")
        d = len(parts) - 3
        if dim is None:
            dim = d
        elif d != dim:
            raise ValidationError(
                f"{path}:{lineno}: inconsistent column count (dimension {d} vs {dim})"
            )
        try:
            j = int(parts[0])
            pos = tuple(int(tok) for tok in parts[1 : 1 + d])
            re = float(parts[1 + d])
            im = float(parts[2 + d])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if j < 0:
            raise ValidationError(f"{path}:{lineno}: sequence index must be nonnegative")
        if j >= MAX_ORDER:
            # the Gramian of m sequences has order m, at most MAX_ORDER
            raise ValidationError(
                f"{path}:{lineno}: sequence index {j} exceeds {MAX_ORDER - 1} "
                f"(a fit takes at most {MAX_ORDER} sequences)"
            )
        if not all(-_INT64_MAX - 1 <= x <= _INT64_MAX for x in pos):
            raise ValidationError(f"{path}:{lineno}: position {pos} outside the int64 range")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValidationError(f"{path}:{lineno}: non-finite value for (j={j}, position {pos})")
        rows.append((lineno, j, pos, complex(re, im)))
    if not rows:
        raise ValidationError(f"{path}: no data lines")
    m = max(r[1] for r in rows) + 1
    seqs = [{} for _ in range(m)]
    for lineno, j, pos, val in rows:
        if pos in seqs[j]:
            raise ValidationError(f"{path}:{lineno}: duplicate sample for (j={j}, position {pos})")
        seqs[j][pos] = val
    return DiscreteDataset.from_sequences(dim, seqs)


def write_discrete_sequences(support: np.ndarray, values: np.ndarray, path) -> None:
    """Write sequences in the same text table format ``parse`` reads,
    skipping exact zeros."""
    with open(path, "w") as fh:
        for j in range(values.shape[0]):
            for i, pos in enumerate(support):
                z = values[j, i]
                if z == 0:
                    continue
                pcols = ",".join(str(int(x)) for x in pos)
                fh.write(f"{j},{pcols},{float(z.real)!r},{float(z.imag)!r}\n")


def parse_partition(path, dim: int) -> DiscretePartition:
    """Read a partition description.

    A single line ``lattice: <basis>`` (basis row-major, rows separated
    by ';') selects the coset partition of that lattice.  Otherwise each
    line is ``p_1, ..., p_d, label`` and the mapping must later cover
    every support position it is used with.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"partition file not found: {path}")
    lines = [
        (lineno, ln.strip())
        for lineno, ln in enumerate(path.read_text().splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValidationError(f"{path}: empty partition description")
    if lines[0][1].lower().startswith("lattice:"):
        if len(lines) > 1:
            raise ValidationError(f"{path}:{lines[1][0]}: lattice partitions take a single line")
        basis = parse_basis(lines[0][1].split(":", 1)[1])
        if basis.shape[0] != dim:
            raise ValidationError(
                f"{path}: lattice dimension {basis.shape[0]} does not match data dimension {dim}"
            )
        return DiscretePartition.from_lattice(make_dual_lattice(basis))
    mapping = {}
    for lineno, ln in lines:
        parts = [tok.strip() for tok in ln.split(",")]
        if len(parts) != dim + 1:
            raise ValidationError(f"{path}:{lineno}: expected {dim + 1} columns, got {len(parts)}")
        try:
            pos = tuple(int(tok) for tok in parts[:dim])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: bad position in line {ln!r}") from None
        if pos in mapping:
            raise ValidationError(f"{path}:{lineno}: position {pos} labeled twice")
        mapping[pos] = parts[dim]
    return DiscretePartition.from_mapping(dim, mapping)
