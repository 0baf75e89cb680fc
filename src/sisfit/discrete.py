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

from array import array
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ValidationError
from .lattice import DualLattice, coset_of, make_dual_lattice, parse_basis
from .sis import _check_rank, _column_blocks, _fit_cells, allocation_residual, block_spectra, error_at_rank
from .table import parse_row, read_table, reject, repeats, scan, split_row, write_table

BRUTE_FORCE_GUARD = 10**6

# samples (sequences times support points) a sequence table may ask for:
# 256 MiB of complex doubles, so that a stray index cannot size the dataset
MAX_TABLE_SAMPLES = 2**24


def _unique_rows(rows: np.ndarray):
    """What ``np.unique(rows, axis=0, return_index=True,
    return_inverse=True)`` returns for an (n, d) int64 array, the inverse
    flat: the distinct rows in signed lexicographic order, the index of
    each one's first occurrence, and the index of each row's among them.

    One stable ``np.lexsort`` over the columns (the first column the
    primary key) and an adjacent-row difference taken column by column:
    some 5x faster than ``np.unique`` along an axis, which sorts the rows
    as a structured dtype, on a few thousand rows of two columns."""
    n, d = rows.shape
    order = np.lexsort([rows[:, c] for c in reversed(range(d))])
    ordered = rows[order]
    new = np.zeros(n, dtype=bool)  # new[i]: ordered row i differs from row i - 1
    new[:1] = True
    for c in range(d):
        col = ordered[:, c]
        new[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(new)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[starts], order[starts], inverse


@dataclass(eq=False)
class DiscreteDataset:
    """m complex sequences over a shared finite support.

    ``support`` holds the union of all sample positions, lexicographically
    sorted; ``values[j, i]`` is sequence j at ``support[i]`` (zero where a
    sequence was not sampled).  ``origin(i)``, when known, names where
    ``support[i]`` was first read (a file line, or a sequence).
    """

    dim: int
    support: np.ndarray
    values: np.ndarray
    origin: Callable | None = field(default=None, repr=False)

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
        sequences = list(sequences)
        if not sequences:
            raise ValidationError("dataset needs at least one sequence")
        js, pos, vals = array("q"), array("q"), []
        for j, seq in enumerate(sequences):
            for p, val in seq.items() if isinstance(seq, dict) else seq:
                try:
                    pos.extend(_position(p, dim))
                except ValidationError as exc:
                    raise ValidationError(f"sequence {j}: {exc}") from None
                js.append(j)
                vals.append(complex(val))
        return cls._from_rows(dim, len(sequences), np.frombuffer(js, dtype=np.int64),
                              np.frombuffer(pos, dtype=np.int64).reshape(-1, dim),
                              np.array(vals, dtype=np.complex128), lambda r: f"sequence {js[r]}")

    @classmethod
    def _from_rows(cls, dim: int, m: int, j: np.ndarray, pos: np.ndarray, vals: np.ndarray,
                   where, source: str | None = None) -> "DiscreteDataset":
        """``m`` sequences from rows (j, position, value) with 0 <= j < m;
        ``where(r)`` names row r in errors, and the first row of each
        support point in ``origin``.  ``source``, when given, names what
        set m (a table's largest index, or a model's rank), and m times the
        support size must then stay within ``MAX_TABLE_SAMPLES``.  The
        support and each row's column in it come from ``_unique_rows``
        (one lexsort), and a repeated (j, column) is a duplicate sample."""
        located = bool(len(j))
        if not located:  # degenerate all-empty data: park a zero at the origin
            j, pos, vals = np.zeros(1, dtype=np.int64), np.zeros((1, dim), dtype=np.int64), np.zeros(1)
        support, first, col = _unique_rows(pos)
        if source is not None and m * len(support) > MAX_TABLE_SAMPLES:
            raise ValidationError(
                f"{source} gives {m} sequences on {len(support)} support points, more than {MAX_TABLE_SAMPLES} samples"
            )
        flat = j * len(support) + col
        reject(repeats(flat), where, lambda r: f"duplicate sample for (j={j[r]}, position {tuple(pos[r].tolist())})")
        values = np.zeros(m * len(support), dtype=np.complex128)
        values[flat] = vals
        return cls(dim=dim, support=support, values=values.reshape(m, len(support)),
                   origin=(lambda i: where(first[i])) if located else None)

    @property
    def m(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_points(self) -> int:
        return int(self.support.shape[0])

    def energies(self) -> np.ndarray:
        v = self.values
        return (v.real**2 + v.imag**2).sum(axis=1)


def _position(p, dim: int) -> tuple:
    """Library position ``p`` (an integer or a sequence of them) as a
    tuple of ``dim`` int64 integers."""
    key = tuple(int(x) for x in np.atleast_1d(p))
    if len(key) != dim:
        raise ValidationError(f"position {key} does not have dimension {dim}")
    if not all(-(2**63) <= v < 2**63 for v in key):
        raise ValidationError(f"position {key} outside the int64 range")
    return key


@dataclass(eq=False)
class DiscretePartition:
    """Partition of Z^d into labeled blocks.

    Either the cosets of an integer lattice (labels are coset labels)
    or an explicit position-to-label mapping, in which case only mapped
    positions are covered.  ``labels`` is sorted and fixes block order;
    ``source`` names the file it was read from, if any.
    """

    dim: int
    labels: list
    lattice: DualLattice | None = None
    mapping: dict = field(default_factory=dict, repr=False)
    source: str | None = field(default=None, compare=False)

    @classmethod
    def from_lattice(cls, lat: DualLattice) -> "DiscretePartition":
        return cls(dim=lat.dim, labels=list(range(lat.index)), lattice=lat)

    @classmethod
    def from_mapping(cls, dim: int, mapping: dict) -> "DiscretePartition":
        """The explicit partition of ``mapping`` {position: label} (``_explicit``):
        ``{(0,): "a", 0: "b"}`` is refused as ``key 0: position (0,) labeled twice``."""
        if not mapping:
            raise ValidationError("explicit partition mapping must not be empty")
        return _explicit(dim, ((key, _position(key, dim), label) for key, label in mapping.items()),
                         lambda key: f"key {key!r}")

    @property
    def n_blocks(self) -> int:
        return len(self.labels)

    def _block_indices(self, pts: np.ndarray) -> np.ndarray:
        """Block index of every int64 position along the last axis of
        ``pts``, shape (..., dim), -1 where an explicit partition does not
        cover it."""
        if self.lattice is not None:
            return np.asarray(coset_of(pts, self.lattice))
        block = {lab: i for i, lab in enumerate(self.labels)}
        where = {pos: block[lab] for pos, lab in self.mapping.items()}
        idx = [where.get(key, -1) for key in map(tuple, pts.reshape(-1, self.dim).tolist())]
        return np.array(idx, dtype=np.int64).reshape(pts.shape[:-1])


def _explicit(dim: int, entries, where, source: str | None = None) -> DiscretePartition:
    """The explicit partition of ``entries``, (key, position, label) triples
    in order, for both constructors: a position given twice raises ``"{where(key)}:
    position (...) labeled twice"`` at its second key, and a label equal to an
    earlier one of another type or text (``1``, ``True``, ``1.0``; ``0.0``, ``-0.0``)
    raises at its key, naming both.  The labels are sorted, by their text where
    they do not compare, those of one text in first-seen order."""
    # uniq: the first of each label, in first-seen order, so that ties under key=str are deterministic
    mapping, uniq = {}, {}
    for key, pos, label in entries:
        if pos in mapping:
            raise ValidationError(f"{where(key)}: position {pos} labeled twice")
        mapping[pos] = label
        first = uniq.setdefault(label, label)
        if type(first) is not type(label) or str(first) != str(label):
            raise ValidationError(f"{where(key)}: labels {first!r} and {label!r} compare equal "
                                  "but are different values")
    try:
        labels = sorted(uniq)
    except TypeError:
        labels = sorted(uniq, key=str)
    return DiscretePartition(dim=dim, labels=labels, mapping=mapping, source=source)


def _block_columns(ds: DiscreteDataset, part: DiscretePartition):
    """Column index of each block; an uncovered support position is named
    with where the data hold it and where the partition was read."""
    idx = part._block_indices(ds.support)
    uncovered = idx < 0
    if uncovered.any():
        i = int(np.argmax(uncovered))
        at = f"{ds.origin(i)}: " if ds.origin else ""
        src = f" in {part.source}" if part.source else ""
        raise ValidationError(f"{at}position {tuple(ds.support[i].tolist())} is not covered by the partition{src}")
    return _column_blocks(idx, part.n_blocks, ds.m)


@dataclass(eq=False)
class DiscreteModel:
    """Fitted discrete subspace: ``generators[s]`` lives on ``support``
    and is supported on a single block.  The records are ``_fit_cells``'s
    for one cell, (1, rank) arrays: slot s keeps ``eigenvalues[0, s]`` in block
    ``labels[home_blocks[0, s]]`` at in-block rank ``block_ranks[0, s]``,
    -1 in both on padded slots.  ``allocation`` holds the per-block
    counts, which ``verify`` compares with the records; ``selected`` lists
    the records as (eigenvalue, label, in-block rank)."""

    dim: int
    rank: int
    support: np.ndarray
    generators: np.ndarray
    eigenvalues: np.ndarray
    home_blocks: np.ndarray
    block_ranks: np.ndarray
    allocation: list
    labels: list
    error: float

    @property
    def selected(self) -> list:
        records = zip(self.eigenvalues[0].tolist(), self.home_blocks[0].tolist(), self.block_ranks[0].tolist())
        return [(lam, self.labels[b], j) for lam, b, j in records if b >= 0]


def fit_discrete(
    ds: DiscreteDataset,
    part: DiscretePartition,
    rank: int,
) -> DiscreteModel:
    """Fit the nearest subspace spanned by ``rank`` block-supported
    sequences.

    The sequences are one cell matrix of ``_fit_cells``, with one column
    block per partition block: all block Gramians are eigendecomposed,
    the globally largest ``rank`` eigenvalues are kept (ties: smaller
    block, then smaller in-block rank), and each kept eigenvector gives a
    unit-norm generator, or the zero sequence when the eigenvalue is
    numerically zero.  ``error`` is the sum of all discarded eigenvalues,
    added block by block, each block's in descending order.
    """
    rank = _check_rank(rank)
    lam, gens, resid, home, ranks = _fit_cells(ds.values[None], _block_columns(ds, part), rank)
    return DiscreteModel(dim=ds.dim, rank=rank, support=ds.support.copy(), generators=gens[:, 0], eigenvalues=lam,
                         home_blocks=home, block_ranks=ranks, labels=list(part.labels), error=float(resid[0]),
                         allocation=np.bincount(home[home >= 0], minlength=part.n_blocks).tolist())


def spectra_discrete(ds: DiscreteDataset, part: DiscretePartition) -> np.ndarray:
    """The partition block spectra (1, blocks, m) (``block_spectra``)."""
    return block_spectra(ds.values[None], _block_columns(ds, part))


def error_discrete(
    ds: DiscreteDataset,
    part: DiscretePartition,
    rank: int,
) -> float:
    """Distance (squared) to the nearest rank-``rank`` block-generated
    subspace, equal to ``fit_discrete(...).error``; ``rank`` 0 gives the
    total energy."""
    rank = _check_rank(rank, minimum=0)
    return error_at_rank(spectra_discrete(ds, part), rank, 1.0)


def brute_force_optimal(
    ds: DiscreteDataset,
    part: DiscretePartition,
    rank: int,
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
    # multiplied up block by block, so a huge count is never built or printed
    n_alloc = 1
    for _ in range(nb):
        n_alloc *= rank + 1
        if n_alloc > BRUTE_FORCE_GUARD:
            raise ValidationError(
                f"{rank + 1}^{nb} allocations exceed the enumeration guard of {BRUTE_FORCE_GUARD}"
            )
    lams = spectra_discrete(ds, part)[0]
    best_err = None
    best_alloc = None
    for alloc in product(range(rank + 1), repeat=nb):
        if sum(alloc) > rank:
            continue
        err = float(allocation_residual(lams, alloc))
        if best_err is None or err < best_err:
            best_err = err
            best_alloc = alloc
    return best_err, best_alloc


def parse_discrete_dataset(path) -> DiscreteDataset:
    """Read sequences from a text table: ``j, p_1, ..., p_d, re, im`` per
    line, comments starting with '#'.  The first data line's column count
    sets d (at least 1), and every data line must have d + 3 columns;
    sequence indices start at 0, and the number of sequences times the
    number of support points is at most ``MAX_TABLE_SAMPLES`` (2^24)."""
    return _read_sequences(path)


def _read_sequences(path, dim: int | None = None, rank: int | None = None) -> DiscreteDataset:
    """``parse_discrete_dataset``; a ``dim`` fixes the dimension, else the
    first data line's commas less two set it (at least 1), and a ``rank``
    the number of sequences (a table without data lines is then ``rank`` zero sequences)."""
    if dim is None:  # a file without data lines reads as d = 1, and is refused below
        dim = max(next(scan(path), (0, ""))[1].count(",") - 2, 1)
    lines, ints, vals = read_table(path, 1, 2, dim)
    if rank is None and not len(lines):
        raise ValidationError(f"{path}: no data lines")
    j = ints[:, 0]
    at = lambda r: f"{path}:{lines[r]}"  # noqa: E731
    reject(j < 0, at, lambda r: f"sequence index {j[r]} must be nonnegative")
    if rank is None:
        r = int(np.argmax(j))
        m, source = int(j[r]) + 1, f"{at(r)}: sequence index {j[r]}"
    else:
        reject(j >= rank, at, lambda r: f"sequence index {j[r]} exceeds {rank - 1} (the model has rank {rank})")
        m, source = rank, f"{path}: the model's rank {rank}"
    return DiscreteDataset._from_rows(dim, m, j, ints[:, 1:], vals.view(np.complex128)[:, 0], at, source)


def write_discrete_sequences(support: np.ndarray, values: np.ndarray, path) -> None:
    """Write sequences in the same text table format ``parse`` reads,
    skipping exact zeros."""
    j, i = np.nonzero(values)
    z = values[j, i]
    write_table(path, np.column_stack([j, np.asarray(support, dtype=np.int64)[i]]), np.column_stack([z.real, z.imag]))


def parse_partition(path, dim: int) -> DiscretePartition:
    """Read a partition description.

    A single line ``lattice: <basis>`` (basis row-major, rows separated
    by ';') selects the coset partition of that lattice.  Otherwise each
    line is ``p_1, ..., p_d, label`` (``split_row`` and ``parse_row``), read
    in line order by ``_explicit``, which refuses a repeated position at its
    second line; the mapping must later cover every support position it is used with.
    """
    lines = list(scan(path))
    if not lines:
        raise ValidationError(f"{path}: empty partition description")
    if lines[0][1].lower().startswith("lattice:"):
        if len(lines) > 1:
            raise ValidationError(f"{path}:{lines[1][0]}: lattice partitions take a single line")
        try:
            basis = parse_basis(lines[0][1].split(":", 1)[1])
            if basis.shape[0] != dim:
                raise ValidationError(f"lattice dimension {basis.shape[0]} does not match data dimension {dim}")
            return DiscretePartition.from_lattice(make_dual_lattice(basis))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lines[0][0]}: {exc}") from None
    rows = ((lineno, split_row(path, lineno, text, dim + 1)) for lineno, text in lines)
    entries = ((lineno, tuple(parse_row(path, lineno, row[:-1], (), 0)[0]), row[-1].strip()) for lineno, row in rows)
    return _explicit(dim, entries, lambda lineno: f"{path}:{lineno}", str(path))
