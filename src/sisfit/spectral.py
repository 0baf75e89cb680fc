"""Sampled Fourier data on a uniform grid over the unit cell.

A grid fixes the sampling layout: the cube (-1/2, 1/2)^d is split into
``cells_per_dim`` cells per axis, each cell represented by its midpoint
omega_g, and every function is observed at the points omega_g + k for
integer translations k with max-norm at most ``trunc_radius``.  A dataset
is the resulting (m, n_cells, n_translations) array of complex samples.

Datasets live on disk as a small JSON manifest next to a payload that is
either raw little-endian complex doubles or a plain text table; see
``ingest`` and ``write_dataset``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EnergyOverflow, ValidationError
from .table import (_json, in_key_order, one_row_per_key, read_c16, read_object, read_table, reject, write_c16,
                    write_object, write_table)

PAYLOAD_BINARY = "binary-c64le"
PAYLOAD_CSV = "csv"


@dataclass
class SpectralGrid:
    """Sampling layout: cell midpoints and the truncated translation set.

    Cells are indexed lexicographically by their d-dimensional multi-index;
    translations are the integer vectors with ||k||_inf <= trunc_radius in
    lexicographic order.  Equality compares the three defining integers.
    The cell centers and translations are built when first used, so that a
    grid read from a file sizes no array before it is checked.
    """

    dim: int
    cells_per_dim: int
    trunc_radius: int

    def __post_init__(self):
        _check_grid(self.dim, self.cells_per_dim, self.trunc_radius)
        self.cell_volume = 1.0 / (self.cells_per_dim**self.dim)

    @cached_property
    def cell_centers(self) -> np.ndarray:
        g = self.cells_per_dim
        axis = -0.5 + (np.arange(g) + 0.5) / g
        mesh = np.meshgrid(*([axis] * self.dim), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @cached_property
    def translations(self) -> np.ndarray:
        n = self.trunc_radius
        kmesh = np.meshgrid(*([np.arange(-n, n + 1)] * self.dim), indexing="ij")
        return np.stack([m.ravel() for m in kmesh], axis=1).astype(np.int64)

    @property
    def n_cells(self) -> int:
        return int(self.cells_per_dim) ** int(self.dim)

    @property
    def n_translations(self) -> int:
        return (2 * int(self.trunc_radius) + 1) ** int(self.dim)

    def _outside(self, ks) -> np.ndarray:
        """Which integer vectors along the last axis of ``ks`` lie outside
        the truncation box: one 1-d test per coordinate, not a reduction
        over the short last axis."""
        n = self.trunc_radius
        out = np.zeros(ks.shape[:-1], dtype=bool)
        for c in range(ks.shape[-1]):
            k = ks[..., c]
            out |= (k < -n) | (k > n)
        return out

    def translation_indices(self, ks) -> np.ndarray:
        """Index in ``translations`` of every integer vector along the last
        axis of ``ks``; rejects vectors outside the truncation box."""
        ks = np.asarray(ks, dtype=np.int64)
        if ks.shape[-1:] != (self.dim,):
            raise ValidationError(f"expected translations of length {self.dim}, got shape {ks.shape}")
        outside = self._outside(ks)
        if outside.any():
            key = tuple(ks[outside][0].tolist())
            raise ValidationError(f"translation {key} outside the truncation box (radius {self.trunc_radius})")
        if self.n_translations >= 2**63:
            raise ValidationError(f"grid has {self.n_translations} translations, more than an int64 index numbers")
        return self._ravel(ks)

    def _ravel(self, ks) -> np.ndarray:
        """``translation_indices`` of int64 vectors known to lie in the
        box, on a grid whose translations an int64 index numbers: Horner
        steps over the coordinates, the first one the most significant."""
        n = self.trunc_radius
        side = 2 * n + 1
        flat = ks[..., 0] + n
        for c in range(1, self.dim):
            flat = flat * side + (ks[..., c] + n)
        return flat


def _check_grid(dim: int, cells_per_dim: int, trunc_radius: int, source=None) -> None:
    """Refuse grid fields that no ``SpectralGrid`` may hold, in Python ints,
    before ``cell_volume`` or any array is sized by them; the messages
    start with ``source``, the file the fields were read from, if given."""
    where = "" if source is None else f"{source}: "
    if dim < 1:
        raise ValidationError(f"{where}dim must be at least 1, got {dim}")
    if cells_per_dim < 2 or cells_per_dim % 2 != 0:
        raise ValidationError(f"{where}cells_per_dim must be a positive even integer, got {cells_per_dim}")
    if trunc_radius < 1:
        raise ValidationError(f"{where}trunc_radius must be at least 1, got {trunc_radius}")
    if cells_per_dim ** min(dim, 64) > 2**63:  # at dim 64 there are 2**64 cells or more
        raise ValidationError(f"{where}grid fields 'dim' ({dim}) and 'cells_per_dim' ({cells_per_dim}) give more "
                              f"cells than an int64 cell index numbers")


def check_same_grid(model_grid: SpectralGrid, data_grid: SpectralGrid) -> None:
    """Reject data sampled on another grid than the model's."""
    if model_grid != data_grid:
        raise ValidationError(
            "model and dataset grids differ: "
            f"model ({model_grid.dim}, {model_grid.cells_per_dim}, {model_grid.trunc_radius}) "
            f"vs data ({data_grid.dim}, {data_grid.cells_per_dim}, {data_grid.trunc_radius})"
        )


@dataclass(eq=False)
class SpectralDataset:
    """Complex samples of m functions on a grid: ``samples[j, g, k]`` is
    function j at cell g, translation index k."""

    grid: SpectralGrid
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim != 3:
            raise ValidationError(f"samples must be 3-d (m, cells, translations), got shape {arr.shape}")
        m, nc, nk = arr.shape
        if m < 1:
            raise ValidationError("dataset needs at least one function")
        if nc != self.grid.n_cells or nk != self.grid.n_translations:
            raise ValidationError(
                f"samples shape {arr.shape} does not match grid "
                f"({self.grid.n_cells} cells, {self.grid.n_translations} translations)"
            )
        arr = arr.astype(np.complex128, copy=False)
        finite = np.isfinite(arr.real) & np.isfinite(arr.imag)
        if not finite.all():
            j, g, ki = np.argwhere(~finite)[0]
            kvec = tuple(int(x) for x in self.grid.translations[ki])
            raise ValidationError(f"non-finite sample at (j={j}, g={g}, k={kvec})")
        self.samples = arr

    @property
    def m(self) -> int:
        return int(self.samples.shape[0])


_FAMILY_PARAM = {"gaussian": "sigma", "bspline": "order", "boxcar": "halfwidth"}


def synthesize(family: str, params, grid: SpectralGrid) -> SpectralDataset:
    """Sample a named single-function family on a grid.

    Families (xi runs over sampling points, coordinatewise products):

    - ``gaussian(sigma)``, finite sigma > 0: exp(-pi sigma^2 |xi|^2)
    - ``bspline(n)``, integer n >= 0: prod_c (sin(pi xi_c) / (pi xi_c))^(n+1)
    - ``boxcar(a)``, finite a > 0: prod_c sin(2 pi a xi_c) / (pi xi_c), value 2a at 0

    A grid whose evaluation points or samples take 2^63 bytes or more,
    which NumPy cannot index, is refused before any array is built.
    """
    if family not in _FAMILY_PARAM:
        known = ", ".join(sorted(_FAMILY_PARAM))
        raise ValidationError(f"unknown family {family!r} (known: {known})")
    params = list(np.atleast_1d(params))
    if len(params) != 1:
        raise ValidationError(f"family {family!r} takes one parameter, got {len(params)}")
    p = params[0]

    # evaluation points, shape (n_cells, n_translations, dim), and the
    # samples, 16 bytes each: the larger must be an array NumPy can index
    size = grid.n_cells * grid.n_translations * 8 * max(grid.dim, 2)
    if size >= 2**63:
        raise ValidationError(f"grid dim {grid.dim}, cells_per_dim {grid.cells_per_dim} and trunc_radius "
                              f"{grid.trunc_radius} need an array of {size} bytes, more than NumPy can index")
    xi = grid.cell_centers[:, None, :] + grid.translations[None, :, :]

    # a non-finite parameter gets its family's message: inf would pass the
    # sign tests (and give all-zero samples), and int() refuses inf and nan
    if family == "gaussian":
        sigma = float(p)
        if not 0 < sigma < math.inf:
            raise ValidationError(f"gaussian sigma must be positive and finite, got {sigma}")
        vals = np.exp(-np.pi * sigma**2 * np.sum(xi**2, axis=2))
    elif family == "bspline":
        if not math.isfinite(float(p)) or float(p) != int(p) or int(p) < 0:
            raise ValidationError(f"bspline order must be a nonnegative integer, got {p}")
        n = int(p)
        vals = np.prod(np.sinc(xi) ** (n + 1), axis=2)
    else:
        a = float(p)
        if not 0 < a < math.inf:
            raise ValidationError(f"boxcar halfwidth must be positive and finite, got {a}")
        vals = np.prod(2.0 * a * np.sinc(2.0 * a * xi), axis=2)

    return SpectralDataset(grid=grid, samples=vals[None, :, :].astype(np.complex128))


def _squares(ds: SpectralDataset) -> np.ndarray:
    """The squared sample magnitudes (m, cells, translations), spelled once:
    ``total_energy``, ``multitile._weights`` and ``verify`` reduce them."""
    return ds.samples.real**2 + ds.samples.imag**2


def _energy(squares: np.ndarray, volume: float) -> float:
    return float((squares.sum(axis=(1, 2)) * volume).sum())


def _finite_energy(energy: float, volume: float) -> float:
    """``energy``, refused when without the cell ``volume`` it overflows
    float64: that energy bounds every Gramian entry and eigenvalue of a
    fit.  The caller forms it under ``np.errstate(over="ignore")``."""
    if not np.isfinite(energy / volume):
        raise EnergyOverflow("the energy of the samples overflows float64")
    return energy


def total_energy(ds: SpectralDataset) -> float:
    """Quadrature energy of the dataset: each function's sum of squared
    sample magnitudes times the cell volume, summed over the functions."""
    return _energy(_squares(ds), ds.grid.cell_volume)


def ingest(manifest_path) -> SpectralDataset:
    """Load a dataset from its JSON manifest.

    The manifest must carry the six fields dim, m, cells_per_dim,
    trunc_radius, payload_path and payload_format, each read by
    ``_Meta.get``, which names a missing one; other fields are ignored.
    payload_path is resolved relative to the manifest.  Shape mismatches,
    non-finite samples and malformed payloads are rejected with locations.
    """
    fields = read_object(manifest_path)
    dim, m, cells, trunc = (fields.get(k, _json(int)) for k in ("dim", "m", "cells_per_dim", "trunc_radius"))
    if m < 1:
        raise ValidationError(f"{fields.path}: field 'm' must be at least 1, got {m}")
    _check_grid(dim, cells, trunc, fields.path)

    payload = fields.path.parent / fields.get("payload_path", _json(str))
    fmt = fields.get("payload_format", _json(str))
    if not payload.is_file():
        raise ValidationError(f"{fields.path}: field 'payload_path': payload not found: {payload}")
    if fmt not in (PAYLOAD_BINARY, PAYLOAD_CSV):
        raise ValidationError(f"{fields.path}: unknown payload format {fmt!r}")
    # a sample takes 16 bytes in binary and more than one in a CSV row
    _check_payload_holds_grid(fields.path, dim, cells, trunc, payload, 16 if fmt == PAYLOAD_BINARY else 1)
    grid = SpectralGrid(dim=dim, cells_per_dim=cells, trunc_radius=trunc)
    shape = (m, grid.n_cells, grid.n_translations)
    if fmt == PAYLOAD_BINARY:
        samples = read_c16(payload, shape)
    else:
        samples = _read_csv_payload(payload, grid, shape)
    return SpectralDataset(grid=grid, samples=samples)


def _check_payload_holds_grid(manifest: Path, dim: int, cells: int, trunc: int, payload: Path,
                              per_sample: int) -> None:
    """Refuse a grid with more (cell, translation) samples than ``payload``
    can hold at ``per_sample`` bytes each, before the grid's arrays are built.
    The count cells_per_dim^dim * (2 trunc_radius + 1)^dim is multiplied up
    in Python ints and stops as soon as it is too large, so a huge dim or
    trunc_radius costs nothing."""
    size = payload.stat().st_size
    n = 1
    for _ in range(dim):
        n *= cells * (2 * trunc + 1)
        if n * per_sample > size:
            raise ValidationError(
                f"{manifest}: dim {dim}, cells_per_dim {cells} and trunc_radius {trunc} give more samples "
                f"than payload {payload} ({size} bytes) can hold at {per_sample} bytes each"
            )


def _read_csv_payload(payload: Path, grid: SpectralGrid, shape: tuple) -> np.ndarray:
    """The samples of a CSV payload, one ``j,g,k_1,...,k_d,re,im`` row each.

    A payload whose rows are in sample order (``write_dataset`` writes
    them so) is accepted by one broadcast compare of each key column:
    ``j`` and ``g`` by ``in_key_order``, each translation column against
    that column of ``grid.translations``, which also proves the box
    test.  Its values are then one contiguous copy of their column view.
    Any other row order takes the general path: the box test, the sample
    count, and ``one_row_per_key`` over (j, g, translation index), whose
    rows gather the values."""
    lines, ints, vals = read_table(payload, 2, 2, grid.dim)
    k = ints[:, 2:]
    if in_key_order((ints[:, 0], ints[:, 1]), shape) and all(
            (k[:, c].reshape(shape) == grid.translations[:, c]).all() for c in range(grid.dim)):
        return np.ascontiguousarray(vals.view(np.complex128).reshape(shape))
    reject(grid._outside(k), lambda r: f"{payload}:{lines[r]}",
           lambda r: f"translation {tuple(k[r].tolist())} outside the truncation box (radius {grid.trunc_radius})")
    # checked first: with at least as many lines as samples, the sample index fits int64
    expected = math.prod(shape)
    if len(lines) < expected:
        raise ValidationError(f"payload {payload} has {len(lines)} samples, expected {expected}")
    keys = (ints[:, 0], ints[:, 1], grid._ravel(k))  # every k is in the box, checked above
    rows = one_row_per_key(payload, lines, keys, shape, "(function, cell, translation index)")
    return vals.view(np.complex128)[rows].reshape(shape)


def write_dataset(ds: SpectralDataset, out_dir, payload_format: str = PAYLOAD_BINARY, stem: str = "dataset") -> Path:
    """Write manifest plus payload into ``out_dir``; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if payload_format == PAYLOAD_BINARY:
        payload_name = f"{stem}.bin"
        write_c16(out / payload_name, ds.samples)
    elif payload_format == PAYLOAD_CSV:
        payload_name = f"{stem}.csv"
        j, g, t = np.indices(ds.samples.shape).reshape(3, -1)
        z = ds.samples.reshape(-1)
        write_table(out / payload_name, np.column_stack([j, g, ds.grid.translations[t]]),
                    np.column_stack([z.real, z.imag]))
    else:
        raise ValidationError(f"unknown payload format {payload_format!r}")
    manifest = {
        "dim": ds.grid.dim,
        "m": ds.m,
        "cells_per_dim": ds.grid.cells_per_dim,
        "trunc_radius": ds.grid.trunc_radius,
        "payload_path": payload_name,
        "payload_format": payload_format,
    }
    mpath = out / f"{stem}.json"
    write_object(mpath, manifest)
    return mpath
