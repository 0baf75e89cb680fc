"""On-disk model layout.

A fitted model is a directory: ``model.json`` with the shape and scalar
results, payloads next to it (generator spectra as little-endian complex
doubles, tables as plain text).  Floats in text files use ``repr``, so
values round-trip exactly and reruns produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .discrete import (
    DiscreteModel,
    _read_sequences,
    parse_partition,
    write_discrete_sequences,
)
from .errors import ValidationError
from .extra import ExtraInvariantModel
from .lattice import format_basis, make_dual_lattice, parse_basis
from .multitile import MultiTileModel
from .sis import FittedModel
from .spectral import SpectralGrid, _json, _Meta
from .table import write_table

MODEL_JSON = "model.json"
GENERATORS_BIN = "generators.bin"
GENERATORS_TXT = "generators.txt"
RESIDUALS_CSV = "residuals.csv"
EIGENCURVES_CSV = "eigencurves.csv"
HOME_COSETS_CSV = "home_cosets.csv"
CHOSEN_CSV = "chosen.csv"
SELECTED_CSV = "selected.csv"
PARTITION_TXT = "partition.txt"


def _grid_json(grid: SpectralGrid) -> dict:
    return {
        "dim": grid.dim,
        "cells_per_dim": grid.cells_per_dim,
        "trunc_radius": grid.trunc_radius,
    }


def _write_json(out: Path, payload: dict) -> None:
    (out / MODEL_JSON).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_spectra(out: Path, spectra: np.ndarray) -> None:
    spectra.astype("<c16").tofile(out / GENERATORS_BIN)


def _read_spectra(path: Path, shape) -> np.ndarray:
    raw = np.fromfile(path, dtype="<c16")
    expected = int(np.prod(shape))
    if raw.size != expected:
        raise ValidationError(f"{path} holds {raw.size} samples, expected {expected}")
    return raw.astype(np.complex128).reshape(shape)


def save_model(model, out_dir) -> Path:
    """Serialize any fitted model into ``out_dir``; returns the model.json
    path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(model, MultiTileModel):
        _save_pw(model, out)
    elif isinstance(model, ExtraInvariantModel):
        _save_extra(model, out)
    elif isinstance(model, FittedModel):
        _save_sis(model, out)
    elif isinstance(model, DiscreteModel):
        _save_discrete(model, out)
    else:
        raise ValidationError(f"cannot serialize object of type {type(model).__name__}")
    return out / MODEL_JSON


def _save_sis(model: FittedModel, out: Path, regime: str = "sis", extra_fields: dict | None = None) -> None:
    payload = {
        "regime": regime,
        "rank": model.rank,
        "error": model.error,
        "grid": _grid_json(model.grid),
        "n_generators": int(model.spectra.shape[0]),
        "payload_generators": GENERATORS_BIN,
    }
    if extra_fields:
        payload.update(extra_fields)
    _write_json(out, payload)
    _write_spectra(out, model.spectra)
    cells = np.arange(model.grid.n_cells)[:, None]
    write_table(out / RESIDUALS_CSV, cells, model.residuals[:, None])
    write_table(out / EIGENCURVES_CSV, cells, model.grid.cell_centers, model.eigenvalues)


def _save_extra(model: ExtraInvariantModel, out: Path) -> None:
    _save_sis(model, out, regime="extra", extra_fields={"dual_lattice": format_basis(model.lattice.basis)})
    g, s = np.indices(model.home_cosets.shape).reshape(2, -1)
    write_table(out / HOME_COSETS_CSV, np.column_stack([g, s, model.home_cosets.ravel(), model.block_ranks.ravel()]))


def _save_pw(model: MultiTileModel, out: Path) -> None:
    payload = {
        "regime": "pw",
        "rank": model.rank,
        "box_radius": model.box_radius,
        "error": model.error,
        "tail": model.tail,
        "grid": _grid_json(model.grid),
        "payload_chosen": CHOSEN_CSV,
    }
    _write_json(out, payload)
    cells = np.arange(model.grid.n_cells)[:, None]
    write_table(out / RESIDUALS_CSV, cells, model.residuals[:, None])
    write_table(out / CHOSEN_CSV, cells, model.chosen.reshape(len(cells), -1))


def _save_discrete(model: DiscreteModel, out: Path) -> None:
    payload = {
        "regime": "discrete",
        "dim": model.dim,
        "rank": model.rank,
        "error": model.error,
        "labels": [str(lab) for lab in model.labels],
        "allocation": [int(a) for a in model.allocation],
        "payload_generators": GENERATORS_TXT,
    }
    _write_json(out, payload)
    write_discrete_sequences(model.support, model.generators, out / GENERATORS_TXT)
    with open(out / SELECTED_CSV, "w") as fh:
        for s, (lam, label, j) in enumerate(model.selected):
            fh.write(f"{s},{label},{j},{float(lam)!r}\n")


def load_model(model_dir):
    """Load a model directory written by ``save_model``.

    Returns the reconstructed model object.  Every file the regime
    writes must be there, and every per-cell table must hold one row per
    cell (``home_cosets.csv``: one per cell and slot).  A missing or
    malformed file raises ValidationError naming the file (and the line,
    for a malformed row).
    """
    mdir = Path(model_dir)
    jpath = mdir / MODEL_JSON
    if not jpath.is_file():
        raise ValidationError(f"model description not found: {jpath}")
    try:
        meta = json.loads(jpath.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{jpath} is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValidationError(f"{jpath}: expected a JSON object")
    meta = _Meta(jpath, meta)
    regime = meta.get("regime", _json(str), None)
    if regime in ("sis", "extra"):
        return _load_spectral(mdir, meta, regime)
    if regime == "pw":
        return _load_pw(mdir, meta)
    if regime == "discrete":
        return _load_discrete(mdir, meta)
    raise ValidationError(f"{jpath}: unknown regime {regime!r}")


def _read_rows(path: Path, convert) -> list:
    """``convert`` applied to the comma-separated fields of every
    non-blank line of ``path``.  A missing file, or a line that does not
    convert, raises ValidationError naming the file and the line."""
    if not path.is_file():
        raise ValidationError(f"model file not found: {path}")
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(convert(line.split(",")))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}:{lineno}: malformed row {line!r}: {exc}") from None
    return rows


def _index(text: str, n: int) -> int:
    i = int(text)
    if not 0 <= i < n:
        raise ValueError(f"index {i} outside 0..{n - 1}")
    return i


def _positive(value) -> int:
    n = _json(int)(value)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return n


def _fields(parts: list, n: int) -> list:
    if len(parts) != n:
        raise ValueError(f"expected {n} columns, got {len(parts)}")
    return parts


def _load_grid(meta: _Meta) -> SpectralGrid:
    def grid(g):
        return SpectralGrid(
            dim=_json(int)(g["dim"]),
            cells_per_dim=_json(int)(g["cells_per_dim"]),
            trunc_radius=_json(int)(g["trunc_radius"]),
        )

    return meta.get("grid", grid)


def _read_table(path: Path, convert, keys: list, what: str) -> np.ndarray:
    """The rows of ``path`` as an array in the order of ``keys``:
    ``convert`` maps a row's fields to (key, value), and the file must
    hold exactly one row for each key (``what`` names them in the
    error)."""
    rows = _read_rows(path, convert)
    if sorted(k for k, _ in rows) != keys:
        raise ValidationError(f"{path}: expected one row for each {what}, got {len(rows)} rows")
    by_key = dict(rows)
    return np.array([by_key[k] for k in keys])


def _read_cell_table(path: Path, ncells: int, width: int, convert) -> np.ndarray:
    """A table of one ``g,<fields>`` row per cell g, ``width`` columns in
    all; ``convert`` maps the fields after the cell index."""
    return _read_table(
        path, lambda p: (_index(_fields(p, width)[0], ncells), convert(p[1:])),
        list(range(ncells)), f"cell 0..{ncells - 1}",
    )


def _load_residuals(mdir: Path, ncells: int) -> np.ndarray:
    return _read_cell_table(mdir / RESIDUALS_CSV, ncells, 2, lambda p: float(p[0]))


def _load_spectral(mdir: Path, meta: _Meta, regime: str):
    grid = _load_grid(meta)
    rank = meta.get("rank", _positive)
    n_gen = meta.get("n_generators", _positive, rank)
    spectra = _read_spectra(mdir / meta.get("payload_generators", _json(str), GENERATORS_BIN),
                            (n_gen, grid.n_cells, grid.n_translations))
    residuals = _load_residuals(mdir, grid.n_cells)
    eigenvalues = _read_cell_table(
        mdir / EIGENCURVES_CSV, grid.n_cells, 1 + grid.dim + rank,
        lambda p: [float(x) for x in p[grid.dim :]],
    ).reshape(grid.n_cells, rank)
    error = meta.get("error", _json(float))
    if regime == "sis":
        return FittedModel(
            grid=grid, rank=rank, eigenvalues=eigenvalues, spectra=spectra,
            residuals=residuals, error=error,
        )
    lat = make_dual_lattice(parse_basis(meta.get("dual_lattice", _json(str))))
    table = _read_table(
        mdir / HOME_COSETS_CSV,
        lambda p: ((_index(_fields(p, 4)[0], grid.n_cells), _index(p[1], rank)),
                   (int(p[2]), int(p[3]))),
        [(g, s) for g in range(grid.n_cells) for s in range(rank)],
        f"(cell, slot) in 0..{grid.n_cells - 1} x 0..{rank - 1}",
    ).reshape(grid.n_cells, rank, 2)
    home, branks = table[..., 0], table[..., 1]
    return ExtraInvariantModel(
        grid=grid, rank=rank, eigenvalues=eigenvalues, spectra=spectra,
        residuals=residuals, error=error, lattice=lat, home_cosets=home,
        block_ranks=branks,
    )


def _load_pw(mdir: Path, meta: _Meta) -> MultiTileModel:
    grid = _load_grid(meta)
    rank = meta.get("rank", _positive)
    chosen = _read_cell_table(
        mdir / meta.get("payload_chosen", _json(str), CHOSEN_CSV), grid.n_cells, 1 + rank * grid.dim,
        lambda p: np.array([int(x) for x in p], dtype=np.int64),
    ).reshape(grid.n_cells, rank, grid.dim)
    return MultiTileModel(
        grid=grid,
        rank=rank,
        box_radius=meta.get("box_radius", _positive),
        chosen=chosen,
        residuals=_load_residuals(mdir, grid.n_cells),
        error=meta.get("error", _json(float)),
        tail=meta.get("tail", _json(float)),
    )


def _load_discrete(mdir: Path, meta: _Meta):
    rank = meta.get("rank", _positive)
    dim = meta.get("dim", _positive)
    # the text format drops exact zeros: a generator without rows is the
    # zero sequence, and a model without any keeps one point at the origin
    gen_ds = _read_sequences(mdir / meta.get("payload_generators", _json(str), GENERATORS_TXT), dim, rank)
    selected = _read_rows(mdir / SELECTED_CSV, lambda p: (float(_fields(p, 4)[3]), p[1], int(p[2])))
    return DiscreteModel(
        dim=dim,
        rank=rank,
        support=gen_ds.support,
        generators=gen_ds.values,
        selected=selected,
        allocation=meta.get("allocation", lambda a: [_json(int)(x) for x in _json(list)(a)], []),
        labels=meta.get("labels", lambda a: [_json(str)(x) for x in _json(list)(a)], []),
        error=meta.get("error", _json(float)),
    )


def load_partition_file(mdir: Path, dim: int):
    return parse_partition(Path(mdir) / PARTITION_TXT, dim)
