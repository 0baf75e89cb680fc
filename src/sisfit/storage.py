"""On-disk model layout.

A fitted model is a directory: ``model.json`` with the shape and scalar
results, payloads next to it under fixed names (generator spectra as
little-endian complex doubles, tables as plain text).  Floats in text
files use ``repr``, so values round-trip exactly and reruns produce
byte-identical files.
"""

from __future__ import annotations

from array import array
from pathlib import Path

import numpy as np

from .discrete import DiscreteModel, _read_sequences, write_discrete_sequences
from .errors import ValidationError
from .extra import ExtraInvariantModel
from .lattice import format_basis, make_dual_lattice, parse_basis
from .multitile import MultiTileModel, _check_box
from .sis import FittedModel
from .spectral import SpectralGrid, _check_grid, _check_payload_holds_grid
from .table import (_existing, _json, _Meta, create, one_row_per_key, parse_row, read_c16, read_object, read_table,
                    reject, scan, split_row, write_c16, write_object, write_table)

# the regimes, one model layout each
REGIMES = ("sis", "extra", "pw", "discrete")

MODEL_JSON = "model.json"
GENERATORS_BIN = "generators.bin"
GENERATORS_TXT = "generators.txt"
RESIDUALS_CSV = "residuals.csv"
EIGENCURVES_CSV = "eigencurves.csv"
HOME_COSETS_CSV = "home_cosets.csv"
CHOSEN_CSV = "chosen.csv"
SELECTED_CSV = "selected.csv"
PARTITION_TXT = "partition.txt"
_GRID_KEYS = ("dim", "cells_per_dim", "trunc_radius")


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
        "grid": {key: getattr(model.grid, key) for key in _GRID_KEYS},
        "n_generators": model.rank,
        "payload_generators": GENERATORS_BIN,
    }
    if extra_fields:
        payload.update(extra_fields)
    write_object(out / MODEL_JSON, payload)
    write_c16(out / GENERATORS_BIN, model.spectra)
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
        "grid": {key: getattr(model.grid, key) for key in _GRID_KEYS},
        "payload_chosen": CHOSEN_CSV,
    }
    write_object(out / MODEL_JSON, payload)
    cells = np.arange(model.grid.n_cells)[:, None]
    write_table(out / RESIDUALS_CSV, cells, model.residuals[:, None])
    write_table(out / CHOSEN_CSV, cells, model.chosen.reshape(len(cells), -1))


def _save_discrete(model: DiscreteModel, out: Path) -> None:
    # selected.csv is UTF-8 text, comma-separated, one record a line, a label by its text
    texts = {}
    for label in model.labels:
        text = str(label)
        if "," in text or "\n" in text or "\r" in text:
            raise ValidationError(f"partition label {text!r} holds a comma or a line break, "
                                  f"which {SELECTED_CSV} cannot store")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"partition label {text!r} is not encodable as UTF-8, "
                                  f"which {SELECTED_CSV} cannot store") from None
        if text in texts:
            raise ValidationError(f"partition labels {texts[text]!r} and {label!r} both read {text!r}, "
                                  f"which {SELECTED_CSV} cannot tell apart")
        texts[text] = label
    payload = {
        "regime": "discrete",
        "dim": model.dim,
        "rank": model.rank,
        "error": model.error,
        "labels": list(texts),
        "allocation": [int(a) for a in model.allocation],
        "payload_generators": GENERATORS_TXT,
    }
    write_object(out / MODEL_JSON, payload)
    write_discrete_sequences(model.support, model.generators, out / GENERATORS_TXT)
    with create(out / SELECTED_CSV) as fh:
        for s, (lam, label, j) in enumerate(model.selected):
            fh.write(f"{s},{label},{j},{float(lam)!r}\n")


def _regime(meta: _Meta) -> str:
    regime = meta.get("regime", _json(str))
    if regime not in REGIMES:
        raise ValidationError(f"{meta.path}: unknown regime {regime!r}")
    return regime


def load_model(model_dir, grid: SpectralGrid | None = None):
    """Load a model directory written by ``save_model``.

    Returns the reconstructed model object.  Every file the regime
    writes must be there, and every keyed table must hold one row per key:
    per cell, per cell and slot (``home_cosets.csv``) or per slot
    (``selected.csv``).  A missing or malformed file raises
    ValidationError naming the file (and the line, for a malformed row).
    ``grid``, when given, is the grid of the data the model is checked
    against; a model on a grid must be on that one (see ``_load_grid``).
    ``model_dir`` may be its ``model.json`` already read (``read_object``).
    """
    meta = model_dir if isinstance(model_dir, _Meta) else read_object(Path(model_dir) / MODEL_JSON)
    mdir, regime = meta.path.parent, _regime(meta)
    if regime == "discrete":
        return _load_discrete(mdir, meta)
    if regime == "pw":
        return _load_pw(mdir, meta, grid)
    return _load_spectral(mdir, meta, regime, grid)


def _fixed(meta: _Meta, key: str, kind, value) -> None:
    """Refuse a field that holds other than the one ``value`` written."""
    got = meta.get(key, _json(kind))
    if got != value:
        raise ValidationError(f"{meta.path}: field {key!r} must be {value!r}, got {got!r}")


def _positive(value) -> int:
    n = _json(int)(value)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    return n


def _load_grid(meta: _Meta, data: SpectralGrid | None, payload: Path | None = None,
               per_sample: int = 0) -> SpectralGrid:
    """The model's grid, checked in Python ints before any array sized by
    it is built: field by field against the ``data`` grid, when given
    (which is then the grid returned), else by ``_check_grid``, and
    against the size of ``payload``, when given, which stores
    ``per_sample`` bytes for every cell and translation."""
    dim, cells, trunc = meta.get("grid", lambda g: [_json(int)(g[key]) for key in _GRID_KEYS])
    for key, value in zip(_GRID_KEYS, (dim, cells, trunc)):
        if data is not None and value != getattr(data, key):
            raise ValidationError(f"{meta.path}: grid field {key!r} is {value}, but the data's is "
                                  f"{getattr(data, key)}")
    if data is None:
        _check_grid(dim, cells, trunc, meta.path)
    if payload is not None:
        _check_payload_holds_grid(meta.path, dim, cells, trunc, payload, per_sample)
    return data if data is not None else SpectralGrid(dim=dim, cells_per_dim=cells, trunc_radius=trunc)


def _cell_rows(path: Path, ncells: int, floats: int, dim: int = 0):
    """The line numbers, the integer columns after the cell index and the
    ``floats`` float columns of a table with one ``g,...`` row per cell g,
    in cell order."""
    lines, ints, vals = read_table(path, 1, floats, dim)
    rows = one_row_per_key(path, lines, (ints[:, 0],), (ncells,), "cell")
    return lines[rows], ints[rows, 1:], vals[rows]


def _load_spectral(mdir: Path, meta: _Meta, regime: str, data: SpectralGrid | None):
    rank = meta.get("rank", _positive)
    _fixed(meta, "n_generators", int, rank)
    _fixed(meta, "payload_generators", str, GENERATORS_BIN)
    payload = _existing(mdir / GENERATORS_BIN)
    grid = _load_grid(meta, data, payload, 16 * rank)
    spectra = read_c16(payload, (rank, grid.n_cells, grid.n_translations))
    residuals = _cell_rows(mdir / RESIDUALS_CSV, grid.n_cells, 1)[2][:, 0]
    path = mdir / EIGENCURVES_CSV
    lines, _, curves = _cell_rows(path, grid.n_cells, grid.dim + rank)
    centers = curves[:, : grid.dim]
    reject((centers != grid.cell_centers).any(axis=1), lambda g: f"{path}:{lines[g]}",
           lambda g: f"cell {g} center {tuple(centers[g].tolist())} is not the grid's "
                     f"{tuple(grid.cell_centers[g].tolist())}")
    eigenvalues = curves[:, grid.dim :]
    error = meta.get("error", _json(float))
    if regime == "sis":
        return FittedModel(
            grid=grid, rank=rank, eigenvalues=eigenvalues, spectra=spectra,
            residuals=residuals, error=error,
        )
    basis = meta.get("dual_lattice", _json(str))
    try:
        lat = make_dual_lattice(parse_basis(basis))
    except ValidationError as exc:
        raise ValidationError(f"{meta.path}: field 'dual_lattice': {exc}") from None
    path = mdir / HOME_COSETS_CSV
    lines, ints, _ = read_table(path, 4, 0)
    rows = one_row_per_key(path, lines, (ints[:, 0], ints[:, 1]), (grid.n_cells, rank), "(cell, slot)")
    table = ints[rows, 2:].reshape(grid.n_cells, rank, 2)
    return ExtraInvariantModel(
        grid=grid, rank=rank, eigenvalues=eigenvalues, spectra=spectra,
        residuals=residuals, error=error, lattice=lat, home_cosets=table[..., 0],
        block_ranks=table[..., 1],
    )


def _load_pw(mdir: Path, meta: _Meta, data: SpectralGrid | None) -> MultiTileModel:
    # no pw file is sized by the truncation radius: only the data bound it
    grid = _load_grid(meta, data)
    rank = meta.get("rank", _positive)
    box = meta.get("box_radius", _positive)
    try:
        _check_box(grid, rank, box)
    except ValidationError as exc:
        raise ValidationError(f"{meta.path}: field 'box_radius': {exc}") from None
    _fixed(meta, "payload_chosen", str, CHOSEN_CSV)
    chosen = _cell_rows(mdir / CHOSEN_CSV, grid.n_cells, 0, rank * grid.dim)[1].reshape(grid.n_cells, rank, grid.dim)
    return MultiTileModel(
        grid=grid,
        rank=rank,
        box_radius=box,
        chosen=chosen,
        residuals=_cell_rows(mdir / RESIDUALS_CSV, grid.n_cells, 1)[2][:, 0],
        error=meta.get("error", _json(float)),
        tail=meta.get("tail", _json(float)),
    )


def _load_selected(path: Path, rank: int, labels: list):
    """The ``slot,label,in-block rank,eigenvalue`` rows of ``selected.csv``,
    slots 0..n-1 with n <= ``rank``, as the (1, rank) eigenvalue, home
    block and in-block rank arrays of ``DiscreteModel``; slots n.. are
    0.0, -1 and -1, and a label must be one of ``labels``.  ``split_row``
    and ``parse_row`` read each line; slot and in-block rank are indices."""
    block = {lab: b for b, lab in enumerate(labels)}
    lines, ints, lams = array("q"), array("q"), array("d")  # ints: slot, home block, in-block rank
    for lineno, text in scan(path):
        slot, label, j, lam = split_row(path, lineno, text, 4)
        if len(lines) == rank:
            raise ValidationError(f"{path}:{lineno}: more rows than the model's rank {rank}")
        (slot, j), (lam,) = parse_row(path, lineno, (slot, j), (lam,), 2)
        if label not in block:
            raise ValidationError(f"{path}:{lineno}: label {label!r} is not one of {MODEL_JSON}'s labels")
        ints.extend([slot, block[label], j])
        lams.append(lam)
        lines.append(lineno)
    lines, ints, lams = np.frombuffer(lines, dtype=np.int64), np.frombuffer(ints, dtype=np.int64), np.frombuffer(lams)
    rows = one_row_per_key(path, lines, (ints[::3],), (len(lines),), "slot")
    table, eigenvalues = np.full((rank, 3), -1, dtype=np.int64), np.zeros((1, rank))
    table[: len(lines)], eigenvalues[0, : len(lines)] = ints.reshape(-1, 3)[rows], lams[rows]
    return eigenvalues, table[None, :, 1], table[None, :, 2]


def _load_discrete(mdir: Path, meta: _Meta):
    rank = meta.get("rank", _positive)
    dim = meta.get("dim", _positive)
    # the text format drops exact zeros: a generator without rows is the
    # zero sequence, and a model without any keeps one point at the origin
    _fixed(meta, "payload_generators", str, GENERATORS_TXT)
    gen_ds = _read_sequences(mdir / GENERATORS_TXT, dim, rank)
    labels = meta.get("labels", lambda a: [_json(str)(x) for x in _json(list)(a)])
    eigenvalues, home, ranks = _load_selected(mdir / SELECTED_CSV, rank, labels)
    return DiscreteModel(dim=dim, rank=rank, support=gen_ds.support, generators=gen_ds.values, eigenvalues=eigenvalues,
                         home_blocks=home, block_ranks=ranks, labels=labels, error=meta.get("error", _json(float)),
                         allocation=meta.get("allocation", lambda a: [_json(int)(x) for x in _json(list)(a)]))
