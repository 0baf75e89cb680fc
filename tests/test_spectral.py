import json
import re

import numpy as np
import pytest

from sisfit import spectral
from sisfit.errors import ValidationError
from sisfit.sis import _gramians
from sisfit.multitile import _weights
from sisfit.spectral import (
    PAYLOAD_BINARY,
    PAYLOAD_CSV,
    SpectralDataset,
    SpectralGrid,
    _energy,
    _squares,
    ingest,
    synthesize,
    total_energy,
    write_dataset,
)
from sisfit.table import one_row_per_key

from conftest import random_dataset
from oracles import gramian_naive


def test_grid_layout():
    grid = SpectralGrid(dim=2, cells_per_dim=4, trunc_radius=1)
    assert grid.n_cells == 16
    assert grid.n_translations == 9
    assert grid.cell_volume == 1.0 / 16.0
    assert np.all(grid.cell_centers >= -0.5) and np.all(grid.cell_centers < 0.5)
    rows = [tuple(int(x) for x in k) for k in grid.translations]
    assert rows == sorted(set(rows))
    assert grid.translation_indices((0, 0)) == 4
    with pytest.raises(ValidationError):
        grid.translation_indices((2, 0))
    with pytest.raises(ValidationError):
        grid.translation_indices((0,))


def test_grid_validation():
    with pytest.raises(ValidationError):
        SpectralGrid(dim=0, cells_per_dim=4, trunc_radius=1)
    with pytest.raises(ValidationError):
        SpectralGrid(dim=1, cells_per_dim=5, trunc_radius=1)  # odd
    with pytest.raises(ValidationError):
        SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=0)


@pytest.mark.parametrize("dim, cells", [(64, 2), (32, 4), (20000, 4)])
def test_grid_with_more_cells_than_int64_numbers_is_refused(dim, cells):
    # refused in Python ints, before cell_volume = 1 / cells**dim overflows a float
    with pytest.raises(ValidationError, match=re.escape(f"grid fields 'dim' ({dim}) and 'cells_per_dim' ({cells})")):
        SpectralGrid(dim=dim, cells_per_dim=cells, trunc_radius=1)


def test_grid_of_2_63_cells_is_kept():
    assert SpectralGrid(dim=63, cells_per_dim=2, trunc_radius=1).n_cells == 2**63


def test_manifest_grid_errors_name_the_manifest(tmp_path, rng):
    manifest = write_dataset(random_dataset(rng, dim=1, cells=4, trunc=1, m=1), tmp_path)
    meta = json.loads(manifest.read_text())
    for field, value, message in (("dim", 20000, "grid fields 'dim' (20000)"),
                                  ("cells_per_dim", 5, "cells_per_dim must be a positive even integer")):
        manifest.write_text(json.dumps(dict(meta, **{field: value})))
        with pytest.raises(ValidationError, match=re.escape(f"{manifest}: {message}")):
            ingest(manifest)


def test_synthesize_matches_closed_forms():
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    pts = grid.cell_centers[:, None, 0] + grid.translations[None, :, 0]

    ds = synthesize("gaussian", [1.0], grid)
    assert np.allclose(ds.samples[0], np.exp(-np.pi * pts**2), atol=1e-15)

    ds = synthesize("bspline", [1], grid)
    expect = (np.sin(np.pi * pts) / (np.pi * pts)) ** 2
    assert np.allclose(ds.samples[0], expect, atol=1e-15)

    ds = synthesize("boxcar", [0.5], grid)
    expect = np.sin(2.0 * np.pi * 0.5 * pts) / (np.pi * pts)
    assert np.allclose(ds.samples[0], expect, atol=1e-15)


def test_synthesize_2d_separable():
    grid = SpectralGrid(dim=2, cells_per_dim=4, trunc_radius=1)
    ds = synthesize("bspline", [0], grid)
    pts = grid.cell_centers[:, None, :] + grid.translations[None, :, :]
    expect = np.prod(np.sin(np.pi * pts) / (np.pi * pts), axis=2)
    assert np.allclose(ds.samples[0], expect, atol=1e-15)


@pytest.mark.parametrize("family, message", [("gaussian", "gaussian sigma must be positive"),
                                             ("bspline", "bspline order must be a nonnegative integer"),
                                             ("boxcar", "boxcar halfwidth must be positive")])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_synthesize_refuses_a_non_finite_parameter(family, message, value):
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    with pytest.raises(ValidationError, match=f"^{message}"):
        synthesize(family, [value], grid)


def _old_outside(grid, ks):
    n = grid.trunc_radius
    return ((ks < -n) | (ks > n)).any(axis=-1)


def _old_ravel(grid, ks):
    n = grid.trunc_radius
    return np.ravel_multi_index(tuple(np.moveaxis(ks + n, -1, 0)), (2 * n + 1,) * grid.dim)


@pytest.mark.parametrize("dim, trunc", [(1, 1), (1, 4), (2, 1), (2, 3), (3, 2)])
def test_box_test_and_index_are_the_axis_reductions_they_replace(rng, dim, trunc):
    grid = SpectralGrid(dim=dim, cells_per_dim=2, trunc_radius=trunc)
    i64 = np.iinfo(np.int64)
    ends = np.array([i64.min, i64.min + 1, -trunc - 1, -trunc, 0, trunc, trunc + 1, i64.max], dtype=np.int64)
    for shape in [(0,), (1,), (7,), (3, 5)]:
        size = shape + (dim,)
        ks = np.where(rng.random(size) < 0.3, rng.choice(ends, size=size), rng.integers(-trunc - 2, trunc + 3, size))
        out = grid._outside(ks)
        assert out.shape == shape and np.array_equal(out, _old_outside(grid, ks))
        inbox = np.where(out[..., None], 0, ks)
        flat = grid._ravel(inbox)
        assert flat.dtype == np.int64 and np.array_equal(flat, _old_ravel(grid, inbox))
    ks = grid.translations
    assert not grid._outside(ks).any() and np.array_equal(grid.translation_indices(ks), np.arange(len(ks)))
    assert [int(grid.translation_indices(k)) for k in ks] == list(range(len(ks)))


def test_translation_index_on_a_grid_of_more_translations_than_int64_numbers_is_refused():
    grid = SpectralGrid(dim=40, cells_per_dim=2, trunc_radius=1)  # 3^40 translations
    with pytest.raises(ValidationError, match=f"^grid has {3**40} translations, more than an int64 index numbers$"):
        grid.translation_indices([0] * 40)


@pytest.mark.parametrize("dim, cells, trunc", [(40, 2, 1), (1, 2, 10**20), (1, 2**58, 1)])
def test_synthesize_refuses_a_grid_numpy_cannot_index_before_building_it(dim, cells, trunc):
    grid = SpectralGrid(dim=dim, cells_per_dim=cells, trunc_radius=trunc)
    size = grid.n_cells * grid.n_translations * 8 * max(dim, 2)
    assert size >= 2**63
    message = f"^grid dim {dim}, cells_per_dim {cells} and trunc_radius {trunc} need an array of {size} bytes, "
    with pytest.raises(ValidationError, match=message):
        synthesize("gaussian", [1.0], grid)
    assert "cell_centers" not in vars(grid) and "translations" not in vars(grid)


def test_synthesize_validation():
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    with pytest.raises(ValidationError):
        synthesize("wavelet", [1.0], grid)
    with pytest.raises(ValidationError):
        synthesize("gaussian", [-1.0], grid)
    with pytest.raises(ValidationError):
        synthesize("gaussian", [1.0, 2.0], grid)
    with pytest.raises(ValidationError):
        synthesize("bspline", [1.5], grid)
    with pytest.raises(ValidationError):
        synthesize("boxcar", [0.0], grid)


def test_fiber_values_and_order():
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    ds = synthesize("bspline", [1], grid)
    # cell index 2 has center 1/8; translations in order -1, 0, 1
    assert grid.cell_centers[2, 0] == pytest.approx(0.125, abs=1e-15)
    v = ds.samples[0, 2]
    w = np.array([0.125 - 1.0, 0.125, 0.125 + 1.0])
    expect = (np.sin(np.pi * w) / (np.pi * w)) ** 2
    assert np.allclose(v, expect, atol=1e-15)


def gramian(ds, g, cols=slice(None)):
    """The m x m fiber Gramian of cell g over the translation columns
    ``cols``, as the fits form it (``sis._gramians``)."""
    fs = ds.samples[:, g : g + 1].transpose(1, 0, 2)
    return _gramians(fs, [cols], [ds.m])[ds.m][0, 0]


def test_gramian_single_fiber():
    grid = SpectralGrid(dim=1, cells_per_dim=2, trunc_radius=1)
    samples = np.zeros((1, 2, 3), dtype=complex)
    samples[0, 0] = [1.0, 2.0, 0.0]
    ds = SpectralDataset(grid=grid, samples=samples)
    assert gramian(ds, 0) == np.array([[5.0]])


def test_gramian_duplicated_function(rng):
    ds = random_dataset(rng, m=1)
    doubled = SpectralDataset(
        grid=ds.grid, samples=np.concatenate([ds.samples, ds.samples], axis=0)
    )
    g = gramian(doubled, 3)
    lam = np.linalg.eigvalsh(g)
    assert abs(lam[0]) <= 1e-10 * max(1.0, lam[1])  # rank one


def test_gramian_matches_naive(rng):
    ds = random_dataset(rng, m=2, cells=4)
    for g in range(ds.grid.n_cells):
        f = ds.samples[:, g, :]
        assert np.allclose(gramian(ds, g), gramian_naive(f), atol=1e-12)


def test_gramian_mask_additivity(rng):
    ds = random_dataset(rng, m=3, cells=4, trunc=1)
    full = gramian(ds, 1)
    k = ds.grid.translations[:, 0]
    even = gramian(ds, 1, np.flatnonzero(k % 2 == 0))
    odd = gramian(ds, 1, np.flatnonzero(k % 2 == 1))
    scale = max(1.0, float(np.abs(full).max()))
    assert np.abs(full - (even + odd)).max() <= 1e-12 * scale


def test_energy_report():
    grid = SpectralGrid(dim=1, cells_per_dim=64, trunc_radius=8)
    ds = synthesize("boxcar", [0.5], grid)
    e = total_energy(ds)
    # analytic norm 1; tolerance covers the out-of-grid tail and quadrature
    assert abs(e - 1.0) <= 0.05

    zero = SpectralDataset(grid=grid, samples=np.zeros((1, 64, 17), dtype=complex))
    assert total_energy(zero) == 0.0

    doubled = SpectralDataset(grid=grid, samples=2.0 * ds.samples)
    assert total_energy(doubled) == pytest.approx(4.0 * e, rel=1e-12)


def test_energy_is_gramian_trace(rng):
    ds = random_dataset(rng, m=3, cells=4)
    tr = sum(float(np.trace(gramian(ds, g)).real) for g in range(ds.grid.n_cells))
    assert total_energy(ds) == pytest.approx(tr * ds.grid.cell_volume, rel=1e-12)


def test_dataset_validation():
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    with pytest.raises(ValidationError):
        SpectralDataset(grid=grid, samples=np.zeros((4, 3)))
    with pytest.raises(ValidationError):
        SpectralDataset(grid=grid, samples=np.zeros((1, 3, 3)))
    bad = np.zeros((1, 4, 3), dtype=complex)
    bad[0, 2, 1] = np.inf
    with pytest.raises(ValidationError, match=r"j=0, g=2, k=\(0,\)"):
        SpectralDataset(grid=grid, samples=bad)


@pytest.mark.parametrize("fmt", [PAYLOAD_BINARY, PAYLOAD_CSV])
def test_write_ingest_round_trip(tmp_path, rng, fmt):
    ds = random_dataset(rng, dim=2, cells=4, trunc=1, m=2)
    manifest = write_dataset(ds, tmp_path, payload_format=fmt, stem="rt")
    back = ingest(manifest)
    assert back.grid == ds.grid
    assert np.array_equal(back.samples, ds.samples)


def test_ingest_shape_example(tmp_path, rng):
    ds = random_dataset(rng, dim=1, cells=4, trunc=1, m=1)
    manifest = write_dataset(ds, tmp_path)
    back = ingest(manifest)
    assert back.m == 1 and back.grid.n_cells == 4 and back.grid.n_translations == 3


def test_ingest_rejects_nan(tmp_path):
    grid = SpectralGrid(dim=1, cells_per_dim=2, trunc_radius=1)
    samples = np.ones((1, 2, 3), dtype=complex)
    ds = SpectralDataset(grid=grid, samples=samples)
    manifest = write_dataset(ds, tmp_path)
    raw = np.fromfile(tmp_path / "dataset.bin", dtype="<c16")
    raw[4] = np.nan
    raw.tofile(tmp_path / "dataset.bin")
    # read_c16 refuses it at load: function 0, cell 1, translation index 1 (k = (0,))
    with pytest.raises(ValidationError, match=r"dataset\.bin: non-finite sample at index \(0, 1, 1\)"):
        ingest(manifest)


def test_ingest_manifest_errors(tmp_path, rng):
    ds = random_dataset(rng, dim=1, cells=4, trunc=1, m=1)
    manifest = write_dataset(ds, tmp_path)

    with pytest.raises(ValidationError, match="not found"):
        ingest(tmp_path / "nope.json")

    meta = json.loads(manifest.read_text())

    bad = dict(meta)
    del bad["m"]
    (tmp_path / "m1.json").write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="m1.json: missing field 'm'"):
        ingest(tmp_path / "m1.json")

    bad = dict(meta, cells_per_dim=5)
    (tmp_path / "m2.json").write_text(json.dumps(bad))
    with pytest.raises(ValidationError):
        ingest(tmp_path / "m2.json")

    bad = dict(meta, payload_format="parquet")
    (tmp_path / "m3.json").write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(tmp_path / 'm3.json'))}: unknown payload format "
                                              "'parquet'$"):
        ingest(tmp_path / "m3.json")

    bad = dict(meta, m=0)
    (tmp_path / "m0.json").write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(tmp_path / 'm0.json'))}: field 'm' must be at least "
                                              "1, got 0$"):
        ingest(tmp_path / "m0.json")

    bad = dict(meta, m=2)  # payload now too short
    (tmp_path / "m4.json").write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="expected"):
        ingest(tmp_path / "m4.json")

    (tmp_path / "m5.json").write_text("{not json")
    with pytest.raises(ValidationError, match="JSON"):
        ingest(tmp_path / "m5.json")

    bad = dict(meta, payload_path="gone.bin")
    (tmp_path / "m6.json").write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(tmp_path / 'm6.json'))}: field 'payload_path': "
                                              f"payload not found: {re.escape(str(tmp_path / 'gone.bin'))}$"):
        ingest(tmp_path / "m6.json")


def test_csv_payload_errors(tmp_path, rng):
    ds = random_dataset(rng, dim=1, cells=2, trunc=1, m=1)
    manifest = write_dataset(ds, tmp_path, payload_format=PAYLOAD_CSV, stem="c")
    payload = tmp_path / "c.csv"
    lines = payload.read_text().strip().splitlines()

    payload.write_text("\n".join(lines + [lines[0]]) + "\n")
    with pytest.raises(ValidationError, match="duplicate"):
        ingest(manifest)

    payload.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValidationError, match="expected"):
        ingest(manifest)

    payload.write_text("0,0,0\n")
    with pytest.raises(ValidationError, match="columns"):
        ingest(manifest)

    payload.write_text(lines[0].replace("0,", "x,", 1) + "\n")
    with pytest.raises(ValidationError):
        ingest(manifest)


def test_csv_comments_and_blanks(tmp_path, rng):
    ds = random_dataset(rng, dim=1, cells=2, trunc=1, m=1)
    manifest = write_dataset(ds, tmp_path, payload_format=PAYLOAD_CSV, stem="c")
    payload = tmp_path / "c.csv"
    payload.write_text("# header\n\n" + payload.read_text())
    back = ingest(manifest)
    assert np.array_equal(back.samples, ds.samples)


@pytest.mark.parametrize("dim,cells,trunc,m", [(1, 8, 2, 3), (1, 16, 6, 16), (2, 6, 3, 8), (2, 4, 1, 1)])
def test_the_shared_squares_give_the_energy_and_weights_bit_for_bit(rng, dim, cells, trunc, m):
    # total_energy and multitile._weights reduce _squares, and so does
    # verify, which forms the squares once for both: every reduction keeps
    # the bits of its own s.real**2 + s.imag**2
    ds = random_dataset(rng, dim=dim, cells=cells, trunc=trunc, m=m, scale=1e3)
    s, volume = ds.samples, ds.grid.cell_volume
    own = s.real**2 + s.imag**2
    squares = _squares(ds)
    assert squares.tobytes() == own.tobytes()
    energy = float((own.sum(axis=(1, 2)) * volume).sum())
    assert total_energy(ds) == _energy(squares, volume) == energy
    assert _weights(ds).tobytes() == squares.sum(axis=0).tobytes() == own.sum(axis=0).tobytes()
    assert _weights(ds).sum(axis=1).tobytes() == squares.sum(axis=0).sum(axis=1).tobytes()


def _shuffled(lines, fixed, rng):
    """``lines`` with every line but those at the indices ``fixed`` moved
    by one random permutation."""
    free = [i for i in range(len(lines)) if i not in fixed]
    out = list(lines)
    for i, j in zip(free, rng.permutation(free)):
        out[i] = lines[j]
    return out


def _ingest_lines(manifest, payload, lines):
    payload.write_text("".join(ln + "\n" for ln in lines))
    return ingest(manifest)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_shuffled_payload_reads_back_as_the_ordered_one(tmp_path, rng, monkeypatch, dim):
    # rows in sample order are taken by one compare per key column, any
    # other order by one_row_per_key's general path: the same samples
    ds = random_dataset(rng, dim=dim, cells=4, trunc=2, m=3)
    manifest = write_dataset(ds, tmp_path, payload_format=PAYLOAD_CSV, stem="c")
    payload = tmp_path / "c.csv"
    lines = payload.read_text().splitlines()
    general = []
    monkeypatch.setattr(spectral, "one_row_per_key", lambda *a: general.append(a) or one_row_per_key(*a))
    ordered = ingest(manifest)
    assert general == []
    # the last order swaps two translations of one (function, cell): only
    # the translation columns are out of order
    for order in (lines[::-1], _shuffled(lines, (), rng), lines[1:] + lines[:1], [lines[1], lines[0], *lines[2:]]):
        back = _ingest_lines(manifest, payload, order)
        assert back.samples.tobytes() == ordered.samples.tobytes() == ds.samples.tobytes()
        assert back.samples.flags.c_contiguous and ordered.samples.flags.c_contiguous
    assert len(general) == 4


def _faulty(lines, fault):
    """``lines`` with one ``fault`` at index 5, and the indices of the
    lines it touches: those a shuffle of the other rows keeps in place."""
    lines = list(lines)
    if fault == "duplicate":
        return lines + [lines[5]], {5, len(lines)}
    if fault == "missing":
        return lines[:5] + lines[6:], set()
    fields = lines[5].split(",")
    col, value = {"translation": (2, "3"), "function": (0, "2"), "cell": (1, "-1")}[fault]
    fields[col] = value
    lines[5] = ",".join(fields)
    return lines, {5}


# index 5 of the 12 rows of a d = 1 payload of 2 functions, 2 cells and 3
# translations is (j, g, translation index) (0, 1, 2), at line 6
_PAYLOAD_FAULTS = {
    "duplicate": r"c\.csv:13: duplicate row for \(function, cell, translation index\) \(0, 1, 2\)$",
    "missing": r"^payload .*c\.csv has 11 samples, expected 12$",
    "translation": r"c\.csv:6: translation \(3,\) outside the truncation box \(radius 1\)$",
    "function": r"c\.csv:6: \(function, cell, translation index\) \(2, 1, 2\) outside 0\.\.1 x 0\.\.1 x 0\.\.2$",
    "cell": r"c\.csv:6: \(function, cell, translation index\) \(0, -1, 2\) outside 0\.\.1 x 0\.\.1 x 0\.\.2$",
}


@pytest.mark.parametrize("fault", sorted(_PAYLOAD_FAULTS))
def test_a_payload_error_reads_the_same_in_any_row_order(tmp_path, rng, fault):
    # the in-order check never takes a faulty payload: each fault gets the
    # located message of the general path, whatever the order of the rest
    ds = random_dataset(rng, dim=1, cells=2, trunc=1, m=2)
    manifest = write_dataset(ds, tmp_path, payload_format=PAYLOAD_CSV, stem="c")
    payload = tmp_path / "c.csv"
    lines, fixed = _faulty(payload.read_text().splitlines(), fault)
    messages = []
    for order in (lines, _shuffled(lines, fixed, rng)):
        with pytest.raises(ValidationError, match=_PAYLOAD_FAULTS[fault]) as exc:
            _ingest_lines(manifest, payload, order)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
