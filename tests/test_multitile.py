import json
import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from sisfit.errors import ValidationError
from sisfit.multitile import MultiTileModel, fit_multitile, sweep_multitile
from sisfit.spectral import SpectralDataset, SpectralGrid, synthesize, total_energy
from sisfit.storage import load_model, save_model
from sisfit.verify import verify_model

from conftest import random_dataset
from oracles import one_hot, weight


def test_weight_values(rng):
    grid = SpectralGrid(dim=1, cells_per_dim=2, trunc_radius=1)
    samples = np.zeros((1, 2, 3), dtype=complex)
    samples[0, 0, 1] = 2.0
    ds = SpectralDataset(grid=grid, samples=samples)
    assert weight(ds, 0, (0,)) == 4.0
    assert weight(ds, 1, (0,)) == 0.0

    multi = random_dataset(rng, m=3, cells=4)
    for g in (0, 2):
        for k in (-1, 0, 1):
            ki = int(multi.grid.translation_indices((k,)))
            naive = sum(abs(multi.samples[j, g, ki]) ** 2 for j in range(3))
            assert weight(multi, g, (k,)) == pytest.approx(naive, rel=1e-12)

    with pytest.raises(ValidationError):
        weight(multi, 0, (9,))
    with pytest.raises(ValidationError):
        weight(multi, 99, (0,))


def test_gaussian_golden_choices():
    grid = SpectralGrid(dim=1, cells_per_dim=8, trunc_radius=1)
    ds = synthesize("gaussian", [1.0], grid)
    m1 = fit_multitile(ds, 1, 1)
    assert np.array_equal(m1.chosen, np.zeros((8, 1, 1), dtype=np.int64))
    m3 = fit_multitile(ds, 3, 1)
    expect = np.tile(np.array([[-1], [0], [1]], dtype=np.int64), (8, 1, 1))
    assert np.array_equal(m3.chosen, expect)
    assert m3.error == 0.0  # every in-box translation chosen


def test_constant_weights_tie_break():
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    ds = SpectralDataset(grid=grid, samples=np.ones((1, 4, 3), dtype=complex))
    model = fit_multitile(ds, 1, 1)
    assert np.array_equal(model.chosen, np.full((4, 1, 1), -1, dtype=np.int64))


def test_box_validation(rng):
    ds = random_dataset(rng, trunc=1)
    with pytest.raises(ValidationError):
        fit_multitile(ds, 1, 2)  # box beyond grid truncation
    with pytest.raises(ValidationError):
        fit_multitile(ds, 4, 1)  # box too small for the rank
    with pytest.raises(ValidationError):
        fit_multitile(ds, 1, 0)
    with pytest.raises(ValidationError):
        fit_multitile(ds, 0, 1)


def test_error_and_tail_decomposition(rng):
    ds = random_dataset(rng, m=2, cells=4, trunc=2)
    model = fit_multitile(ds, 2, 1)
    w = (ds.samples.real**2 + ds.samples.imag**2).sum(axis=0)
    kk = ds.grid.translations[:, 0]
    inbox = np.abs(kk) <= 1
    expect_err = 0.0
    for g in range(4):
        total = float(w[g, inbox].sum())
        kept = sum(weight(ds, g, model.chosen[g, s]) for s in range(2))
        expect_err += total - kept
    expect_err *= ds.grid.cell_volume
    expect_tail = float(w[:, ~inbox].sum()) * ds.grid.cell_volume
    assert model.error == pytest.approx(expect_err, rel=1e-10, abs=1e-15)
    assert model.tail == pytest.approx(expect_tail, rel=1e-12)
    # error + tail equals the full projection residual onto one-hot fibers
    spectra = one_hot(model)
    resid = 0.0
    for g in range(4):
        x = ds.samples[:, g, :]
        e = spectra[:, g, :]
        r = x - (x @ e.conj().T) @ e
        resid += float((r.real**2 + r.imag**2).sum())
    resid *= ds.grid.cell_volume
    assert resid == pytest.approx(model.error + model.tail, rel=1e-10)


def test_chosen_sets_match_exhaustive_search(rng):
    for trial in range(5):
        ds = random_dataset(rng, m=2, cells=4, trunc=1)
        for rank in (1, 2, 3):
            model = fit_multitile(ds, rank, 1)
            w = (ds.samples.real**2 + ds.samples.imag**2).sum(axis=0)
            for g in range(4):
                best = max(sum(w[g, list(c)]) for c in combinations(range(3), rank))
                kept = sum(weight(ds, g, model.chosen[g, s]) for s in range(rank))
                assert kept == pytest.approx(best, rel=1e-12, abs=1e-15)


def test_gaussian_layers_are_constant():
    # layer s is the s-th translation of every cell's sorted choice
    grid = SpectralGrid(dim=1, cells_per_dim=8, trunc_radius=1)
    ds = synthesize("gaussian", [1.0], grid)
    chosen = fit_multitile(ds, 3, 1).chosen
    for s, k in enumerate((-1, 0, 1)):
        assert np.all(chosen[:, s] == k)


def test_one_hot_spectra_orthonormal(rng):
    ds = random_dataset(rng, m=2, cells=4, trunc=1)
    model = fit_multitile(ds, 2, 1)
    spectra = one_hot(model)
    eye = np.eye(2, dtype=complex)
    for g in range(4):
        e = spectra[:, g, :]
        assert np.array_equal(e @ e.conj().T, eye)


def test_verify_passes_and_catches_corruption(rng):
    ds = random_dataset(rng, m=2, cells=4, trunc=1)
    model = fit_multitile(ds, 2, 1)
    assert verify_model(model, ds).passed

    dup = MultiTileModel(
        grid=model.grid,
        rank=2,
        box_radius=1,
        chosen=model.chosen.copy(),
        residuals=model.residuals.copy(),
        error=model.error,
        tail=model.tail,
    )
    dup.chosen[1, 1] = dup.chosen[1, 0]
    report = verify_model(dup, ds)
    assert not report.passed
    assert any(v.check == "tile-distinct" and v.cell == 1 for v in report.violations)

    out = MultiTileModel(
        grid=model.grid,
        rank=2,
        box_radius=1,
        chosen=model.chosen.copy(),
        residuals=model.residuals.copy(),
        error=model.error,
        tail=model.tail,
    )
    out.chosen[2, 0] = 5
    report = verify_model(out, ds)
    assert not report.passed
    assert any(v.check == "tile-box" and v.cell == 2 for v in report.violations)


@pytest.mark.parametrize("beyond_grid", [False, True])
def test_verify_refuses_a_box_the_grid_cannot_hold(rng, beyond_grid):
    # a box of radius 2 holds the whole grid, so the fit's picks, residuals
    # and tail are also those of radius 3
    ds = random_dataset(rng, m=2, cells=4, trunc=2)
    model = replace(fit_multitile(ds, 2, 2), box_radius=3)
    if beyond_grid:
        model.chosen[0, 1] = 3  # in the box, outside the grid
    with pytest.raises(ValidationError, match="^box radius 3 exceeds the grid truncation radius 2$"):
        verify_model(model, ds)


def test_series_monotone(rng):
    ds = random_dataset(rng, m=2, cells=4, trunc=2)
    energy = total_energy(ds)
    series = [error + tail for error, tail in sweep_multitile(ds, [2], [1, 2])[0]]
    assert series[1] <= series[0] + 1e-12 * energy
    model = fit_multitile(ds, 2, 1)
    assert series[0] == model.error + model.tail


def test_sweep_refuses_the_first_bad_pair_rank_by_rank(rng):
    ds = random_dataset(rng, dim=1, m=2, cells=4, trunc=3)
    # (2, 5) fails before (9, 1): the pairs go rank by rank, as fits would
    for ranks, boxes in (([2, 9], [1, 5]), ([9, 2], [1, 5]), ([1, 0], [2]), ([2], [1, 2.5])):
        first = None
        for r, b in ((r, b) for r in ranks for b in boxes):
            try:
                fit_multitile(ds, r, b)
            except ValidationError as exc:
                first = str(exc)
                break
        with pytest.raises(ValidationError, match=f"^{re.escape(first)}$"):
            sweep_multitile(ds, ranks, boxes)
    assert sweep_multitile(ds, [3, 1], [3, 1]) == [
        [(m.error, m.tail) for m in (fit_multitile(ds, r, 3), fit_multitile(ds, r, 1))] for r in (3, 1)]


def test_chosen_rows_sorted(rng):
    ds = random_dataset(rng, dim=2, cells=4, trunc=1, m=2)
    model = fit_multitile(ds, 4, 1)
    for g in range(ds.grid.n_cells):
        rows = [tuple(int(x) for x in v) for v in model.chosen[g]]
        assert rows == sorted(rows)


def _per_cell_reference(ds, rank, box):
    """The per-cell loop fit_multitile replaced: heaviest ``rank`` in-box
    translations, ties to the lexicographically smaller one."""
    kk = ds.grid.translations
    inbox = np.flatnonzero(np.abs(kk).max(axis=1) <= box)
    w_in = (ds.samples.real**2 + ds.samples.imag**2).sum(axis=0)[:, inbox]
    chosen = np.zeros((ds.grid.n_cells, rank, ds.grid.dim), dtype=np.int64)
    residuals = np.zeros(ds.grid.n_cells)
    for g in range(ds.grid.n_cells):
        order = np.argsort(-w_in[g], kind="stable")
        picks = kk[inbox][order[:rank]]
        chosen[g] = picks[np.lexsort(picks.T[::-1])]
        residuals[g] = float(np.sum(w_in[g, order[rank:]]))
    return chosen, residuals


@pytest.mark.parametrize("dim,trunc,box", [(1, 4, 3), (2, 2, 1), (2, 3, 2)])
def test_vectorized_fit_equals_per_cell_loop(rng, dim, trunc, box):
    ds = random_dataset(rng, dim=dim, cells=4, trunc=trunc, m=3)
    # rounded samples make many equal weights, so the tie rule decides
    tied = SpectralDataset(grid=ds.grid, samples=np.round(ds.samples))
    for data in (ds, tied):
        for rank in (1, 3, (2 * box + 1) ** dim):
            model = fit_multitile(data, rank, box)
            chosen, residuals = _per_cell_reference(data, rank, box)
            assert np.array_equal(model.chosen, chosen)
            assert model.residuals.tobytes() == residuals.tobytes()


def test_pw_model_on_a_huge_grid_loads_without_building_it(tmp_path, rng):
    ds = random_dataset(rng, m=2, cells=4, trunc=1)
    save_model(fit_multitile(ds, 2, 1), tmp_path)
    path = tmp_path / "model.json"
    meta = json.loads(path.read_text())
    # no pw file is sized by the radius: the model loads, and only the data refuse it
    meta["grid"]["trunc_radius"] = 10**12
    path.write_text(json.dumps(meta))
    model = load_model(tmp_path)
    assert model.grid.trunc_radius == 10**12
    assert model.grid.n_translations == 2 * 10**12 + 1
    with pytest.raises(ValidationError, match=re.escape(f"{path}: grid field 'trunc_radius' is 1000000000000")):
        load_model(tmp_path, ds.grid)
    # the cell count sizes chosen.csv, which then lacks rows
    meta["grid"]["cells_per_dim"] = 10**12
    path.write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match=re.escape(f"{tmp_path / 'chosen.csv'}: expected one row for each cell")):
        load_model(tmp_path)


@pytest.mark.parametrize("dim", [20000, 64])
def test_pw_model_with_a_huge_dim_is_a_model_json_error(tmp_path, rng, dim):
    save_model(fit_multitile(random_dataset(rng, m=2, cells=4, trunc=1), 2, 1), tmp_path)
    path = tmp_path / "model.json"
    meta = json.loads(path.read_text())
    meta["grid"]["dim"] = dim  # 4**dim cells: more than an int64 index numbers, or a float holds
    path.write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match=re.escape(f"{path}: grid fields 'dim' ({dim}) and 'cells_per_dim' (4)")):
        load_model(tmp_path)
