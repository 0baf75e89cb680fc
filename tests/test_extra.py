from itertools import combinations

import numpy as np
import pytest

from sisfit.discrete import DiscreteDataset, DiscretePartition, fit_discrete
from sisfit.errors import ValidationError
from sisfit.extra import ExtraInvariantModel, _coset_blocks, error_extra, fit_extra_invariant
from sisfit.lattice import coset_of, make_dual_lattice
from sisfit.sis import FittedModel, _gramians, error_sis, fit_sis, project_onto
from sisfit.spectral import SpectralDataset, SpectralGrid, synthesize, total_energy
from sisfit.verify import verify_extra_invariance, verify_model

import oracles
from conftest import random_dataset


def indicator_dataset():
    """f-hat equal to 1 on [-1, 1) and 0 outside, sampled on G=8, N_tr=1."""
    grid = SpectralGrid(dim=1, cells_per_dim=8, trunc_radius=1)
    samples = np.zeros((1, 8, 3), dtype=complex)
    for g in range(8):
        for ki, k in enumerate(grid.translations[:, 0]):
            xi = grid.cell_centers[g, 0] + k
            if -1.0 <= xi < 1.0:
                samples[0, g, ki] = 1.0
    return SpectralDataset(grid=grid, samples=samples)


def test_split_parity_masks(rng):
    ds = random_dataset(rng, m=2, trunc=1)
    even, odd = _coset_blocks(ds, make_dual_lattice([[2]]))
    # translations are -1, 0, 1: coset 0 keeps k=0; coset 1 keeps k=+-1
    assert even.tolist() == [1] and odd.tolist() == [0, 2]


def test_split_pieces_are_orthogonal(rng):
    ds = random_dataset(rng, m=3, trunc=2)
    blocks = _coset_blocks(ds, make_dual_lattice([[3]]))
    # the coset blocks partition the translation columns
    assert sorted(np.concatenate(blocks).tolist()) == list(range(ds.grid.n_translations))
    # Gramian additivity across the coset blocks, on the m x m side
    fs = ds.samples.transpose(1, 0, 2)
    total = _gramians(fs, [slice(None)], [ds.m])[ds.m][:, 0]
    acc = _gramians(fs, blocks, [ds.m] * len(blocks))[ds.m].sum(axis=1)
    assert np.abs(total - acc).max() <= 1e-12 * max(1.0, float(np.abs(total).max()))


def test_split_dimension_mismatch(rng):
    ds = random_dataset(rng, dim=1)
    with pytest.raises(ValidationError, match="dimension"):
        fit_extra_invariant(ds, make_dual_lattice(np.diag([2, 1])), 1)


def test_identity_lattice_reduces_to_plain_fit(rng):
    ds = random_dataset(rng, m=3, cells=6)
    lat = make_dual_lattice([[1]])
    plain = fit_sis(ds, 2)
    constrained = fit_extra_invariant(ds, lat, 2)
    assert abs(plain.error - constrained.error) <= 1e-12 * (1.0 + total_energy(ds))
    for g in range(ds.grid.n_cells):
        p1 = plain.spectra[:, g, :].conj().T @ plain.spectra[:, g, :]
        p2 = constrained.spectra[:, g, :].conj().T @ constrained.spectra[:, g, :]
        assert np.abs(p1 - p2).max() <= 1e-8


def test_indicator_golden_case():
    ds = indicator_dataset()
    lat = make_dual_lattice([[2]])
    assert error_extra(ds, lat, 1) == pytest.approx(1.0, abs=1e-9)
    assert error_extra(ds, lat, 2) == pytest.approx(0.0, abs=1e-10)
    model = fit_extra_invariant(ds, lat, 1)
    assert model.error == pytest.approx(1.0, abs=1e-9)
    # tie at every cell (both blocks carry weight 1): smaller coset label wins
    assert np.all(model.home_cosets == 0)


def test_half_integer_shifts_golden_case():
    # the jitter setting of the abstract: f(. - j/2), j = 0..3, of one
    # gaussian.  At each cell every coset of 2Z carries the same fiber up
    # to phases, so two generators (one per coset) reproduce the data and
    # one generator leaves the lighter coset's energy
    grid = SpectralGrid(dim=1, cells_per_dim=16, trunc_radius=3)
    xi = grid.cell_centers[:, None, 0] + grid.translations[None, :, 0]
    f = synthesize("gaussian", 1.0, grid).samples[0]
    ds = SpectralDataset(grid=grid, samples=np.stack([f * np.exp(-1j * np.pi * j * xi) for j in range(4)]))
    energy = total_energy(ds)
    lat = make_dual_lattice([[2]])
    labels = coset_of(grid.translations, lat)
    weight = (np.abs(ds.samples) ** 2).sum(axis=0)
    lighter = np.minimum(weight[:, labels == 0].sum(axis=1), weight[:, labels == 1].sum(axis=1))
    rank1, rank2 = fit_extra_invariant(ds, lat, 1), fit_extra_invariant(ds, lat, 2)
    assert rank2.error <= 1e-12 * energy
    assert abs(rank1.error - float(lighter.sum()) * grid.cell_volume) <= 1e-9 * energy
    assert rank1.error > 0.05 * energy
    for model in (rank1, rank2):
        report = verify_model(model, ds)
        assert report.passed, str(report)


def test_error_extra_conventions(rng):
    ds = random_dataset(rng, m=2, trunc=1)
    lat = make_dual_lattice([[2]])
    energy = total_energy(ds)
    assert error_extra(ds, lat, 4) <= 1e-12 * energy  # rank >= m * cosets
    assert error_extra(ds, lat, 0) == pytest.approx(energy, rel=1e-12)
    model = fit_extra_invariant(ds, lat, 2)
    assert error_extra(ds, lat, 2) == model.error


def test_class_nesting_against_plain_fit(rng):
    for trial in range(5):
        ds = random_dataset(rng, m=3, cells=4, trunc=1)
        lat = make_dual_lattice([[2]])
        energy = total_energy(ds)
        for rank in (1, 2, 3):
            assert error_extra(ds, lat, rank) >= error_sis(ds, rank) - 1e-12 * energy


def test_generators_supported_on_home_coset(rng):
    ds = random_dataset(rng, m=3, trunc=2)
    lat = make_dual_lattice([[2]])
    model = fit_extra_invariant(ds, lat, 3)
    labels = np.array([coset_of(k, lat) for k in ds.grid.translations])
    for g in range(ds.grid.n_cells):
        for s in range(model.rank):
            home = model.home_cosets[g, s]
            assert home in (0, 1)
            off = model.spectra[s, g, labels != home]
            assert np.all(off == 0)  # exact zeros off the home coset


def test_selection_is_globally_optimal(rng):
    ds = random_dataset(rng, m=2, cells=4, trunc=1)
    lat = make_dual_lattice([[2]])
    rank = 2
    model = fit_extra_invariant(ds, lat, rank)
    labels = np.array([coset_of(k, lat) for k in ds.grid.translations])
    for g in range(ds.grid.n_cells):
        lams = []
        for sigma in range(lat.index):
            f = ds.samples[:, g, labels == sigma]
            gm = f @ f.conj().T
            lams.extend(np.linalg.eigvalsh((gm + gm.conj().T) / 2.0).tolist())
        total = sum(lams)
        best_kept = max(sum(c) for c in combinations(lams, rank))
        assert model.residuals[g] == pytest.approx(total - best_kept, rel=1e-9, abs=1e-12)


def test_block_rank_prefix_property(rng):
    ds = random_dataset(rng, m=3, trunc=1)
    lat = make_dual_lattice([[2]])
    model = fit_extra_invariant(ds, lat, 4)
    for g in range(ds.grid.n_cells):
        per_block = {}
        for s in range(model.rank):
            sigma = int(model.home_cosets[g, s])
            if sigma < 0:
                continue
            per_block.setdefault(sigma, []).append(int(model.block_ranks[g, s]))
        for ranks in per_block.values():
            assert sorted(ranks) == list(range(len(ranks)))


def test_parseval_across_cosets(rng):
    ds = random_dataset(rng, m=3, trunc=1)
    lat = make_dual_lattice([[2]])
    model = fit_extra_invariant(ds, lat, 4)
    for g in range(ds.grid.n_cells):
        e = model.spectra[:, g, :]
        nz = np.flatnonzero(np.any(e != 0, axis=1))
        gram = e[nz] @ e[nz].conj().T
        assert np.abs(gram - np.eye(nz.size)).max() <= 1e-8


def test_verify_passes_on_fit_output(rng):
    ds = random_dataset(rng, m=2, trunc=1)
    lat = make_dual_lattice([[2]])
    model = fit_extra_invariant(ds, lat, 2)
    report = verify_extra_invariance(model, lat)
    assert report.passed
    assert report.n_violations == 0


def test_verify_flags_coset_mixing():
    ds = indicator_dataset()
    lat = make_dual_lattice([[2]])
    plain = fit_sis(ds, 1)  # its generator mixes k=0 with k=+-1
    report = verify_extra_invariance(plain, lat)
    assert not report.passed
    assert report.n_violations > 0
    assert any(v.check == "coset-support" for v in report.violations)
    assert all(0 <= v.cell < ds.grid.n_cells for v in report.violations)


def test_verify_flags_corrupted_model(rng):
    ds = random_dataset(rng, m=2, trunc=1)
    lat = make_dual_lattice([[2]])
    model = fit_extra_invariant(ds, lat, 2)
    s, g = 0, 1
    home = int(model.home_cosets[g, s])
    labels = np.array([coset_of(k, lat) for k in ds.grid.translations])
    wrong = int(np.flatnonzero(labels != home)[0])
    model.spectra[s, g, wrong] = 0.5
    report = verify_extra_invariance(model, lat)
    assert not report.passed
    assert any(v.cell == g and v.generator == s for v in report.violations)


def test_verify_zero_model_passes():
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    model = FittedModel(
        grid=grid,
        rank=1,
        eigenvalues=np.zeros((4, 1)),
        spectra=np.zeros((1, 4, 3), dtype=complex),
        residuals=np.zeros(4),
        error=0.0,
    )
    report = verify_extra_invariance(model, make_dual_lattice([[2]]))
    assert report.passed


def test_verify_shape_mismatch():
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    model = FittedModel(
        grid=grid,
        rank=1,
        eigenvalues=np.zeros((4, 1)),
        spectra=np.zeros((1, 4, 5), dtype=complex),
        residuals=np.zeros(4),
        error=0.0,
    )
    ds = SpectralDataset(grid=grid, samples=np.ones((1, 4, 3), dtype=complex))
    # every path that reads the generator array refuses it, not NumPy's matmul
    for check in (lambda: verify_extra_invariance(model, make_dual_lattice([[2]])),
                  lambda: verify_model(model, ds), lambda: project_onto(model, ds)):
        with pytest.raises(ValidationError, match="generator array shape"):
            check()


def test_home_coset_table_must_match_the_generators():
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    lat = make_dual_lattice([[2]])
    # two generators, but a home-coset table of one slot per cell
    model = ExtraInvariantModel(grid=grid, rank=1, eigenvalues=np.zeros((4, 1)),
                                spectra=np.zeros((2, 4, 3), dtype=complex), residuals=np.zeros(4), error=0.0,
                                lattice=lat, home_cosets=np.zeros((4, 1), dtype=int),
                                block_ranks=np.zeros((4, 1), dtype=int))
    with pytest.raises(ValidationError, match="home coset table shape"):
        verify_extra_invariance(model, lat)


def _plain_fibers(rng, cells, n_translations, labels, n_gen=3):
    """Generator fibers (n_gen, cells, translations) of a plain model that
    draws each cell from up to three of the kinds commented below."""
    spectra = np.zeros((n_gen, cells, n_translations), dtype=complex)
    kinds = rng.choice(6, size=rng.integers(1, 4), replace=False)
    on, off = labels == labels[0], labels == (labels[0] + 1) % (labels.max() + 1)
    for g in range(cells):
        kind = rng.choice(kinds)
        rows = rng.standard_normal((n_gen, n_translations)) + 1j * rng.standard_normal((n_gen, n_translations))
        if kind == 0:  # orthonormal, coset-mixed
            rows = np.linalg.qr(rows.T)[0].T
        elif kind == 1:  # a mixed fiber whose cuts lie in the span, or 1e-4 off it
            rows[0] = np.where(on, rows[2] + rng.choice([0.0, 1e-4]) * rows[0], 0.0)
            rows[1] = 0.0
        elif kind == 2:  # rank-deficient: a fiber and its double
            rows[1] = 2.0 * rows[0]
        elif kind == 3:  # every fiber on one coset
            rows = np.where(labels == rng.integers(labels.max() + 1, size=n_gen)[:, None], rows, 0.0)
        elif kind == 4:  # nearly rank-deficient: the 1e-5 cut is in the span above lstsq's cutoff
            rows[0] = np.where(on, rows[0], 0.0)
            rows[1] = rows[0] + 1e-5 * np.where(off, rows[1], 0.0)
            rows[2] = 0.0
        else:
            rows[:] = 0.0
        spectra[:, g] = rows
    return spectra


@pytest.mark.parametrize("dim,trunc,basis", [(1, 1, [[2]]), (1, 3, [[2]]), (1, 3, [[3]]), (2, 1, [[1, 1], [-1, 1]])])
def test_coset_checks_agree_with_per_cell_lstsq(rng, dim, trunc, basis):
    lat = make_dual_lattice(basis)
    # few enough cells that no check reaches MAX_REPORTED_VIOLATIONS
    grid = SpectralGrid(dim=dim, cells_per_dim=6 if dim == 1 else 2, trunc_radius=trunc)
    labels = coset_of(grid.translations, lat)
    verdicts = set()
    for _ in range(40):
        spectra = _plain_fibers(rng, grid.n_cells, grid.n_translations, labels)
        model = FittedModel(grid=grid, rank=3, eigenvalues=np.zeros((grid.n_cells, 3)), spectra=spectra,
                            residuals=np.zeros(grid.n_cells), error=0.0)
        report = verify_extra_invariance(model, lat)
        want = oracles.coset_violations(spectra, labels, lat.index)
        assert report.n_violations == len(report.violations)
        assert sorted((v.check, v.cell, v.generator) for v in report.violations) == sorted(want)
        assert report.passed == (not want)
        verdicts.add(report.passed)
    assert verdicts == {True, False}


def test_corrupt_generators_are_located(rng):
    ds = random_dataset(rng, m=3, cells=8, trunc=2)
    lat = make_dual_lattice([[2]])
    labels = coset_of(ds.grid.translations, lat)
    for model in (fit_sis(ds, 2), fit_extra_invariant(ds, lat, 2)):
        home = getattr(model, "home_cosets", np.zeros((8, 2), dtype=int))
        # (cell, generator) pairs in the order coset-support reports them: generator, then cell
        pairs = [(5, 0), (2, 1)]
        for g, s in pairs:
            model.spectra[s, g, np.flatnonzero(labels != home[g, s])[0]] += 0.5
        report = verify_model(model, ds)
        assert [(v.cell, v.generator) for v in report.violations_of("parseval")] == [(2, None), (5, None)]
        if isinstance(model, ExtraInvariantModel):
            assert [(v.cell, v.generator) for v in report.violations_of("coset-support")] == pairs


def test_project_onto_agrees_with_per_cell_reference(rng):
    ds = random_dataset(rng, dim=2, cells=4, trunc=1, m=5)
    energy = total_energy(ds)
    for model in (fit_sis(ds, 3), fit_extra_invariant(ds, make_dual_lattice([[1, 1], [-1, 1]]), 4)):
        proj, resid, cell_resid = project_onto(model, ds)
        want, want_resid, want_cell = oracles.project_per_cell(ds.samples, model.spectra)
        tol = 1e-12 * (1.0 + energy)
        assert np.abs(proj.samples - want).max() <= tol
        assert np.abs(resid - want_resid * ds.grid.cell_volume).max() <= tol
        assert np.abs(cell_resid - want_cell).max() <= tol


def test_two_dimensional_lattice(rng):
    ds = random_dataset(rng, dim=2, cells=4, trunc=1, m=2)
    lat = make_dual_lattice([[1, 1], [-1, 1]])
    model = fit_extra_invariant(ds, lat, 2)
    assert error_extra(ds, lat, 2) == model.error
    report = verify_extra_invariance(model, lat)
    assert report.passed
    energy = total_energy(ds)
    assert model.error >= error_sis(ds, 2) - 1e-12 * energy


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize(
    "dim,trunc,basis",
    [(1, 3, [[2]]), (1, 4, [[3]]), (2, 2, [[1, 1], [-1, 1]]), (2, 2, [[2, 0], [0, 2]])],
)
def test_discrete_fit_of_one_cell_equals_extra_fit(rng, dim, trunc, basis):
    ds = random_dataset(rng, dim=dim, cells=4, trunc=trunc, m=5)
    # a repeated function makes ties and numerically zero eigenvalues
    ds = SpectralDataset(grid=ds.grid, samples=np.concatenate([ds.samples, ds.samples[:1]]))
    lat = make_dual_lattice(basis)
    kk = ds.grid.translations
    part = DiscretePartition.from_mapping(dim, {tuple(k): coset_of(k, lat) for k in kk})
    rank = 4
    em = fit_extra_invariant(ds, lat, rank)
    for g in range(ds.grid.n_cells):
        cell = DiscreteDataset(dim=dim, support=kk, values=ds.samples[:, g, :].copy())
        dm = fit_discrete(cell, part, rank)
        assert _bits(dm.eigenvalues) == _bits(em.eigenvalues[g : g + 1])
        assert _bits(dm.home_blocks) == _bits(em.home_cosets[g : g + 1])
        assert _bits(dm.block_ranks) == _bits(em.block_ranks[g : g + 1])
        assert _bits(np.float64(dm.error)) == _bits(em.residuals[g])
        assert _bits(dm.generators) == _bits(em.spectra[:, g, :])


@pytest.mark.parametrize("dim,trunc,m", [(1, 6, 16), (2, 2, 5)])
def test_identity_lattice_fit_equals_plain_fit_bitwise(rng, dim, trunc, m):
    ds = random_dataset(rng, dim=dim, cells=4, trunc=trunc, m=m)
    lat = make_dual_lattice(np.eye(dim, dtype=np.int64))
    plain = fit_sis(ds, 3)
    constrained = fit_extra_invariant(ds, lat, 3)
    for name in ("eigenvalues", "spectra", "residuals", "error"):
        assert _bits(getattr(plain, name)) == _bits(getattr(constrained, name)), name
    assert np.all(constrained.home_cosets == 0)
    assert constrained.block_ranks[0].tolist() == [0, 1, 2]


def test_cell_residual_adds_discarded_eigenvalues_block_by_block(rng):
    from sisfit.sis import block_spectra

    ds = random_dataset(rng, dim=1, cells=6, trunc=4, m=6)
    lat = make_dual_lattice([[3]])
    labels = np.array([coset_of(k, lat) for k in ds.grid.translations])
    blocks = [np.flatnonzero(labels == sigma) for sigma in range(3)]
    model = fit_extra_invariant(ds, lat, 4)
    for g in range(ds.grid.n_cells):
        f = np.ascontiguousarray(ds.samples[:, g, :])
        spectra = block_spectra(f[None], blocks)[0]
        expect = 0.0
        for sigma, lam in enumerate(spectra):
            for v in lam[int(np.sum(model.home_cosets[g] == sigma)):]:
                expect += float(v)
        assert model.residuals[g] == expect


def test_empty_coset_block_fits_and_verifies(rng):
    # dual lattice 4 on the translations -1, 0, 1: coset 2 holds no column
    from sisfit.sis import block_spectra

    ds = random_dataset(rng, dim=1, cells=2, trunc=1, m=3)
    lat = make_dual_lattice([[4]])
    labels = coset_of(ds.grid.translations, lat)
    assert np.bincount(labels, minlength=4).tolist() == [1, 1, 0, 1]
    blocks = [np.flatnonzero(labels == sigma) for sigma in range(4)]
    spectra = block_spectra(np.ascontiguousarray(ds.samples[:, :1].transpose(1, 0, 2)), blocks)[0]
    assert spectra[2].tolist() == [0.0, 0.0, 0.0]
    model = fit_extra_invariant(ds, lat, 4)
    report = verify_model(model, ds)
    assert report.passed, str(report)
    # three one-column cosets give three records; the fourth is an exact
    # zero, which the tie order gives to coset 0 (in-block rank 1)
    assert model.error == 0.0
    assert model.home_cosets[:, 3].tolist() == [0, 0]
    assert model.block_ranks[:, 3].tolist() == [1, 1]
    assert np.all(model.spectra[3] == 0)


def test_block_record_budget_refuses_more_blocks_than_columns_only(rng, monkeypatch):
    from sisfit.discrete import brute_force_optimal, error_discrete, spectra_discrete
    from sisfit.extra import spectra_extra

    monkeypatch.setattr("sisfit.sis.MAX_BLOCK_RECORDS", 8)
    # 2 cells x 3 translations x 3 functions: 18 samples; 4 cosets make 24 records
    ds = random_dataset(rng, dim=1, cells=2, trunc=1, m=3)
    lat = make_dual_lattice([[4]])
    refused = "^4 blocks on 3 columns make 24 block records, more than both 8 and the 18 samples$"
    for call in (lambda: fit_extra_invariant(ds, lat, 1), lambda: spectra_extra(ds, lat),
                 lambda: error_extra(ds, lat, 1)):
        with pytest.raises(ValidationError, match=refused):
            call()
    # 3 cosets on 3 translations make 18 records, no more than the samples
    assert fit_extra_invariant(ds, make_dual_lattice([[3]]), 1).error == error_extra(ds, make_dual_lattice([[3]]), 1)

    # one cell of 3 sequences on 2 points: 6 samples; 4 cosets make 12 records
    seqs = DiscreteDataset.from_sequences(1, [{(0,): 1.0}, {(1,): 2.0}, {(0,): 1j}])
    part = DiscretePartition.from_lattice(lat)
    refused = "^4 blocks on 2 columns make 12 block records, more than both 8 and the 6 samples$"
    for call in (lambda: fit_discrete(seqs, part, 1), lambda: spectra_discrete(seqs, part),
                 lambda: error_discrete(seqs, part, 1), lambda: brute_force_optimal(seqs, part, 0)):
        with pytest.raises(ValidationError, match=refused):
            call()
    assert fit_discrete(seqs, DiscretePartition.from_lattice(make_dual_lattice([[2]])), 1).rank == 1
