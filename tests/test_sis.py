import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sisfit import sis
from sisfit.discrete import DiscreteDataset, DiscretePartition, _block_columns, fit_discrete
from sisfit.errors import ValidationError
from sisfit.extra import fit_extra_invariant
from sisfit.hermitian import eig_hermitian
from sisfit.lattice import coset_of, make_dual_lattice
from sisfit.sis import (CHUNK_ELEMENTS, _fit_cells, _sides, allocation_residual, block_spectra, error_sis, fit_sis,
                        project_onto)
from sisfit.spectral import SpectralDataset, SpectralGrid, synthesize, total_energy
from sisfit.verify import verify_model

from conftest import random_dataset
from oracles import projection_residual, sequential_residual


def _projector(spectra_g):
    """nk x nk orthogonal projector onto the span of the generator fibers."""
    e = spectra_g
    return e.conj().T @ e


def test_single_function_is_exact(rng):
    ds = random_dataset(rng, m=1)
    model = fit_sis(ds, 1)
    assert abs(model.error) <= 1e-12 * (1.0 + total_energy(ds))
    # generator fiber is the normalized data fiber, cell by cell
    for g in range(ds.grid.n_cells):
        f = ds.samples[0, g, :]
        e = model.spectra[0, g, :]
        expect = f / np.linalg.norm(f)
        # same line up to the eigenvector phase
        phase = np.vdot(expect, e)
        assert abs(abs(phase) - 1.0) <= 1e-10
        assert np.linalg.norm(e - phase * expect) <= 1e-10


def test_collinear_pair_is_exact(rng):
    ds = random_dataset(rng, m=1)
    stacked = SpectralDataset(
        grid=ds.grid, samples=np.concatenate([ds.samples, 2.0 * ds.samples], axis=0)
    )
    model = fit_sis(stacked, 1)
    assert abs(model.error) <= 1e-10 * (1.0 + total_energy(stacked))


def test_disjoint_supports_keep_the_heavier_line(rng):
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    samples = np.zeros((2, 4, 3), dtype=complex)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    samples[0, :, 1] = a  # function 0 lives on k=0
    samples[1, :, 2] = b  # function 1 lives on k=1
    ds = SpectralDataset(grid=grid, samples=samples)
    model = fit_sis(ds, 1)

    expect = float(np.sum(np.minimum(np.abs(a) ** 2, np.abs(b) ** 2))) * grid.cell_volume
    assert model.error == pytest.approx(expect, rel=1e-12, abs=1e-15)

    # brute force: per cell the best single line is one of the two data fibers
    for g in range(grid.n_cells):
        x = ds.samples[:, g, :]
        best = min(
            projection_residual(x, ds.samples[0:1, g, :]),
            projection_residual(x, ds.samples[1:2, g, :]),
        )
        assert model.residuals[g] == pytest.approx(best, rel=1e-10, abs=1e-12)


def test_error_sis_conventions(rng):
    ds = random_dataset(rng, m=3)
    assert error_sis(ds, 3) <= 1e-12 * total_energy(ds)
    assert error_sis(ds, 5) <= 1e-12 * total_energy(ds)
    assert error_sis(ds, 0) == pytest.approx(total_energy(ds), rel=1e-12)


def test_fit_and_error_agree(rng):
    ds = random_dataset(rng, m=3)
    model = fit_sis(ds, 1)
    assert error_sis(ds, 1) == model.error


def test_rank_above_m_pads_with_zero_generators(rng):
    ds = random_dataset(rng, m=2)
    model = fit_sis(ds, 4)
    assert model.spectra.shape[0] == 4
    assert np.all(model.spectra[2:] == 0)
    assert abs(model.error) <= 1e-12


def test_rank_is_refused_where_its_padded_generators_exceed_both_bounds(rng, monkeypatch):
    # 3 functions on 4 cells of 3 columns: 36 samples, 12 generator values a rank
    ds = random_dataset(rng, cells=4, trunc=1, m=3)
    lat = make_dual_lattice([[2]])
    seqs = DiscreteDataset.from_sequences(1, [{(0,): 1.0, (1,): 2.0}])
    part = DiscretePartition.from_lattice(lat)
    for bound, fits in ((60, 5), (1, 3)):  # the record bound above the samples, then below them
        monkeypatch.setattr(sis, "MAX_BLOCK_RECORDS", bound)
        model = fit_sis(ds, fits)
        assert model.spectra.shape == (fits, 4, 3) and not model.spectra[3:].any()
        beyond = 12 * (fits + 1)
        for fit in (lambda r: fit_sis(ds, r), lambda r: fit_extra_invariant(ds, lat, r)):
            with pytest.raises(ValidationError, match=f"^rank {fits + 1} on 4 cells of 3 columns makes {beyond} "
                                                      f"generator values, more than both {bound} and the 36 samples$"):
                fit(fits + 1)
    monkeypatch.undo()
    # refused before the generators are allocated; the sequences are one cell of 2 columns
    for fit, values in ((lambda r: fit_sis(ds, r), 12), (lambda r: fit_extra_invariant(ds, lat, r), 12),
                        (lambda r: fit_discrete(seqs, part, r), 2)):
        for rank in (2**24 // values + 1, 2**63, 10**20):
            with pytest.raises(ValidationError, match=f"^rank {rank} on "):
                fit(rank)


def test_project_onto_training_data(rng):
    ds = random_dataset(rng, m=4, cells=6)
    model = fit_sis(ds, 2)
    proj, resid, cell_resid = project_onto(model, ds)
    energy = total_energy(ds)
    assert abs(float(resid.sum()) - model.error) <= 1e-8 * (1.0 + energy)
    trace = (ds.samples.real**2 + ds.samples.imag**2).sum(axis=(0, 2))
    assert np.all(np.abs(cell_resid - model.residuals) <= 1e-8 * (1.0 + trace))
    # projections never grow the energy
    assert total_energy(proj) <= energy * (1.0 + 1e-12)


def test_project_zero_and_own_generators(rng):
    ds = random_dataset(rng, m=3)
    model = fit_sis(ds, 2)
    zero = SpectralDataset(grid=ds.grid, samples=np.zeros_like(ds.samples))
    _, resid, _ = project_onto(model, zero)
    assert np.all(resid == 0.0)
    gens = SpectralDataset(grid=ds.grid, samples=model.spectra.copy())
    _, resid, _ = project_onto(model, gens)
    assert np.all(resid <= 1e-10)


def test_project_grid_mismatch(rng):
    ds = random_dataset(rng, cells=4)
    other = random_dataset(rng, cells=6)
    model = fit_sis(ds, 1)
    with pytest.raises(ValidationError, match="grids differ"):
        project_onto(model, other)


def test_per_cell_residual_identity(rng):
    ds = random_dataset(rng, m=3, cells=6, trunc=2)
    model = fit_sis(ds, 2)
    for g in range(ds.grid.n_cells):
        x = ds.samples[:, g, :]
        e = model.spectra[:, g, :]
        r = x - (x @ e.conj().T) @ e
        resid = float((r.real**2 + r.imag**2).sum())
        trace = float((x.real**2 + x.imag**2).sum())
        assert abs(resid - model.residuals[g]) <= 1e-8 * (1.0 + trace)


def test_residuals_match_lapack_tails(rng):
    ds = random_dataset(rng, m=4, cells=4)
    rank = 2
    model = fit_sis(ds, rank)
    for g in range(ds.grid.n_cells):
        f = ds.samples[:, g, :]
        gm = f @ f.conj().T
        lam = np.linalg.eigvalsh((gm + gm.conj().T) / 2.0)[::-1]
        assert model.residuals[g] == pytest.approx(float(lam[rank:].sum()), rel=1e-9, abs=1e-12)


def test_monotonicity_in_rank(rng):
    ds = random_dataset(rng, m=4)
    energy = total_energy(ds)
    errs = [error_sis(ds, r) for r in range(5)]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-12 * energy


def test_parseval_per_cell(rng):
    ds = random_dataset(rng, m=4, cells=4)
    model = fit_sis(ds, 3)
    for g in range(ds.grid.n_cells):
        e = model.spectra[:, g, :]
        nz = np.flatnonzero(np.any(e != 0, axis=1))
        gram = e[nz] @ e[nz].conj().T
        assert np.abs(gram - np.eye(nz.size)).max() <= 1e-8


def test_scaling_covariance(rng):
    ds = random_dataset(rng, m=3, cells=4)
    scaled = SpectralDataset(grid=ds.grid, samples=3.0 * ds.samples)
    m1 = fit_sis(ds, 2)
    m2 = fit_sis(scaled, 2)
    assert m2.error == pytest.approx(9.0 * m1.error, rel=1e-10)
    for g in range(ds.grid.n_cells):
        p1 = _projector(m1.spectra[:, g, :])
        p2 = _projector(m2.spectra[:, g, :])
        assert np.abs(p1 - p2).max() <= 1e-8


def test_gaussian_fixture_zero_error():
    grid = SpectralGrid(dim=1, cells_per_dim=8, trunc_radius=1)
    ds = synthesize("gaussian", [1.0], grid)
    model = fit_sis(ds, 1)
    assert model.error <= 1e-12


def test_rank_validation(rng):
    ds = random_dataset(rng)
    with pytest.raises(ValidationError):
        fit_sis(ds, 0)
    with pytest.raises(ValidationError):
        fit_sis(ds, -1)
    with pytest.raises(ValidationError):
        error_sis(ds, -1)


def _reference_cell(f, blocks, rank):
    """One cell on its own, each block Gramian solved alone on its smaller
    side (a^H a when the block has fewer columns than f has rows, else
    a a^H) and its spectrum padded with zeros to m records: the kept
    eigenvalues, generators, residual and blocks."""
    m = f.shape[0]
    lams, vecs = [], []
    for cols in blocks:
        a = f[:, cols]
        gm = a.conj().T @ a if a.shape[1] < m else a @ a.conj().T
        es = eig_hermitian((gm + gm.conj().T) / 2.0)
        lams.append(np.concatenate([es.eigenvalues, np.zeros(m - es.order)]))
        vecs.append(es.vectors)
    lam = np.concatenate(lams)
    block = np.repeat(np.arange(len(lams)), m)
    in_block = np.tile(np.arange(m), len(lams))
    kept = np.lexsort((in_block, block, -lam))[:rank]
    gens = np.zeros((kept.shape[0], f.shape[1]), dtype=np.complex128)
    lmax = max(float(lam.max()), 0.0)
    for s, i in enumerate(kept):
        if lam[i] > 1e-10 * lmax and lam[i] > 0.0:
            cols = blocks[block[i]]
            w = vecs[block[i]][:, in_block[i]].conj()
            gens[s, cols] = w if w.shape[0] < m else (1.0 / math.sqrt(lam[i])) * (w @ f[:, cols])
    residual = 0.0
    for b, lam_b in enumerate(lams):
        for v in lam_b[int(np.sum(block[kept] == b)) :].tolist():
            residual += v
    return lam[kept], gens, residual, block[kept]


def test_fits_across_chunk_boundaries_equal_per_cell_reference(rng):
    # m = 16 functions on 17 columns: sis solves order 16 (64 Gramians per
    # call), so 120 cells are two chunks; extra with dual lattice 2 solves
    # orders 9 and 8 (112 cells per chunk), again two chunks.  m = 4 on 13
    # columns: extra solves both index-array blocks (7 and 6 columns) on the
    # 4 x 4 side, 512 cells per chunk, so 520 cells are two chunks
    assert CHUNK_ELEMENTS // (16 * 16) == 64
    assert CHUNK_ELEMENTS // (9 * 9 + 8 * 8) == 112
    assert CHUNK_ELEMENTS // (4 * 4 + 4 * 4) == 512
    lat = make_dual_lattice([[2]])
    for m, cells, trunc, rank in ((16, 120, 8, 18), (4, 520, 6, 9)):
        ds = random_dataset(rng, dim=1, cells=cells, trunc=trunc, m=m)
        labels = coset_of(ds.grid.translations, lat)
        # rank above the rank of every cell under either fit: zero generators too
        assert rank > sum(min(m, c) for c in np.bincount(labels))
        for model, blocks in (
            (fit_sis(ds, rank), (slice(None),)),
            (fit_extra_invariant(ds, lat, rank), [np.flatnonzero(labels == b) for b in range(2)]),
        ):
            for g in range(ds.grid.n_cells):
                lam, gens, residual, home = _reference_cell(np.ascontiguousarray(ds.samples[:, g, :]), blocks, rank)
                t = lam.shape[0]
                assert model.eigenvalues[g, :t].tobytes() == lam.tobytes()
                assert np.ascontiguousarray(model.spectra[:t, g, :]).tobytes() == gens.tobytes()
                assert model.residuals[g] == residual and np.signbit(model.residuals[g]) == np.signbit(residual)
                if len(blocks) > 1:
                    assert model.home_cosets[g, :t].tolist() == home.tolist()


def test_a_one_cell_fit_larger_than_a_chunk_makes_one_call_per_order(rng, monkeypatch):
    # 80 x 60 positions in the 300 cosets of the lattice (20, 0), (0, 15):
    # one cell of 300 order-8 block Gramians, more than the 256 of a chunk
    support = np.array(list(itertools.product(range(80), range(60))))
    ds = DiscreteDataset(dim=2, support=support,
                         values=rng.standard_normal((8, 4800)) + 1j * rng.standard_normal((8, 4800)))
    part = DiscretePartition.from_lattice(make_dual_lattice([[20, 0], [0, 15]]))
    assert CHUNK_ELEMENTS // (8 * 8) == 256 and part.n_blocks == 300
    shapes, solve = [], sis.eig_hermitian_batch

    def counted(h, **kwargs):
        shapes.append(h.shape)
        return solve(h, **kwargs)

    monkeypatch.setattr(sis, "eig_hermitian_batch", counted)
    model = fit_discrete(ds, part, 40)
    assert shapes == [(300, 8, 8)]
    lam, gens, residual, home = _reference_cell(ds.values, _block_columns(ds, part), 40)
    assert model.eigenvalues[0].tobytes() == lam.tobytes()
    assert model.generators.tobytes() == gens.tobytes()
    assert model.error == residual and model.home_blocks[0].tolist() == home.tolist()


@pytest.mark.parametrize("m, c", [(7, 3), (5, 5), (3, 8), (9, 1)])
def test_block_spectrum_on_either_side_matches_lapack(rng, m, c):
    f = rng.standard_normal((m, c)) + 1j * rng.standard_normal((m, c))
    energy = float((f.real**2 + f.imag**2).sum())
    halves = [np.arange(0, c, 2), np.arange(1, c, 2)]
    for blocks in ((slice(None),), halves):
        spectra = block_spectra(f[None], blocks)[0]
        assert len(spectra) == len(blocks)
        for cols, lam in zip(blocks, spectra):
            a = f[:, cols]
            assert lam.shape == (m,)
            assert np.abs(lam - np.linalg.eigvalsh(a @ a.conj().T)[::-1]).max() <= 1e-10 * (1.0 + energy)
            # the padded records are exact zeros
            assert np.all(lam[min(m, a.shape[1]) :] == 0.0)


def test_generators_on_mixed_sides_are_orthonormal_and_verify(rng):
    # m = 7 on 13 columns, dual lattice 2: the 7-column coset ties with m and
    # stays on the 7 x 7 side, the 6-column coset is solved as 6 x 6 a^H a
    ds = random_dataset(rng, dim=1, cells=6, trunc=6, m=7)
    lat = make_dual_lattice([[2]])
    labels = coset_of(ds.grid.translations, lat)
    assert np.bincount(labels).tolist() == [7, 6]
    model = fit_extra_invariant(ds, lat, 10)
    assert set(model.home_cosets.reshape(-1).tolist()) == {0, 1}
    for g in range(ds.grid.n_cells):
        e = model.spectra[:, g, :]
        nz = np.flatnonzero(np.any(e != 0, axis=1))
        assert nz.size == 10
        assert np.abs(e[nz] @ e[nz].conj().T - np.eye(nz.size)).max() <= 1e-10
    report = verify_model(model, ds)
    assert report.passed, str(report)


def _cell_fields(x, blocks, rank, m, n_blocks):
    """Every per-cell field of the stack ``x``, one dict per cell: the
    block spectra of ``block_spectra``, and from the ``_fit_cells`` arrays
    the kept records with their eigenvalues, blocks, in-block ranks and
    allocation, residual and generators."""
    lams = block_spectra(x, blocks)
    eigenvalues, gens, residuals, home, block_ranks = _fit_cells(x, blocks, rank)
    kept = home >= 0
    return [
        dict(
            block_eigenvalues=lams[c],
            kept=home[c, kept[c]] * m + block_ranks[c, kept[c]],
            eigenvalues=eigenvalues[c],
            blocks=home[c],
            block_ranks=block_ranks[c],
            allocation=np.bincount(home[c, kept[c]], minlength=n_blocks),
            residual=residuals[c],
            generators=gens[:, c],
        )
        for c in range(x.shape[0])
    ]


def test_cell_bits_do_not_depend_on_its_chunk_with_two_side_orders(rng):
    ds = random_dataset(rng, dim=1, cells=6, trunc=6, m=7)
    labels = coset_of(ds.grid.translations, make_dual_lattice([[2]]))
    blocks = [np.flatnonzero(labels == b) for b in range(2)]
    fs = np.ascontiguousarray(ds.samples.transpose(1, 0, 2))
    assert _sides(7, blocks, 13) == [7, 6]
    chunk = _cell_fields(fs, blocks, 9, 7, 2)
    rev = _cell_fields(np.ascontiguousarray(fs[::-1]), blocks, 9, 7, 2)
    n = fs.shape[0]
    for c in range(n):
        alone = _cell_fields(fs[c : c + 1], blocks, 9, 7, 2)[0]
        for other in (chunk[c], rev[n - 1 - c]):
            for name, value in alone.items():
                assert value.tobytes() == other[name].tobytes(), name


def test_more_functions_than_columns_fit_on_the_column_side(rng):
    # 300 functions on 5 columns: every Gramian is solved on its 5 x 5 side
    ds = random_dataset(rng, dim=1, cells=4, trunc=2, m=300)
    energy = total_energy(ds)
    lat = make_dual_lattice([[2]])
    labels = coset_of(ds.grid.translations, lat)
    for rank, model, blocks in (
        (3, fit_sis(ds, 3), (slice(None),)),
        (2, fit_extra_invariant(ds, lat, 2), [np.flatnonzero(labels == b) for b in range(2)]),
    ):
        report = verify_model(model, ds)
        assert report.passed, str(report)
        expect = 0.0
        for g in range(ds.grid.n_cells):
            f = ds.samples[:, g, :]
            lams = [np.linalg.eigvalsh(f[:, cols] @ f[:, cols].conj().T)[::-1] for cols in blocks]
            keep = np.sort(np.concatenate(lams))[::-1][:rank]
            expect += float(sum(lam.sum() for lam in lams) - keep.sum())
        expect *= ds.grid.cell_volume
        assert abs(model.error - expect) <= 1e-10 * (1.0 + energy)


_SPECTRUM_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-17, 1e308, 1.0, 1e-300, 0.1, 3.0]),
    st.floats(min_value=-1e-9, max_value=1e3, allow_nan=False, allow_subnormal=True),
)


@given(st.data())
def test_allocation_residual_equals_sequential_float_loop(data):
    cells = data.draw(st.integers(1, 3))
    nb = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 8))
    lams = np.array(data.draw(st.lists(_SPECTRUM_VALUES, min_size=cells * nb * m, max_size=cells * nb * m)))
    lams = lams.reshape(cells, nb, m)
    alloc = np.array(data.draw(st.lists(st.integers(0, m), min_size=cells * nb, max_size=cells * nb)))
    alloc = alloc.reshape(cells, nb)
    got = allocation_residual(lams, alloc)
    assert got.shape == (cells,)
    for c in range(cells):
        want = sequential_residual(lams[c], alloc[c].tolist())
        # bit for bit, the sign of zero and infinities included
        assert got[c].tobytes() == np.float64(want).tobytes(), (lams[c], alloc[c], got[c], want)
        assert allocation_residual(lams[c], alloc[c]).tobytes() == got[c].tobytes()


@given(st.data())
def test_select_keeps_the_lexsort_tie_order(data):
    # tie-heavy spectra: the sampled values repeat, signed zeros and subnormals included
    cells, nb, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
    lams = np.array(data.draw(st.lists(_SPECTRUM_VALUES, min_size=cells * nb * m, max_size=cells * nb * m)))
    lams = lams.reshape(cells, nb, m)
    rank = data.draw(st.integers(0, nb * m + 1))
    kept, alloc = sis._select(lams, rank)
    lam = lams.reshape(cells, -1)
    want = np.lexsort((np.broadcast_to(np.arange(nb * m), lam.shape), -lam))[:, :rank]
    assert kept.tobytes() == want.tobytes()
    assert np.array_equal(alloc, [[np.sum(row // m == b) for b in range(nb)] for row in want])


@given(st.data())
def test_gramians_are_exactly_hermitian_on_both_sides(data):
    # eig_hermitian_batch takes the Gramians as they are: each must equal
    # its adjoint, so that symmetrizing it again would change no bit
    cells, m, n_cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    scale = data.draw(st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]))
    fs = scale * (rng.standard_normal((cells, m, n_cols)) + 1j * rng.standard_normal((cells, m, n_cols)))
    if data.draw(st.booleans()):
        blocks = sis._WHOLE_FIBER
    else:
        nb = data.draw(st.integers(1, 4))
        labels = np.array(data.draw(st.lists(st.integers(0, nb - 1), min_size=n_cols, max_size=n_cols)))
        blocks = [np.flatnonzero(labels == b) for b in range(nb)]
    sides = _sides(m, blocks, n_cols)
    stacks = sis._gramians(fs, blocks, sides)
    assert sorted(stacks) == sorted(set(sides) - {0})
    for n, stack in stacks.items():
        adj = stack.conj().swapaxes(-1, -2)
        assert stack.shape == (cells, sides.count(n), n, n) and np.array_equal(stack, adj)
        assert ((stack + adj) / 2.0).tobytes() == stack.tobytes()



@pytest.mark.parametrize(
    "row,entry",
    [
        # |1e154|^2 = 1e308: (G + G^H)/2 would overflow to inf on the way
        ([1e154], 1e308),
        # 2^-537 squares to one unit of the smallest subnormal, 2^-1074; each
        # half of a subnormal entry rounds to even: one unit halves to 0, and
        # three units to two, so the entry reads 0 and 4 units where
        # (G + G^H)/2 gives 1 and 3
        ([2.0**-537], 0.0),
        ([2.0**-537] * 3, 4 * 2.0**-1074),
    ],
)
def test_gramians_halve_each_entry_before_adding_its_adjoint(row, entry):
    fs = np.array([[row]], dtype=complex)  # one cell, one function
    stacks = sis._gramians(fs, sis._WHOLE_FIBER, [1])
    assert stacks[1].shape == (1, 1, 1, 1) and stacks[1][0, 0, 0, 0] == entry
