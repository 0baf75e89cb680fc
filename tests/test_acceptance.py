"""Acceptance gate: nine criteria, one pass/fail line each.

Each criterion prints "[acceptance] criterion N (label): PASS|FAIL" on the
real stdout so the lines survive pytest's capture.  Budgeted criteria also
assert their runtime.
"""

import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from sisfit.cli import main as cli_main
from sisfit.discrete import (
    DiscreteDataset,
    DiscretePartition,
    brute_force_optimal,
    error_discrete,
)
from sisfit.extra import error_extra, fit_extra_invariant
from sisfit.hermitian import eig_hermitian
from sisfit.lattice import make_dual_lattice
from sisfit.multitile import fit_multitile
from sisfit.sis import error_sis, fit_sis
from sisfit.spectral import SpectralDataset, SpectralGrid, total_energy, write_dataset
from sisfit.verify import verify_model

from oracles import eig2_closed_form, eig3_closed_form, weight
from test_extra import indicator_dataset


@contextmanager
def criterion(num, label, capfd):
    """Print one pass/fail line on the real stdout, outside pytest capture."""

    def emit(status):
        with capfd.disabled():
            print(f"[acceptance] criterion {num} ({label}): {status}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


# ---------------------------------------------------------------- suite --

_CACHE = {}


def suite():
    """100 random datasets: d in {1,2}, m <= 4, rank <= 5, G <= 32,
    N_tr <= 2, each with a fitting lattice for the constrained regime."""
    if "suite" in _CACHE:
        return _CACHE["suite"]
    rng = np.random.default_rng(202)
    cases = []
    for i in range(100):
        dim = 1 if i % 2 == 0 else 2
        cells = int(rng.choice([4, 8, 16, 32] if dim == 1 else [4, 8]))
        trunc = int(rng.integers(1, 3))
        m = int(rng.integers(1, 5))
        rank = int(rng.integers(1, 6))
        grid = SpectralGrid(dim=dim, cells_per_dim=cells, trunc_radius=trunc)
        shape = (m, grid.n_cells, grid.n_translations)
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ds = SpectralDataset(grid=grid, samples=samples)
        if dim == 1:
            basis = [[2]] if i % 4 == 0 else [[3]]
        else:
            basis = [[2, 0], [0, 1]] if i % 4 == 1 else [[1, 1], [-1, 1]]
        cases.append((ds, rank, make_dual_lattice(np.array(basis))))
    _CACHE["suite"] = cases
    return cases


def sis_models():
    if "sis" not in _CACHE:
        _CACHE["sis"] = [fit_sis(ds, rank) for ds, rank, _ in suite()]
    return _CACHE["sis"]


def extra_models():
    if "extra" not in _CACHE:
        _CACHE["extra"] = [fit_extra_invariant(ds, lat, rank) for ds, rank, lat in suite()]
    return _CACHE["extra"]


def _per_cell_projection_residuals(ds, spectra):
    out = np.zeros(ds.grid.n_cells)
    for g in range(ds.grid.n_cells):
        x = ds.samples[:, g, :]
        e = spectra[:, g, :]
        r = x - (x @ e.conj().T) @ e
        out[g] = float((r.real**2 + r.imag**2).sum())
    return out


def _parseval_ok(spectra, tol=1e-8):
    for g in range(spectra.shape[1]):
        e = spectra[:, g, :]
        nz = np.flatnonzero(np.any(e != 0, axis=1))
        if nz.size == 0:
            continue
        gram = e[nz] @ e[nz].conj().T
        if float(np.abs(gram - np.eye(nz.size)).max()) > tol:
            return False
    return True


# ------------------------------------------------------------ criteria --


def test_criterion_1_eigensolver(capfd):
    with criterion(1, "eigensolver correctness", capfd):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for trial in range(500):
            if trial < 50:
                n = 2
            elif trial < 100:
                n = 3
            else:
                n = int(rng.integers(2, 33))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = np.ascontiguousarray((a + a.conj().T) / 2.0)
            es = eig_hermitian(h)
            u = es.vectors
            scale = max(1.0, float(np.linalg.norm(h)))
            assert np.linalg.norm(u @ np.diag(es.eigenvalues) @ u.conj().T - h) <= 1e-10 * scale
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10
            if n == 2:
                assert np.abs(es.eigenvalues - eig2_closed_form(h)).max() <= 1e-9
            elif n == 3:
                assert np.abs(es.eigenvalues - eig3_closed_form(h)).max() <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"eigensolver suite took {elapsed:.2f} s"


def test_criterion_2_residual_identity(capfd):
    with criterion(2, "per-fiber residual identity", capfd):
        t0 = time.perf_counter()
        cases = suite()
        models = sis_models()
        for (ds, rank, _), model in zip(cases, models):
            resid = _per_cell_projection_residuals(ds, model.spectra)
            for g in range(ds.grid.n_cells):
                x = ds.samples[:, g, :]
                trace = float((x.real**2 + x.imag**2).sum())
                assert abs(resid[g] - model.residuals[g]) <= 1e-8 * (1.0 + trace)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"residual identity suite took {elapsed:.2f} s"


def test_criterion_3_parseval_both_regimes(capfd):
    with criterion(3, "Parseval property", capfd):
        for model in sis_models():
            assert _parseval_ok(model.spectra)
        for model in extra_models():
            assert _parseval_ok(model.spectra)


def test_criterion_4_identity_lattice_reduction(capfd):
    with criterion(4, "identity-lattice reduction", capfd):
        for (ds, rank, _), plain in zip(suite(), sis_models()):
            lat1 = make_dual_lattice(np.eye(ds.grid.dim, dtype=np.int64))
            constrained = fit_extra_invariant(ds, lat1, rank)
            assert abs(constrained.error - plain.error) <= 1e-12 * max(1.0, total_energy(ds))
            for g in range(ds.grid.n_cells):
                p1 = plain.spectra[:, g, :].conj().T @ plain.spectra[:, g, :]
                p2 = constrained.spectra[:, g, :].conj().T @ constrained.spectra[:, g, :]
                assert float(np.abs(p1 - p2).max()) <= 1e-8


def test_criterion_5_indicator_golden_case(capfd):
    with criterion(5, "extra-invariance golden case", capfd):
        t0 = time.perf_counter()
        ds = indicator_dataset()
        lat = make_dual_lattice([[2]])
        e1 = error_extra(ds, lat, 1)
        e2 = error_extra(ds, lat, 2)
        assert abs(e1 - 1.0) <= 1e-9
        assert abs(e2) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"golden case took {elapsed:.3f} s"


def test_criterion_6_discrete_greedy_vs_oracle(capfd):
    with criterion(6, "discrete greedy equals oracle", capfd):
        rng = np.random.default_rng(606)
        t0 = time.perf_counter()
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            npts = int(rng.integers(1, 17))
            pts = rng.choice(np.arange(-20, 21), size=npts, replace=False)
            seqs = []
            for _ in range(m):
                vals = rng.standard_normal(npts) + 1j * rng.standard_normal(npts)
                keep = rng.random(npts) < 0.85
                seqs.append(
                    {(int(p),): complex(v) for p, v, k in zip(pts, vals, keep) if k}
                )
            ds = DiscreteDataset.from_sequences(1, seqs)
            kappa = int(rng.integers(1, 4))
            part = DiscretePartition.from_lattice(make_dual_lattice([[kappa]]))
            rank = int(rng.integers(1, 5))
            err = error_discrete(ds, part, rank)
            best, _ = brute_force_optimal(ds, part, rank)
            assert err == best or abs(err - best) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"greedy/oracle suite took {elapsed:.2f} s"


def test_criterion_7_multitile_validity_and_optimality(capfd):
    with criterion(7, "multi-tile validity and optimality", capfd):
        rng = np.random.default_rng(707)
        for trial in range(20):
            dim = 1 if trial % 2 == 0 else 2
            grid = SpectralGrid(dim=dim, cells_per_dim=4, trunc_radius=2 if dim == 1 else 1)
            m = int(rng.integers(1, 4))
            shape = (m, grid.n_cells, grid.n_translations)
            ds = SpectralDataset(
                grid=grid,
                samples=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            )
            box = int(rng.integers(1, grid.trunc_radius + 1))
            cap = (2 * box + 1) ** dim
            rank = int(rng.integers(1, min(cap, 4) + 1))
            model = fit_multitile(ds, rank, box)
            assert verify_model(model, ds).passed
            if cap <= 9 and rank <= 4:
                w = (ds.samples.real**2 + ds.samples.imag**2).sum(axis=0)
                kk = ds.grid.translations
                idx = np.flatnonzero(np.abs(kk).max(axis=1) <= box)
                for g in range(grid.n_cells):
                    best = max(sum(w[g, list(c)]) for c in combinations(idx, rank))
                    kept = sum(weight(ds, g, model.chosen[g, s]) for s in range(rank))
                    assert abs(kept - best) <= 1e-12 * (1.0 + best)

        from sisfit.spectral import synthesize

        grid = SpectralGrid(dim=1, cells_per_dim=8, trunc_radius=1)
        gds = synthesize("gaussian", [1.0], grid)
        m1 = fit_multitile(gds, 1, 1)
        assert np.array_equal(m1.chosen, np.zeros((8, 1, 1), dtype=np.int64))
        m3 = fit_multitile(gds, 3, 1)
        assert np.array_equal(
            m3.chosen, np.tile(np.array([[-1], [0], [1]], dtype=np.int64), (8, 1, 1))
        )


def test_criterion_8_monotonicity_suite(capfd):
    with criterion(8, "monotonicity suite", capfd):
        for ds, rank, lat in suite():
            energy = total_energy(ds)
            slack = 1e-12 * energy
            top = min(rank, 3) + 1
            sis_errs = [error_sis(ds, r) for r in range(top + 1)]
            extra_errs = [error_extra(ds, lat, r) for r in range(top + 1)]
            for seq in (sis_errs, extra_errs):
                for lo, hi in zip(seq[1:], seq[:-1]):
                    assert lo <= hi + slack
            for es, ee in zip(sis_errs, extra_errs):
                assert ee >= es - slack
            radii = list(range(1, ds.grid.trunc_radius + 1))
            pw_rank = min(rank, 3, 3**ds.grid.dim - 1)
            totals = []
            for b in radii:
                mt = fit_multitile(ds, pw_rank, b)
                totals.append(mt.error + mt.tail)
            for lo, hi in zip(totals[1:], totals[:-1]):
                assert lo <= hi + slack
            mt1 = fit_multitile(ds, pw_rank, 1)
            mt2 = fit_multitile(ds, pw_rank + 1, 1)
            assert mt2.error <= mt1.error + slack


def _snapshot(outdir):
    files = {}
    for p in sorted(outdir.iterdir()):
        if p.is_file():
            files[p.name] = p.read_bytes()
    return files


def _strip_timing(raw: bytes):
    return [
        ln for ln in raw.decode().splitlines() if not ln.startswith("timing_seconds:")
    ]


def test_criterion_9_determinism_across_threads(tmp_path, capfd):
    with criterion(9, "thread-count determinism", capfd):
        rng = np.random.default_rng(909)
        grid = SpectralGrid(dim=1, cells_per_dim=8, trunc_radius=1)
        samples = rng.standard_normal((3, 8, 3)) + 1j * rng.standard_normal((3, 8, 3))
        manifest = write_dataset(SpectralDataset(grid=grid, samples=samples), tmp_path / "d")

        seqs = tmp_path / "seqs.txt"
        seqs.write_text("0,0,1.0,0.0\n1,1,0.5,0.5\n1,3,0.25,0.0\n")
        partition = tmp_path / "part.txt"
        partition.write_text("lattice: 2\n")

        jobs = [
            ("sis", ["fit", "--regime", "sis", "--data", str(manifest), "--rank", "2"]),
            (
                "extra",
                [
                    "fit", "--regime", "extra", "--data", str(manifest),
                    "--rank", "2", "--dual-lattice", "2",
                ],
            ),
            (
                "pw",
                ["fit", "--regime", "pw", "--data", str(manifest), "--rank", "2", "--box", "1"],
            ),
            (
                "discrete",
                [
                    "fit", "--regime", "discrete", "--data", str(seqs),
                    "--rank", "2", "--partition", str(partition),
                ],
            ),
        ]
        for name, args in jobs:
            out = tmp_path / f"model_{name}"
            assert cli_main(args + ["--threads", "1", "--out", str(out)]) == 0
            first = _snapshot(out)
            assert cli_main(args + ["--threads", "4", "--out", str(out)]) == 0
            second = _snapshot(out)
            assert set(first) == set(second)
            for fname in first:
                if fname == "report.txt":
                    assert _strip_timing(first[fname]) == _strip_timing(second[fname])
                else:
                    assert first[fname] == second[fname], f"{name}/{fname} differs"
