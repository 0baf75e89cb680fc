import numpy as np
import pytest

from sisfit import sis, verify
from sisfit.blas import _calls, one_blas_thread
from sisfit.errors import ConvergenceError
from sisfit.lattice import make_dual_lattice, parse_basis
from sisfit.multitile import fit_multitile
from sisfit.sis import fit_sis
from sisfit.spectral import SpectralDataset, SpectralGrid, write_dataset

from conftest import random_dataset
from test_cli import run_cli


def _model_bytes(out):
    """Every file of a model directory, with the report's run-specific
    ``model_dir`` and ``timing_seconds`` lines left out."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    files["report.txt"] = b"".join(line for line in files["report.txt"].splitlines(keepends=True)
                                   if not line.startswith((b"model_dir:", b"timing_seconds:")))
    return files


@pytest.mark.parametrize("m", [32, 64, 112, 300])
def test_model_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, m):
    # 32 and 64 functions make the Gramian products and norms round by the
    # thread count; 112 makes eigh's order-112 vectors do so as well, and
    # 300 functions on 361 translations solve Gramians of order 300
    grid = SpectralGrid(dim=2, cells_per_dim=2, trunc_radius=9 if m == 300 else 6)
    rng = np.random.default_rng(17)
    shape = (m, grid.n_cells, grid.n_translations)
    ds = SpectralDataset(grid=grid, samples=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    manifest = write_dataset(ds, tmp_path / "data")
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"model{threads}"
        res = run_cli("fit", "--regime", "sis", "--rank", 3, "--data", manifest, "--out", out,
                      env_extra={"OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        models.append(_model_bytes(out))
    assert sorted(models[0]) == ["eigencurves.csv", "generators.bin", "model.json", "report.txt", "residuals.csv"]
    assert [n for n in models[0] if models[0][n] != models[1][n]] == []


def _threads():
    return _calls()[1]()


@pytest.fixture
def two_blas_threads():
    """The BLAS set to two threads for the test, and back afterwards."""
    calls = _calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread setter in the BLAS NumPy links")
    before = calls[1]()
    calls[0](2)
    yield
    calls[0](before)


def test_a_fit_restores_the_thread_count_also_when_it_raises(rng, monkeypatch, two_blas_threads):
    ds = random_dataset(rng, cells=4, trunc=1, m=2)
    seen = []
    solve = sis.eig_hermitian_batch

    def counted(*args, **kwargs):
        seen.append(_threads())
        return solve(*args, **kwargs)

    monkeypatch.setattr(sis, "eig_hermitian_batch", counted)
    fit_sis(ds, 1)
    assert seen == [1] and _threads() == 2

    def failing(*args, **kwargs):
        seen.append(_threads())
        raise ConvergenceError("eigensolver did not converge")

    monkeypatch.setattr(sis, "eig_hermitian_batch", failing)
    with pytest.raises(ConvergenceError):
        fit_sis(ds, 1)
    assert seen == [1, 1] and _threads() == 2


def test_the_public_verify_functions_restore_the_thread_count_also_when_they_raise(rng, two_blas_threads):
    ds = random_dataset(rng, cells=4, trunc=1, m=2)
    lat = make_dual_lattice(parse_basis("2"))
    plain, tiles = fit_sis(ds, 2), fit_multitile(ds, 2, 1)
    for name, check in (("_project", lambda: verify.verify_extra_invariance(plain, lat)),
                        ("_deviation", lambda: verify.verify_model(plain, ds)),
                        ("_check_tiles", lambda: verify.verify_model(tiles, ds))):
        seen, real = [], getattr(verify, name)

        def counted(*args, real=real, seen=seen):
            seen.append(_threads())
            return real(*args)

        def failing(*args, seen=seen):
            seen.append(_threads())
            raise FloatingPointError("planted")

        with pytest.MonkeyPatch.context() as patch:  # undone before the next case, which may call it too
            patch.setattr(verify, name, counted)
            check()
            assert seen == [1] and _threads() == 2, name
            patch.setattr(verify, name, failing)
            with pytest.raises(FloatingPointError):
                check()
            assert seen == [1, 1] and _threads() == 2, name


def test_nested_holders_restore_the_count_once(two_blas_threads):
    with one_blas_thread:
        with one_blas_thread:
            assert _threads() == 1
        assert _threads() == 1
    assert _threads() == 2
