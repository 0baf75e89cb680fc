import numpy as np
import pytest
from hypothesis import settings

from sisfit.spectral import SpectralDataset, SpectralGrid


# property tests draw the same examples on every run and have no
# per-example deadline, so they neither flake nor depend on host speed
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("tier1")


def random_dataset(rng, dim=1, cells=8, trunc=1, m=3, scale=1.0):
    grid = SpectralGrid(dim=dim, cells_per_dim=cells, trunc_radius=trunc)
    shape = (m, grid.n_cells, grid.n_translations)
    samples = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return SpectralDataset(grid=grid, samples=samples)


def random_hermitian(rng, n, scale=1.0):
    a = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = (a + a.conj().T) / 2.0
    return np.ascontiguousarray(h)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
