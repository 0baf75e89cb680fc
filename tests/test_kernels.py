import numpy as np
import pytest

from sisfit.kernels import jacobi_cycle, round_robin_steps

from conftest import random_hermitian

# "-python" in the ids names the kernel's language; fixed ids keep test
# results comparable across versions
PYTHON_IDS = "{}-python".format


def _planes(h):
    n = h.shape[0]
    return (
        np.ascontiguousarray(h.real),
        np.ascontiguousarray(h.imag),
        np.eye(n),
        np.zeros((n, n)),
    )


def _solve(h, max_sweeps=64):
    planes = _planes(h)
    thr = 1e-13 * max(1.0, float(np.linalg.norm(h)))
    return jacobi_cycle(*planes, thr, max_sweeps), planes


def _check_eigensystem(h, planes):
    are, aim, vre, vim = planes
    n = h.shape[0]
    lam = np.sort(np.diagonal(are))
    scale = max(1.0, float(np.linalg.norm(h)))
    assert np.abs(lam - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    v = vre + 1j * vim
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12
    assert np.linalg.norm(v @ np.diag(np.diagonal(are)) @ v.conj().T - h) <= 1e-12 * scale


def test_kernel_reports_nonconvergence(rng):
    # zero sweep budget on matrices with off-diagonal mass
    for n in (2, 3, 4, 6):
        h = random_hermitian(rng, n)
        out, planes = _solve(h, max_sweeps=0)
        assert out == -1
        # nothing was rotated
        assert np.array_equal(planes[0], h.real)
        assert np.array_equal(planes[2], np.eye(n))


def test_kernel_immediate_convergence():
    diagonals = [np.array([3.0, 1.0])] + [np.arange(n, 0, -1, dtype=float) for n in (1, 2, 5, 6)]
    for diag in diagonals:
        d = np.diag(diag).astype(complex)
        out, planes = _solve(d)
        assert out == 0
        assert np.array_equal(planes[0], d.real)
        assert np.array_equal(planes[2], np.eye(diag.shape[0]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 31, 32])
def test_round_robin_schedule_covers_each_pair_once(n):
    steps = round_robin_steps(n)
    assert len(steps) == n - 1 + n % 2
    seen = []
    for pairs in steps:
        flat = [i for pq in pairs for i in pq]
        assert len(flat) == len(set(flat)) == 2 * (n // 2)
        assert all(p < q < n for p, q in pairs)
        seen.extend(pairs)
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@pytest.mark.parametrize("n", [1, 3, 5, 31], ids=PYTHON_IDS)
def test_kernel_odd_orders(n, rng):
    h = random_hermitian(rng, n)
    sweeps, planes = _solve(h)
    assert sweeps >= 0
    _check_eigensystem(h, planes)


@pytest.mark.parametrize("n", [4, 5, 7], ids=PYTHON_IDS)
def test_kernel_block_diagonal_zero_pairs(n, rng):
    # every pair across the two blocks has a_pq == 0 exactly
    h = random_hermitian(rng, n)
    split = n // 2
    h[:split, split:] = 0.0
    h[split:, :split] = 0.0
    sweeps, planes = _solve(h)
    assert sweeps >= 0
    assert np.isfinite(planes[0]).all() and np.isfinite(planes[2]).all()
    _check_eigensystem(h, planes)
    # no rotation mixes the blocks
    v = planes[2] + 1j * planes[3]
    assert np.array_equal(v[:split, split:], np.zeros((split, n - split)))
    assert np.array_equal(v[split:, :split], np.zeros((n - split, split)))


@pytest.mark.parametrize("n", [3, 8, 13], ids=PYTHON_IDS)
def test_kernel_repeat_calls_bit_identical(n, rng):
    h = random_hermitian(rng, n)
    s1, p1 = _solve(h)
    s2, p2 = _solve(h)
    assert s1 == s2
    for x, y in zip(p1, p2):
        assert np.array_equal(x, y)
        assert np.array_equal(np.signbit(x), np.signbit(y))


def test_kernel_equal_diagonal(rng):
    # a_pp == a_qq gives tau == 0 at the first step of every pair
    h = random_hermitian(rng, 6)
    np.fill_diagonal(h, 1.0)
    sweeps, planes = _solve(h)
    assert sweeps >= 0
    _check_eigensystem(h, planes)
