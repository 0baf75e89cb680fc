import hashlib
import math

import numpy as np
import pytest

from jacobi import jacobi_batch, round_robin_steps

from conftest import random_hermitian

# "-python" in the ids names the kernel's language; fixed ids keep test
# results comparable across versions
PYTHON_IDS = "{}-python".format


def _planes(hs, vectors=True):
    """The planes a kernel run starts from: A's re/im, then V's (identity)
    or None, None for the values-only mode."""
    hs = np.asarray(hs)
    b, n = hs.shape[:2]
    v = (np.broadcast_to(np.eye(n), (b, n, n)).copy(), np.zeros((b, n, n))) if vectors else (None, None)
    return (np.ascontiguousarray(hs.real), np.ascontiguousarray(hs.imag)) + v


def _thr(h):
    return 1e-13 * max(1.0, float(np.linalg.norm(h)))


def _solve(hs, max_sweeps=64, vectors=True):
    """Run the kernel on a complex stack and return its sweep counts and
    planes as ``_planes`` lays them out, with V's eigenvectors as columns.
    The kernel must leave every byte of its input as it was."""
    hs = np.asarray(hs, dtype=complex)
    before = hs.tobytes()
    sweeps, a, v = jacobi_batch(hs, np.array([_thr(h) for h in hs]), max_sweeps, vectors)
    assert hs.tobytes() == before
    assert (v is None) == (not vectors)
    v = (None, None) if v is None else (v.real.swapaxes(1, 2), v.imag.swapaxes(1, 2))
    return sweeps, (a.real, a.imag) + v


def _bits(planes, b):
    """Every plane of matrix b, with sign bits, as bytes."""
    return [None if p is None else p[b].tobytes() for p in planes]


def _check_eigensystem(h, planes, b=0):
    are, aim, vre, vim = (p[b] for p in planes)
    n = h.shape[0]
    lam = np.sort(np.diagonal(are))
    scale = max(1.0, float(np.linalg.norm(h)))
    assert np.abs(lam - np.linalg.eigvalsh(h)).max() <= 1e-12 * scale
    v = vre + 1j * vim
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12
    assert np.linalg.norm(v @ np.diag(np.diagonal(are)) @ v.conj().T - h) <= 1e-12 * scale


def _mixed(rng, n):
    """Random, rank-2, diagonal and block-diagonal matrices of order n."""
    f = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    low = f @ f.conj().T
    block = random_hermitian(rng, n)
    block[: n // 2, n // 2 :] = 0.0
    block[n // 2 :, : n // 2] = 0.0
    diag = np.diag(rng.standard_normal(n)).astype(complex)
    return [random_hermitian(rng, n), (low + low.conj().T) / 2.0, diag, block, random_hermitian(rng, n, 1e3)]


def _rotate_lines(xre, xim, yre, yim, c, s1, s2):
    """x + i*y partner lines: c*x + (s1 + i*s2)*y on the re/im planes."""
    return c * xre + (s1 * yre - s2 * yim), c * xim + (s1 * yim + s2 * yre)


def _reference_jacobi(h, thr, max_sweeps):
    """The kernel one pair at a time in scalar floats, on unpermuted
    planes: the per-element arithmetic the batched kernel must keep."""
    n = h.shape[0]
    are, aim = h.real.copy(), h.imag.copy()
    vre, vim = np.eye(n), np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    sweeps = 0
    while True:
        off2 = 0.0
        for term in (are[iu] * are[iu] + aim[iu] * aim[iu]).tolist():
            off2 = off2 + term
        off2 = 2.0 * off2
        if off2 <= thr * thr or sweeps == max_sweeps:
            return (sweeps if off2 <= thr * thr else -1), (are, aim, vre, vim)
        for pairs in round_robin_steps(n):
            rot = []
            for p, q in pairs:
                app, aqq, bre, bim = float(are[p, p]), float(are[q, q]), float(are[p, q]), float(aim[p, q])
                absb = math.sqrt(bre * bre + bim * bim)
                t, c, sre, sim = 0.0, 1.0, 0.0, 0.0
                if absb != 0.0:
                    tau = (aqq - app) / (2.0 * absb)
                    if tau >= 0.0:
                        t = -1.0 / (tau + math.sqrt(1.0 + tau * tau))
                    else:
                        t = 1.0 / (math.sqrt(1.0 + tau * tau) - tau)
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    sre = t * c * (bre / absb)
                    sim = -(t * c) * (bim / absb)
                rot.append((p, q, c, sre, sim, app + t * absb, aqq - t * absb))
            for mre, mim in ((are, aim), (vre, vim)):  # columns
                for p, q, c, sre, sim, _, _ in rot:
                    xp, xq = (mre[:, p].copy(), mim[:, p].copy()), (mre[:, q].copy(), mim[:, q].copy())
                    mre[:, p], mim[:, p] = _rotate_lines(*xp, *xq, c, sre, sim)
                    mre[:, q], mim[:, q] = _rotate_lines(*xq, *xp, c, -sre, sim)
            for p, q, c, sre, sim, _, _ in rot:  # rows of A, s conjugated
                xp, xq = (are[p].copy(), aim[p].copy()), (are[q].copy(), aim[q].copy())
                are[p], aim[p] = _rotate_lines(*xp, *xq, c, sre, -sim)
                are[q], aim[q] = _rotate_lines(*xq, *xp, c, -sre, -sim)
            for p, q, _, _, _, dp, dq in rot:
                are[p, p], are[q, q] = dp, dq
                for plane in (are, aim):
                    plane[p, q] = plane[q, p] = 0.0
                aim[p, p] = aim[q, q] = 0.0
        sweeps += 1


# the full mode keeps its "<n>-python" ids; the values-only mode adds "-values"
@pytest.mark.parametrize("n, vectors", [
    pytest.param(n, vectors, id=PYTHON_IDS(n) + ("" if vectors else "-values"))
    for vectors in (True, False) for n in (1, 2, 3, 4, 5, 7, 8, 13, 16)])
def test_kernel_matches_scalar_reference(n, vectors, rng):
    # zero pairs (exact, of negative zeros, and a_pq whose square
    # underflows), signed zeros on the diagonal, equal diagonals, large and
    # tiny scales
    hs = _mixed(rng, n)
    tiny = random_hermitian(rng, n)
    tiny[0, 1:] = 1e-170
    tiny[1:, 0] = 1e-170
    signed = random_hermitian(rng, n, 1e-3)
    np.fill_diagonal(signed, -0.0)
    flat = random_hermitian(rng, n)
    np.fill_diagonal(flat, 2.0)
    negzero = random_hermitian(rng, n)  # zero pairs of -0.0 - 0.0j entries
    negzero[: n // 2, n // 2 :] = complex(-0.0, -0.0)
    negzero[n // 2 :, : n // 2] = complex(-0.0, -0.0)
    hs = np.stack(hs + [tiny, signed, flat, negzero])
    sweeps, planes = _solve(hs, vectors=vectors)
    for b, h in enumerate(hs):
        ref_sweeps, ref_planes = _reference_jacobi(h, _thr(h), 64)
        assert sweeps[b] == ref_sweeps
        # the values-only mode has no V: its A planes must match alone
        ref = [p.tobytes() for p in ref_planes] if vectors else [p.tobytes() for p in ref_planes[:2]] + [None, None]
        assert _bits(planes, b) == ref


def test_kernel_reports_nonconvergence(rng):
    # zero sweep budget on matrices with off-diagonal mass
    for n in (2, 3, 4, 6):
        hs = np.stack([random_hermitian(rng, n) for _ in range(3)])
        out, planes = _solve(hs, max_sweeps=0)
        assert out.tolist() == [-1, -1, -1]
        # nothing was rotated
        assert np.array_equal(planes[0], hs.real)
        assert np.array_equal(planes[2], np.broadcast_to(np.eye(n), hs.shape))


def test_kernel_zero_sweep_budget_leaves_every_plane_untouched(rng):
    # a budget-0 run in both modes: every matrix reports -1
    # and comes back bit for bit as it went in
    for n in (2, 5, 8):
        hs = np.stack([random_hermitian(rng, n) for _ in range(4)])
        for vectors in (True, False):
            before = _planes(hs, vectors)
            out, planes = _solve(hs, max_sweeps=0, vectors=vectors)
            assert out.tolist() == [-1] * 4
            for x, y in zip(before, planes):
                assert (x is None and y is None) or x.tobytes() == y.tobytes()


def test_kernel_immediate_convergence():
    diagonals = [np.array([3.0, 1.0])] + [np.arange(n, 0, -1, dtype=float) for n in (1, 2, 5, 6)]
    for n in sorted({d.shape[0] for d in diagonals}):
        ds = np.stack([np.diag(d).astype(complex) for d in diagonals if d.shape[0] == n])
        out, planes = _solve(ds)
        assert out.tolist() == [0] * ds.shape[0]
        assert np.array_equal(planes[0], ds.real)
        assert np.array_equal(planes[2], np.broadcast_to(np.eye(n), ds.shape))


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
    hs = np.stack([random_hermitian(rng, n) for _ in range(3)])
    sweeps, planes = _solve(hs)
    assert (sweeps >= 0).all()
    for b, h in enumerate(hs):
        _check_eigensystem(h, planes, b)


@pytest.mark.parametrize("n", [4, 5, 7], ids=PYTHON_IDS)
def test_kernel_block_diagonal_zero_pairs(n, rng):
    # every pair across the two blocks has a_pq == 0 exactly
    split = n // 2
    hs = np.stack([random_hermitian(rng, n) for _ in range(3)])
    hs[:, :split, split:] = 0.0
    hs[:, split:, :split] = 0.0
    sweeps, planes = _solve(hs)
    assert (sweeps >= 0).all()
    assert np.isfinite(planes[0]).all() and np.isfinite(planes[2]).all()
    for b, h in enumerate(hs):
        _check_eigensystem(h, planes, b)
    # no rotation mixes the blocks
    v = planes[2] + 1j * planes[3]
    assert np.array_equal(v[:, :split, split:], np.zeros((3, split, n - split)))
    assert np.array_equal(v[:, split:, :split], np.zeros((3, n - split, split)))


@pytest.mark.parametrize("n", [3, 8, 13], ids=PYTHON_IDS)
def test_kernel_repeat_calls_bit_identical(n, rng):
    hs = np.stack([random_hermitian(rng, n) for _ in range(3)])
    s1, p1 = _solve(hs)
    s2, p2 = _solve(hs)
    assert s1.tolist() == s2.tolist()
    for x, y in zip(p1, p2):
        assert np.array_equal(x, y)
        assert np.array_equal(np.signbit(x), np.signbit(y))


def test_kernel_equal_diagonal(rng):
    # a_pp == a_qq gives tau == 0 at the first step of every pair
    hs = np.stack([random_hermitian(rng, 6) for _ in range(3)])
    for h in hs:
        np.fill_diagonal(h, 1.0)
    sweeps, planes = _solve(hs)
    assert (sweeps >= 0).all()
    for b, h in enumerate(hs):
        _check_eigensystem(h, planes, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 13, 16, 17], ids=PYTHON_IDS)
def test_kernel_batch_composition(n, rng):
    # a matrix alone, inside a chunk and inside the reversed chunk: same
    # bits on every plane, sign bits included, and the same sweep count
    hs = np.stack(_mixed(rng, n) + _mixed(rng, n))
    chunk, chunk_planes = _solve(hs)
    rev, rev_planes = _solve(hs[::-1])
    last = hs.shape[0] - 1
    for b, h in enumerate(hs):
        alone, alone_planes = _solve(h[None])
        assert alone[0] == chunk[b] == rev[last - b]
        assert _bits(alone_planes, 0) == _bits(chunk_planes, b) == _bits(rev_planes, last - b)


def test_kernel_mixed_stack_keeps_converged_matrices(rng):
    # a diagonal matrix needs 0 sweeps next to dense ones that need many;
    # it leaves the batch untouched and the dense ones still converge
    n = 6
    dense = [random_hermitian(rng, n) for _ in range(3)]
    diag = np.diag(np.arange(n, 0, -1, dtype=float)).astype(complex)
    hs = np.stack([dense[0], diag, dense[1], dense[2]])
    sweeps, planes = _solve(hs)
    assert sweeps[1] == 0 and (sweeps[[0, 2, 3]] > 0).all()
    assert np.array_equal(planes[0][1], diag.real) and np.array_equal(planes[1][1], diag.imag)
    assert np.array_equal(planes[2][1], np.eye(n)) and np.array_equal(planes[3][1], np.zeros((n, n)))
    for b, h in enumerate(hs):
        _check_eigensystem(h, planes, b)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16], ids=PYTHON_IDS)
def test_kernel_values_only_mode_matches_full_mode(n, rng):
    # A's updates never read V: without V the A planes and the sweep
    # counts are bit-identical to the full mode's
    hs = np.stack(_mixed(rng, n))
    full, full_planes = _solve(hs)
    vals, vals_planes = _solve(hs, vectors=False)
    assert full.tolist() == vals.tolist()
    assert vals_planes[2] is None and vals_planes[3] is None
    for b in range(hs.shape[0]):
        assert _bits(full_planes, b)[:2] == _bits(vals_planes, b)[:2]


# SHA-256 of the sweeps, A and V of every stack of ``_digest_stacks``, in
# both modes: the kernel's output bits, recorded before the sweep loop was
# rewritten around per-work-array views and one gather per step
KERNEL_DIGEST = "ff0625f3bc9ddbe431e24a09f7c0fabac27e4a707bd9aa3b56c19fdb600621b0"


def _digest_stacks():
    """Seeded stacks built by elementwise operations only (no BLAS), one
    per order: dense matrices at two scales, a block-diagonal one whose
    cross pairs are exact zeros, a diagonal one (0 sweeps) and a nearly
    diagonal one, so that matrices leave the batch at different sweeps."""
    rng = np.random.default_rng(2026)
    for n in (1, 2, 3, 7, 8, 13, 16, 31, 32, 49):
        block = random_hermitian(rng, n)
        block[: n // 2, n // 2 :] = 0.0
        block[n // 2 :, : n // 2] = 0.0
        diag = rng.standard_normal(n)
        near = np.diag(np.arange(n, 0, -1, dtype=float)) + 1e-7 * random_hermitian(rng, n)
        hs = np.stack([random_hermitian(rng, n), random_hermitian(rng, n, 1e3), block,
                       np.diag(diag).astype(complex), near])
        thr = np.array([1e-12, 1e-9, 1e-12, 1e-12, 1e-12])
        yield hs, thr


def test_kernel_output_digest_is_pinned():
    digest = hashlib.sha256()
    for hs, thr in _digest_stacks():
        for vectors in (True, False):
            sweeps, a, v = jacobi_batch(hs, thr, 64, vectors)
            digest.update(sweeps.astype(np.int64).tobytes())
            digest.update(np.ascontiguousarray(a).tobytes())
            if v is not None:
                digest.update(np.ascontiguousarray(v).tobytes())
    assert digest.hexdigest() == KERNEL_DIGEST
