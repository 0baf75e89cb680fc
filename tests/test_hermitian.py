import warnings

import numpy as np
import pytest

from sisfit import hermitian
from sisfit.blas import one_blas_thread
from sisfit.errors import ConvergenceError, ValidationError
from sisfit.hermitian import (
    PHASE_TOL,
    EigenSystem,
    _normalize_rows,
    eig_hermitian,
    eig_hermitian_batch,
)

from conftest import random_hermitian
from jacobi import jacobi_batch
from oracles import eig2_closed_form, eig3_closed_form, eig_lapack


def test_identity_3x3():
    es = eig_hermitian(np.eye(3))
    assert np.array_equal(es.eigenvalues, np.ones(3))
    assert np.array_equal(es.vectors, np.eye(3, dtype=np.complex128))


def test_closed_form_2x2():
    es = eig_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(es.eigenvalues, [3.0, 1.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(es.vectors[:, 0]), [r, r], atol=1e-12)
    assert np.allclose(np.abs(es.vectors[:, 1]), [r, r], atol=1e-12)
    # phase convention: first sizeable component real positive
    assert es.vectors[0, 0].real > 0 and abs(es.vectors[0, 0].imag) < 1e-15
    assert es.vectors[0, 1].real > 0 and abs(es.vectors[0, 1].imag) < 1e-15


def test_reconstruction_and_unitarity(rng):
    for n in (1, 2, 3, 5, 8, 13):
        h = random_hermitian(rng, n)
        es = eig_hermitian(h)
        normh = max(1.0, np.linalg.norm(h))
        u = es.vectors
        assert np.linalg.norm(u @ np.diag(es.eigenvalues) @ u.conj().T - h) <= 1e-10 * normh
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10
        assert np.all(np.diff(es.eigenvalues) <= 0.0)


def test_eigenvalues_match_lapack(rng):
    for n in (2, 3, 4, 7):
        h = random_hermitian(rng, n)
        es = eig_hermitian(h)
        assert np.allclose(es.eigenvalues, eig_lapack(h), atol=1e-9 * max(1, np.linalg.norm(h)))


def test_eigenvalues_match_char_poly(rng):
    for _ in range(25):
        h2 = random_hermitian(rng, 2)
        assert np.allclose(eig_hermitian(h2).eigenvalues, eig2_closed_form(h2), atol=1e-9)
        h3 = random_hermitian(rng, 3)
        assert np.allclose(eig_hermitian(h3).eigenvalues, eig3_closed_form(h3), atol=1e-9)


def test_determinism_bitwise(rng):
    h = random_hermitian(rng, 9)
    a = eig_hermitian(h)
    b = eig_hermitian(h.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.vectors, b.vectors)


def test_psd_clamp(rng):
    # rank-deficient Gramians: the trailing eigenvalue is numerically zero and
    # must never come back negative (tiny negatives are clamped to 0.0)
    for _ in range(50):
        f = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        g = f @ f.conj().T
        es = eig_hermitian((g + g.conj().T) / 2.0)
        assert np.all(es.eigenvalues >= 0.0)
        assert es.eigenvalues[2] <= 1e-12 * es.eigenvalues[0]


def test_phase_convention(rng):
    h = random_hermitian(rng, 6)
    es = eig_hermitian(h)
    for s in range(6):
        v = es.vectors[:, s]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        piv = v[nz[0]]
        assert piv.real > 0.0
        assert piv.imag == 0.0  # exact by construction


def _normalize_row(v):
    out = np.array([v], dtype=np.complex128)
    _normalize_rows(out)
    return out[0]


def test_normalize_phase_trivial():
    out = _normalize_row([1j, 0.0])
    assert np.allclose(out, [1.0, 0.0], atol=1e-15)
    out = _normalize_row([0.0, -1.0 + 0j])
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)
    out = _normalize_row(np.zeros(2, dtype=complex))
    assert np.array_equal(out, np.zeros(2, dtype=complex))


def test_normalize_phase_preserves_norm(rng):
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v /= np.linalg.norm(v)
    w = _normalize_row(v)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    # same line: |<v, w>| = 1
    assert abs(abs(np.vdot(v, w)) - 1.0) < 1e-12


def _normalize_phase_loop(v):
    """One vector at a time, as eigenvectors were phase-normalized before
    the stacked step: the reference the stacked step must match."""
    out = np.array(v, dtype=np.complex128, copy=True)
    mags = np.abs(out)
    nz = np.flatnonzero(mags > PHASE_TOL)
    if nz.size == 0:
        return out
    piv = out[nz[0]]
    mag = mags[nz[0]]
    out *= piv.conjugate()
    out /= mag
    out[nz[0]] = mag
    return out


def test_stacked_phase_step_matches_per_column_reference(rng):
    cols = rng.standard_normal((600, 7)) + 1j * rng.standard_normal((600, 7))
    cols[::3, :2] = 0.0  # pivot further down
    cols[::5, 0] = 1e-13  # below PHASE_TOL, skipped
    cols[::7] *= 1e-13  # all small: left as is
    cols[::11] = 0.0
    stacked = cols.copy()
    _normalize_rows(stacked)
    for v, w in zip(cols, stacked):
        ref = _normalize_phase_loop(v).tobytes()
        assert w.tobytes() == ref
        assert _normalize_row(v).tobytes() == ref


def _low_rank(rng, n, r):
    f = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    low = f @ f.conj().T
    return (low + low.conj().T) / 2.0


def _mixed_stack(rng, n):
    hs = [random_hermitian(rng, n), _low_rank(rng, n, 2), np.eye(n), np.zeros((n, n))]
    return np.stack(hs + [random_hermitian(rng, n, 1e-3) for _ in range(3)])


# eigh rounds by the BLAS thread count from order 104 on, so the stacks are
# solved on one BLAS thread, as every fit solves them; no order is too large
@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 11, 16, 49, 104, 256, 300])
def test_batch_equals_single_solves_bitwise(rng, n):
    hs = _mixed_stack(rng, n)
    with one_blas_thread:
        full = eig_hermitian_batch(hs)
        rev = eig_hermitian_batch(hs[::-1])
        vals = eig_hermitian_batch(hs, vectors=False)
        alone = [(eig_hermitian(h), eig_hermitian_batch(h[None], vectors=False)) for h in hs]
    assert vals.vectors is None and full.order == n
    for h, lam in zip(hs, full.eigenvalues):
        assert np.abs(lam - np.linalg.eigvalsh(h)[::-1]).max() <= 1e-12 * max(1.0, np.linalg.norm(h))
    last = hs.shape[0] - 1
    for b, (one, one_vals) in enumerate(alone):
        lam = one.eigenvalues.tobytes()
        assert lam == full.eigenvalues[b].tobytes() == rev.eigenvalues[last - b].tobytes()
        assert lam == vals.eigenvalues[b].tobytes() == one_vals.eigenvalues[0].tobytes()
        assert one.vectors.tobytes() == full.vectors[b].tobytes() == rev.vectors[last - b].tobytes()
    # identity and zero matrices: eigh's tie order, e_1 .. e_n
    assert np.array_equal(full.vectors[2], np.eye(n)) and np.array_equal(full.vectors[3], np.eye(n))


def _oracle(hs):
    """Descending eigenvalues and phase-normalized eigenvector rows of the
    Jacobi kernel, the solver ``eig_hermitian_batch`` replaced."""
    thr = np.array([1e-13 * np.linalg.norm(h) for h in hs])
    sweeps, a, v = jacobi_batch(hs, thr, 64)
    assert (sweeps >= 0).all()
    lam = np.diagonal(a, axis1=1, axis2=2).real
    order = np.argsort(-lam, axis=1, kind="stable")
    v = np.take_along_axis(v, order[:, :, None], axis=1)
    _normalize_rows(v.reshape(-1, hs.shape[-1]))
    return np.take_along_axis(lam, order, axis=1), v


def test_solver_agrees_with_the_jacobi_oracle(rng):
    for n in range(1, 50):
        hs = np.stack([random_hermitian(rng, n), random_hermitian(rng, n, 1e3), _low_rank(rng, n, max(1, n // 2))])
        es = eig_hermitian_batch(hs)
        lam, rows = _oracle(hs)
        for b, h in enumerate(hs):
            scale = np.linalg.norm(h)
            assert np.abs(es.eigenvalues[b] - lam[b]).max() <= 1e-12 * scale
            # eigenvectors of eigenvalues at least 1e-3 * ||G||_F from every other
            gaps = np.abs(lam[b][:, None] - lam[b][None, :]) + np.diag(np.full(n, np.inf))
            apart = np.flatnonzero(gaps.min(axis=1) >= 1e-3 * scale)
            assert n < 4 or apart.size, (n, b)
            assert np.abs(es.vectors[b][:, apart].T - rows[b][apart]).max(initial=0.0) <= 1e-9


def _reference_solve(hs):
    """The eigenvalues and eigenvector rows of ``eig_hermitian`` on each
    matrix, and of ``eig_hermitian_batch`` on an exactly Hermitian stack,
    with every step always taken: the asymmetry test, the symmetrization
    and the clamp relative to the largest |eigenvalue| of each matrix."""
    adj = hs.conj().swapaxes(1, 2)
    assert (np.abs(hs - adj).max(axis=(1, 2)) <= 1e-12 * np.abs(hs).max(axis=(1, 2))).all()
    lam, w = np.linalg.eigh(hs / 2.0 + adj / 2.0)
    order = np.argsort(-lam, axis=1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=1)
    lam[(lam < 0.0) & (lam >= -hermitian.NEG_CLAMP_REL * np.abs(lam).max(axis=1, keepdims=True))] = 0.0
    rows = np.take_along_axis(w.swapaxes(1, 2), order[:, :, None], axis=1)
    _normalize_rows(rows.reshape(-1, hs.shape[-1]))
    return lam, rows


def test_steps_taken_only_when_needed_keep_the_bits(rng):
    n = 6
    exact = np.stack([random_hermitian(rng, n), _low_rank(rng, n, 2), np.diag([3.0, 1.0, 0.0, -1e-20, -0.5, -2.0])])
    assert (exact == exact.conj().swapaxes(1, 2)).all()
    tilted = exact.astype(complex)
    tilted[:, 0, 1] += 1e-15  # asymmetric within the tolerance, so symmetrized
    positive = np.stack([random_hermitian(rng, n) + 8.0 * np.eye(n) for _ in range(3)])  # no eigenvalue below 0
    tiny = np.stack([_low_rank(rng, n, 2), np.diag([3.0, 1.0, 0.0, -1e-20, 0.0, 0.0])])  # no large negative one
    for hs in (exact, positive, tiny):
        es = eig_hermitian_batch(hs)
        lam, rows = _reference_solve(hs.astype(complex))
        assert es.eigenvalues.tobytes() == lam.tobytes()
        assert es.vectors.tobytes() == np.ascontiguousarray(rows.swapaxes(1, 2)).tobytes()
        assert eig_hermitian_batch(hs, vectors=False).eigenvalues.tobytes() == lam.tobytes()
    # only the one-matrix entry symmetrizes; the batch takes Hermitian stacks
    lam, rows = _reference_solve(tilted)
    for b, h in enumerate(tilted):
        es = eig_hermitian(h)
        assert es.eigenvalues.tobytes() == lam[b].tobytes()
        assert es.vectors.tobytes() == np.ascontiguousarray(rows[b].T).tobytes()
    # a tiny negative is clamped, with or without a large one beside it, and a large one is kept
    assert eig_hermitian_batch(exact[2:]).eigenvalues[0].tolist() == [3.0, 1.0, 0.0, 0.0, -0.5, -2.0]
    assert eig_hermitian_batch(tiny[1:]).eigenvalues[0].tolist() == [3.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_the_clamp_is_relative_to_the_largest_eigenvalue_magnitude():
    # ||G||_F = 2 here, so a Frobenius-scaled clamp took -1.5e-10 for noise;
    # 1e-10 * max|lambda| clamps -0.5e-10 only
    lam = eig_hermitian(np.diag([1.0, 1.0, 1.0, 1.0, -0.5e-10, -1.5e-10])).eigenvalues
    assert lam.tolist() == [1.0, 1.0, 1.0, 1.0, 0.0, -1.5e-10]
    # the Frobenius norm of this matrix overflows to inf, which clamped every negative eigenvalue
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eig_hermitian(np.diag([1e200, -1e200])).eigenvalues.tolist() == [1e200, -1e200]
        assert eig_hermitian_batch(np.diag([1e200, -1e200]).astype(complex)[None]).eigenvalues.tolist() == [[1e200, -1e200]]


def test_entries_near_the_float64_maximum_neither_warn_nor_overflow():
    # (G + G^H)/2 doubles 1.5e308 to inf on the way, and the asymmetry
    # |a - b| of the second matrix overflows; both are taken from the halves
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        es = eig_hermitian([[1.5e308]])
        assert es.eigenvalues.tolist() == [1.5e308] and es.vectors.tolist() == [[1.0]]
        with pytest.raises(ValidationError, match=r"^matrix is not Hermitian: max asymmetry inf exceeds 1e-12 "
                                                  r"relative to max entry magnitude 1\.000000e\+308$"):
            eig_hermitian([[0.0, 1e308], [-1e308, 0.0]])


def test_batch_checks_only_that_the_stack_is_finite():
    bad = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    bad[1, 0, 1] = np.inf
    with pytest.raises(ValidationError, match=r"^non-finite entry at \(0, 1\)$"):
        eig_hermitian_batch(bad)


def test_hermitian_part_validation():
    with pytest.raises(ValidationError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        eig_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValidationError, match=r"^expected a square matrix, got shape \(1, 2, 2\)$"):
        eig_hermitian(np.eye(2)[None])
    with pytest.raises(ValidationError, match=r"^matrix order must be at least 1, got 0$"):
        eig_hermitian(np.zeros((0, 0)))
    for i, j, value in ((0, 1, np.nan), (1, 0, np.inf)):  # named before the symmetrization spreads it
        bad = np.eye(2, dtype=complex)
        bad[i, j] = value
        with pytest.raises(ValidationError, match=rf"^non-finite entry at \({i}, {j}\)$"):
            eig_hermitian(bad)
    with pytest.raises(ValidationError, match=r"^matrix is not Hermitian: max asymmetry 1\.000000e\+00 exceeds "
                                              r"1e-12 relative to max entry magnitude 2\.000000e\+00$"):
        eig_hermitian(np.array([[1.0, 2.0], [1.0, 1.0]]))


def test_eig_tol_validation():
    # the convergence threshold is the module constant: no tolerance argument
    for solve, g in ((eig_hermitian, np.eye(2)), (eig_hermitian_batch, np.eye(2)[None])):
        with pytest.raises(TypeError):
            solve(g, tol=1e-3)
        with pytest.raises(TypeError):
            solve(g, 1e-3)


def test_eigensystem_order_property():
    es = EigenSystem(eigenvalues=np.zeros(4), vectors=np.eye(4, dtype=complex))
    assert es.order == 4


def test_no_sweeps_left_raises_convergence_error(monkeypatch):
    # LAPACK's own failure, as ``eigh`` reports it, is a ConvergenceError
    def eigh(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(hermitian, "eigh", eigh)
    for vectors in (True, False):
        with pytest.raises(ConvergenceError, match=r"^eigensolver did not converge \(order 2\)"):
            eig_hermitian_batch(np.ones((1, 2, 2)), vectors=vectors)
    with pytest.raises(ConvergenceError, match=r"^eigensolver did not converge \(order 2\)"):
        eig_hermitian([[1, 1], [1, 1]])
