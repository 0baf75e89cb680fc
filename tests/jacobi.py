"""A Jacobi eigensolver for stacks of complex Hermitian matrices, in
NumPy: the tests' independent oracle for ``sisfit.hermitian``, which
calls LAPACK.  ``test_kernels.py`` pins its arithmetic against a scalar
reference and its output bits by a SHA-256 digest.

``jacobi_batch`` takes a complex stack of B matrices of one order n,
writes nothing into it, and returns the diagonalized stack and the
eigenvectors, which it accumulates from the rotations into V (or, in the
values-only mode, keeps no V at all and returns None for them).  Its
sweeps use the parallel round-robin ordering of Brent & Luk (SIAM J. Sci.
Stat. Comput. 6, 1985).  With ``m = n + (n odd)`` indices, where the extra
index ``n`` of an odd order is an inert padding index, a sweep has
``m - 1`` steps.  Step ``k`` pairs the fixed index ``m - 1`` with ``r(0)``
and ``r(j)`` with ``r(m - 1 - j)`` for ``j = 1 .. m/2 - 1``, where
``r(j) = (j + k) mod (m - 1)``; each pair is oriented ``p < q`` and a pair
holding the padding index is skipped.  The pairs of one step are disjoint,
so all their rotations are applied together: every rotation's parameters
come from the matrix at the start of the step, then all paired columns of
A and V are rotated, then all paired rows of A, and finally each pair's
2x2 block is set to its rotated diagonal and exact zeros.  A pair whose
``a_pq`` is exactly zero gets the identity rotation (c = 1, s = 0, t = 0).

Each matrix stacks A over V, and the whole batch is one ``(2, rows, n, B)``
work array (re/im plane, row, column, matrix), built from a copy of the
input and an identity V, and kept permuted so that a step's p indices
come first and its q indices next; the rotations of a step are then a
few whole-array updates on views over every matrix at once, and one
gather (a ``take`` over the flat ``rows * n`` axis) moves the array into
a second buffer in the next step's arrangement, after which the two
buffers swap.  A sweep is ``m - 1`` Python-level steps for the whole
batch, instead of ``n(n-1)/2`` single rotations per matrix.  At the start
of every sweep the matrices that have converged leave the batch, so each
matrix runs exactly the sweeps it would run alone.  The second buffer,
every view a step reads or writes and the scratch of every temporary are
built once per work array, at the start and whenever matrices leave, so
a step allocates nothing and builds no view.

The results are bit-deterministic and independent of the batch: every
update is a correctly rounded elementwise operation on one matrix's own
entries (no BLAS, no ``abs``/``hypot`` of complex numbers, no reduction
across matrices), the rotation parameters are the scalar formulas applied
elementwise, and the off-diagonal norm that decides convergence is
accumulated in sequential row-major order of the upper triangle.  The same
input bits therefore give the same output bits, whatever else is in the
batch, on every platform with IEEE doubles.  A's updates never read V, so
the values-only mode gives the same eigenvalue bits as the full mode.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np


def round_robin_steps(n: int) -> list[list[tuple[int, int]]]:
    """The pairs ``(p, q)``, ``p < q``, rotated at each step of a sweep."""
    m = n + (n % 2)
    steps = []
    for k in range(m - 1):
        r = [(j + k) % (m - 1) for j in range(m - 1)]
        pairs = [(r[0], m - 1)] if m - 1 < n else []
        for j in range(1, m // 2):
            a, b = r[j], r[m - 1 - j]
            pairs.append((min(a, b), max(a, b)))
        steps.append(pairs)
    return steps


class _Layout(NamedTuple):
    """Index arrays for the permuted work array of one order ``n``.

    The work array of one matrix stacks A over V, shape ``(2, 2n, n)``
    (re, im planes), or holds A alone, shape ``(2, n, n)``, in the
    values-only mode.  Layout k lists the indices held at each position
    during step k: the p of every pair, then the q of every pair, then for
    odd n the idle index.  A gather is one index array over the flat
    ``rows * n`` axis of a plane: it reorders A's rows and leaves V's
    alone, and reorders the columns of both.
    """

    enter: np.ndarray  # original order -> layout 0
    leave: np.ndarray  # layout 0 -> original order
    steps: list  # layout k -> layout k + 1, the last one back to layout 0
    upper: np.ndarray  # flat A positions (layout 0) of the upper triangle
    params: np.ndarray  # flat positions of a_pp, a_qq, re a_pq, im a_pq


@lru_cache(maxsize=64)
def _layout(n: int, vectors: bool) -> _Layout:
    layouts = []
    for pairs in round_robin_steps(n):
        ps = [p for p, _ in pairs]
        qs = [q for _, q in pairs]
        idle = sorted(set(range(n)) - set(ps) - set(qs))
        layouts.append(np.array(ps + qs + idle, dtype=np.intp))
    vrows = np.arange(n, 2 * n if vectors else n, dtype=np.intp)

    def gather(perm):
        return (np.concatenate([perm, vrows])[:, None] * n + perm).ravel()

    steps = [
        gather(np.argsort(cur)[layouts[(k + 1) % len(layouts)]])
        for k, cur in enumerate(layouts)
    ]
    pos0 = np.argsort(layouts[0])
    iu, ju = np.triu_indices(n, 1)
    h = n // 2
    im = (2 * n if vectors else n) * n  # offset of the imaginary plane
    a = np.arange(h, dtype=np.intp)
    b = a + h
    return _Layout(
        enter=gather(layouts[0]),
        leave=gather(pos0),
        steps=steps,
        upper=pos0[iu] * n + pos0[ju],
        params=np.concatenate([a * n + a, b * n + b, a * n + b, im + a * n + b]),
    )


def _off2(x: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Twice the squared upper off-diagonal norm of every matrix, its
    terms added one at a time in row-major order (``accumulate`` is
    sequential, where ``sum`` would add pairwise)."""
    if upper.size == 0:
        return np.zeros(x.shape[-1])
    flat = x.reshape(2, -1, x.shape[-1])
    ure = flat[0].take(upper, axis=0)
    uim = flat[1].take(upper, axis=0)
    return 2.0 * np.add.accumulate(ure * ure + uim * uim, axis=0)[-1]


class _Views(NamedTuple):
    """The views of one buffer of the work array that a step reads or
    writes.  A buffer that so far has only been gathered into holds only
    ``x`` and ``flat``; it gets the rest before its first step, which a
    call of one step (order 2, one sweep) never makes."""

    x: np.ndarray  # the buffer, (2, rows, n, B)
    flat: np.ndarray  # (2, rows * n, B): gather source and target
    src: np.ndarray | None = None  # (2 * rows * n, B): parameter source
    diag: np.ndarray | None = None  # (2, h, B): re a_pp, then re a_qq
    im_diag: np.ndarray | None = None  # im a_pp and im a_qq
    pq: np.ndarray | None = None  # (2, h, B): a_pq, re and im
    qp: np.ndarray | None = None  # a_qp, re and im
    # the p and q lines of every pair, their partner lines (q and p), and
    # the partners with re and im swapped: columns of A and V, rows of A
    col: np.ndarray | None = None  # (2, rows, 2, h, B)
    col_partner: np.ndarray | None = None
    col_swapped: np.ndarray | None = None
    row: np.ndarray | None = None  # (2, 2, h, n, B)
    row_partner: np.ndarray | None = None
    row_swapped: np.ndarray | None = None


def _views(x: np.ndarray, h: int) -> _Views:
    rows, n, b = x.shape[1:]
    flat = x.reshape(2, rows * n, b)
    d = n + 1  # the stride of A's diagonal on the flat axis
    col = x[:, :, : 2 * h].reshape(2, rows, 2, h, b)
    row = x[:, : 2 * h].reshape(2, 2, h, n, b)
    return _Views(
        x, flat, x.reshape(-1, b),
        flat[0, : 2 * h * d : d].reshape(2, h, b), flat[1, : 2 * h * d : d],
        flat[:, h : h + h * d : d], flat[:, h * n : h * n + h * d : d],
        col, col[:, :, ::-1], col[::-1, :, ::-1],
        row, row[:, ::-1], row[::-1, ::-1],
    )


def _scratch(x: np.ndarray, h: int) -> tuple:
    """Scratch for every temporary of a step on the work array ``x``, and
    the views of it that a step reads, in the order ``_sweep`` unpacks
    them: arrays of shape (h, B) unless they hold re/im or p/q rows."""
    rows, n, b = x.shape[1:]
    f = np.empty((19, h, b))
    g, sq, s = f[:4], f[4:6], f[15:].reshape(2, 2, h, b)
    absb, den, tau, r, u, w, sign, t, c = f[6], f[7], f[8], f[9], f[10], f[11], f[12], f[13], f[14]
    flags = np.empty((2, h, b), dtype=bool)
    # the operands of both rotations share memory; the columns' are larger
    tmp = np.empty((2, 2 * rows * 2 * h * b))
    col = tmp.reshape(2, 2, rows, 2, h, b)
    row = tmp[:, : 2 * 2 * h * n * b].reshape(2, 2, 2, h, n, b)
    s1, s2 = s[0], s[1]
    return (
        g.reshape(4 * h, b), g[0], g[1], g[:2], g[2:], sq, sq[0], sq[1],
        absb, den, tau, r, u, w, sign, t, c, s[:, 0], s[:, 1], flags[0], flags[1],
        # s1, s2 and c broadcast against the columns, then the rows
        s1, s2[:, None, None], col[0], col[1],
        c[:, None], s1[:, :, None], s2[::-1, None, :, None], row[0], row[1],
    )


def _sweep(cur: _Views, nxt: _Views, scratch: tuple, lay: _Layout) -> tuple[_Views, _Views]:
    """Apply the rotations of every round-robin step of one sweep to every
    matrix; ``cur`` holds the work array and ``nxt`` the buffer each step
    gathers into.  Returns them, swapped after each step, so that the
    first holds the work array at the end of the sweep."""
    # g holds a_pp, a_qq, re a_pq, im a_pq; b is (re a_pq, im a_pq); s0 is
    # (sre, sim) and s0_neg its negation; zero marks a_pq == 0, ge tau >= 0
    (g, app, aqq, diag_in, b, sq, sq_re, sq_im, absb, den0, tau, r, u, w, sign, t, c, s0, s0_neg,
     zero, ge, s1_col, s2_col, col_a, col_b, c_row, s1_row, s2_row, row_a, row_b) = scratch
    h = len(app)
    for gather in lay.steps:
        if cur.src is None:
            cur = _views(cur.x, h)
        _, flat, src, diag, im_diag, pq, qp, col, col_partner, col_swapped, row, row_partner, row_swapped = cur
        src.take(lay.params, axis=0, out=g, mode="clip")
        # no ufunc of the parameters writes into one of its inputs: NumPy
        # takes a slow path for that on one-element arrays (a batch of one
        # of order 2 or 3), which the rotations' operands never are
        np.multiply(b, b, out=sq)
        np.sqrt(np.add(sq_re, sq_im, out=r), out=absb)
        nonzero = np.count_nonzero(absb) == absb.size
        den = absb
        if not nonzero:
            # a zero pair divides by 1.0 and gets the identity rotation
            np.equal(absb, _ZERO, out=zero)
            np.copyto(den0, absb)
            np.copyto(den0, _ONE, where=zero)
            den = den0
        np.divide(np.subtract(aqq, app, out=r), np.multiply(_TWO, den, out=u), out=tau)
        # tau >= 0: -1 / (tau + sqrt(1 + tau^2)); else 1 / (sqrt(1 + tau^2) - tau);
        # the sign is 1 - 2 * (tau >= 0)
        np.add(np.multiply(np.greater_equal(tau, _ZERO, out=ge), _MINUS_TWO, out=r), _ONE, out=sign)
        np.sqrt(np.add(_ONE, np.multiply(tau, tau, out=r), out=u), out=r)
        np.divide(sign, np.add(np.abs(tau, out=w), r, out=u), out=t)
        if not nonzero:
            np.copyto(t, _ZERO, where=zero)
        np.divide(_ONE, np.sqrt(np.add(_ONE, np.multiply(t, t, out=r), out=u), out=w), out=c)
        # s[0] = s1 = (sre, -sre) and s[1] = s2 = (-sim, sim), where
        # sre = sig * (bre / absb) and sim = -sig * (bim / absb), both 0.0 on
        # a zero pair; (-sig) * y and -(sig * y) round alike
        np.multiply(np.multiply(t, c, out=u), np.divide(b, den, out=sq), out=s0)
        if not nonzero:
            np.copyto(s0[0], _ZERO, where=zero)
            np.copyto(s0[1], _NEG_ZERO, where=zero)
        np.negative(s0, out=s0_neg)

        # columns of A and V, then rows of A: the row update of J^H (A J) is
        # the column update of the transposed rows with s conjugated.  Each
        # line x with partner line y becomes c*x + (s1 + i*s2)*y, written
        # out on the re/im planes in a fixed order: s1 is sre for p and -sre
        # for q, and s2 is sim for columns and -sim for rows.  s2 comes with
        # a plane axis holding (-s2, s2), so that one product gives
        # -s2*y_im for the real plane and s2*y_re for the imaginary one;
        # adding the negated product is the same IEEE operation as
        # subtracting it.
        np.add(np.multiply(s1_col, col_partner, out=col_a), np.multiply(s2_col, col_swapped, out=col_b), out=col_a)
        np.add(np.multiply(c, col, out=col_b), col_a, out=col)
        np.add(np.multiply(s1_row, row_partner, out=row_a), np.multiply(s2_row, row_swapped, out=row_b), out=row_a)
        np.add(np.multiply(c_row, row, out=row_b), row_a, out=row)

        # a_pp + t|b|, then a_qq + (-t|b|), which is a_qq - t|b|; sq is free
        np.add(diag_in, np.multiply(_PLUS_MINUS, np.multiply(t, absb, out=u), out=sq), out=diag)
        im_diag.fill(0.0)
        pq.fill(0.0)
        qp.fill(0.0)
        # mode="clip" (indices in range) skips take's buffer
        flat.take(gather, axis=1, out=nxt.flat, mode="clip")
        cur, nxt = nxt, cur
    return cur, nxt


# 0-d operands: the same values as Python floats, without their
# conversion at every call
_ZERO, _NEG_ZERO, _ONE, _TWO, _MINUS_TWO = (np.array(v) for v in (0.0, -0.0, 1.0, 2.0, -2.0))
_PLUS_MINUS = np.array([1.0, -1.0]).reshape(2, 1, 1)


def _complex(planes: np.ndarray) -> np.ndarray:
    """The complex array of a float array whose last axis is (re, im)."""
    return np.ascontiguousarray(planes).view(np.complex128)[..., 0]


def jacobi_batch(h, thr, max_sweeps, vectors=True) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Diagonalize a stack of Hermitian matrices; return ``(sweeps, a, v)``.

    ``h`` is a complex (B, n, n) stack, each matrix Hermitian with zero
    imaginary diagonal; it is read, never written.  Matrix b sweeps until
    its off-diagonal Frobenius norm is at most ``thr[b]``, or for
    ``max_sweeps`` sweeps.  ``sweeps[b]`` is its sweep count, or -1 where
    it did not converge; ``a`` is the final complex stack, eigenvalues on
    its diagonal; row s of ``v[b]`` is the eigenvector of ``a[b, s, s]``.
    ``vectors=False`` carries no V, and ``v`` is None.
    """
    nb, n = h.shape[0], h.shape[-1]
    lay = _layout(n, vectors)
    half = n // 2
    thr2 = thr * thr

    # the matrix index is the last axis, so every operation of a step
    # runs over all matrices in its innermost loop; V starts as I
    x = np.zeros((2, 2 * n if vectors else n, n, nb))
    x[0, :n] = h.real.transpose(1, 2, 0)
    x[1, :n] = h.imag.transpose(1, 2, 0)
    if vectors:
        x[0, n:].reshape(n * n, nb)[:: n + 1] = 1.0  # V's diagonal
    x = x.reshape(2, -1, nb).take(lay.enter, axis=1).reshape(x.shape)
    out = np.empty_like(x)
    result = np.full(nb, -1, dtype=np.int64)
    active = np.arange(nb)
    sweeps = 0
    work = None

    # tau * tau may overflow to inf, as it does in scalar floats; t is then
    # -0.0 or 0.0, the limit of the formula
    with np.errstate(over="ignore"):
        while active.size:
            done = _off2(x, lay.upper) <= thr2[active]
            result[active[done]] = sweeps
            if sweeps == max_sweeps:
                out[..., active] = x
                break
            if done.any():
                out[..., active[done]] = x[..., done]
                x = np.ascontiguousarray(x[..., ~done])
                active = active[~done]
                if not active.size:
                    break
                work = None
            # a second buffer, every view and all scratch, once per work
            # array: glibc may page-fault fresh per-step temporaries in
            # again each step, and building views costs Python time
            if work is None:
                y = np.empty_like(x)
                work = _views(x, half), _Views(y, y.reshape(2, -1, y.shape[-1])), _scratch(x, half)
            cur, nxt, scratch = work
            cur, nxt = _sweep(cur, nxt, scratch, lay)
            work = cur, nxt, scratch
            x = cur.x
            sweeps += 1

    out = out.reshape(2, -1, nb).take(lay.leave, axis=1).reshape(out.shape)
    # (plane, row, col, matrix) -> (matrix, row, col) for A and
    # (matrix, col, row) for V, whose columns are the eigenvectors
    a = _complex(out[:, :n].transpose(3, 1, 2, 0))
    v = _complex(out[:, n:].transpose(3, 2, 1, 0)) if vectors else None
    return result, a, v
