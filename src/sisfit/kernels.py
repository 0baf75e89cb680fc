"""The Jacobi eigensolver kernel for stacks of complex Hermitian matrices,
in NumPy.

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
gather moves the array to the next step's arrangement.  A sweep is
``m - 1`` Python-level steps for the whole batch, instead of
``n(n-1)/2`` single rotations per matrix.  At the start of every sweep
the matrices that have converged leave the batch, so each matrix runs
exactly the sweeps it would run alone.

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
    odd n the idle index.  A gather is a ``(rows, cols)`` pair of index
    arrays: rows reorder A's rows and leave V's alone, cols reorder the
    columns of both.
    """

    enter: tuple  # original order -> layout 0
    leave: tuple  # layout 0 -> original order
    steps: list  # layout k -> layout k + 1, the last one back to layout 0
    upper: np.ndarray  # flat A positions (layout 0) of the upper triangle
    params: np.ndarray  # flat positions of a_pp, a_qq, re a_pq, im a_pq
    diag: np.ndarray  # flat positions of a_pp, then a_qq
    zeros: np.ndarray  # flat positions set to 0.0 after each step


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
        return np.concatenate([perm, vrows]), perm

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
    ia, ib, iab, iba = a * n + a, b * n + b, a * n + b, b * n + a
    return _Layout(
        enter=gather(layouts[0]),
        leave=gather(pos0),
        steps=steps,
        upper=pos0[iu] * n + pos0[ju],
        params=np.concatenate([ia, ib, iab, im + iab]),
        diag=np.concatenate([ia, ib]),
        zeros=np.concatenate([im + ia, im + ib, iab, iba, im + iab, im + iba]),
    )


def _rotate(z, w, c, s1, s2, tmp):
    """Rotate pairs in place: ``z`` is a re/im view (axis 0) of the p and
    q lines of every pair of every matrix, ``w`` the same view with p and
    q swapped, and ``tmp`` two rows of scratch of at least z's size.

    Each line x with partner line y becomes ``c*x + (s1 + i*s2)*y``,
    written out on the re/im planes in a fixed order:
    ``s1`` is ``sre`` for p and ``-sre`` for q, and ``s2`` is ``sim`` for
    columns and ``-sim`` for rows.  ``s2`` comes with a plane axis holding
    ``(-s2, s2)``, so that one product gives ``-s2*y_im`` for the real
    plane and ``s2*y_re`` for the imaginary one; adding the negated
    product is the same IEEE operation as subtracting it.
    """
    a, b = (t[: z.size].reshape(z.shape) for t in tmp)
    np.add(np.multiply(s1, w, out=a), np.multiply(s2, w[::-1], out=b), out=a)
    np.add(np.multiply(c, z, out=b), a, out=z)


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


def _step(x: np.ndarray, lay: _Layout, h: int, tmp: np.ndarray) -> None:
    """Apply the rotations of one round-robin step to every matrix."""
    rows, n, b = x.shape[1:]
    xf = x.reshape(-1, b)
    g = xf.take(lay.params, axis=0).reshape(4, h, b)
    app, aqq, bre, bim = g
    sq = g[2:] * g[2:]
    absb = np.sqrt(sq[0] + sq[1])
    zero = None if absb.all() else absb == 0.0
    den = absb if zero is None else np.where(zero, 1.0, absb)
    tau = (aqq - app) / (2.0 * den)
    # tau >= 0: -1 / (tau + sqrt(1 + tau^2)); else 1 / (sqrt(1 + tau^2) - tau)
    t = np.where(tau >= 0.0, -1.0, 1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    if zero is not None:
        t[zero] = 0.0
    c = 1.0 / np.sqrt(1.0 + t * t)
    # s[0] = s1 = (sre, -sre) and s[1] = s2 = (-sim, sim), where
    # sre = sig * (bre / absb) and sim = -sig * (bim / absb), both 0.0 on
    # a zero pair; (-sig) * y and -(sig * y) round alike
    s = np.empty((2, 2, h, b))
    np.multiply(t * c, g[2:] / den, out=s[:, 0])
    if zero is not None:
        s[0, 0][zero] = 0.0
        s[1, 0][zero] = -0.0
    np.negative(s[:, 0], out=s[:, 1])
    s1, s2 = s

    # columns of A and V, then rows of A: the row update of J^H (A J) is
    # the column update of the transposed rows with s conjugated
    z = x[:, :, : 2 * h].reshape(2, rows, 2, h, b)
    _rotate(z, z[:, :, ::-1], c, s1, s2[:, None, None], tmp)
    z = x[:, : 2 * h].reshape(2, 2, h, n, b)
    _rotate(z, z[:, ::-1], c[:, None], s1[:, :, None], s2[::-1, None, :, None], tmp)

    # a_pp + t|b|, then a_qq + (-t|b|), which is a_qq - t|b|
    xf[lay.diag] = (g[:2] + _PLUS_MINUS * (t * absb)).reshape(2 * h, b)
    xf[lay.zeros] = 0.0


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
        x[0, n:] = np.eye(n)[:, :, None]
    rows, cols = lay.enter
    x = x.take(rows, axis=1).take(cols, axis=2)
    out = np.empty_like(x)
    result = np.full(nb, -1, dtype=np.int64)
    active = np.arange(nb)
    sweeps = 0

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
            # per-sweep scratch: glibc may page-fault fresh per-step temporaries
            # in again each step; mode="clip" (indices in range) skips take's buffer
            y, tmp = np.empty(x.shape), np.empty((2, x.size))
            for rows, cols in lay.steps:
                _step(x, lay, half, tmp)
                x.take(rows, axis=1, out=y, mode="clip").take(cols, axis=2, out=x, mode="clip")
            sweeps += 1

    rows, cols = lay.leave
    out = out.take(rows, axis=1).take(cols, axis=2)
    # (plane, row, col, matrix) -> (matrix, row, col) for A and
    # (matrix, col, row) for V, whose columns are the eigenvectors
    a = _complex(out[:, :n].transpose(3, 1, 2, 0))
    v = _complex(out[:, n:].transpose(3, 2, 1, 0)) if vectors else None
    return result, a, v
