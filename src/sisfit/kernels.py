"""The Jacobi eigensolver kernel for complex Hermitian matrices, in NumPy.

``jacobi_cycle`` diagonalizes one matrix in place, given as its real and
imaginary planes, and accumulates the rotations into V.  Its sweeps use
the parallel round-robin ordering of Brent & Luk (SIAM J. Sci. Stat.
Comput. 6, 1985).  With ``m = n + (n odd)`` indices, where the extra index
``n`` of an odd order is an inert padding index, a sweep has ``m - 1``
steps.  Step ``k`` pairs the fixed index ``m - 1`` with ``r(0)`` and
``r(j)`` with ``r(m - 1 - j)`` for ``j = 1 .. m/2 - 1``, where
``r(j) = (j + k) mod (m - 1)``; each pair is oriented ``p < q`` and a pair
holding the padding index is skipped.  The pairs of one step are disjoint,
so all their rotations are applied together: every rotation's parameters
come from the matrix at the start of the step, then all paired columns of
A and V are rotated, then all paired rows of A, and finally each pair's
2x2 block is set to its rotated diagonal and exact zeros.  A pair whose
``a_pq`` is exactly zero gets the identity rotation (c = 1, s = 0, t = 0).

A and V are stacked in one work array and kept permuted so that a step's
p indices come first and its q indices next; the rotations of a step are
then a few whole-array updates on views, and one gather moves the array to
the next step's arrangement.  A sweep is ``m - 1`` Python-level steps
instead of ``n(n-1)/2`` single rotations.

The results are bit-deterministic: rotation parameters are computed per
pair in scalar floats, the updates use only correctly rounded elementwise
operations (no BLAS, no ``abs``/``hypot`` of complex numbers), and the
off-diagonal norm that decides convergence is accumulated in sequential
row-major order of the upper triangle.  The same input bits therefore give
the same output bits on every platform with IEEE doubles.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt
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

    The work array stacks A over V, shape ``(2, 2n, n)`` (re, im planes).
    Layout k lists the indices held at each position during step k: the p
    of every pair, then the q of every pair, then for odd n the idle index.
    A gather is a ``(rows, cols)`` pair of index arrays: rows reorder A's
    rows and leave V's alone, cols reorder the columns of both.
    """

    enter: tuple  # original order -> layout 0
    leave: tuple  # layout 0 -> original order
    steps: list  # layout k -> layout k + 1, the last one back to layout 0
    upper: np.ndarray  # flat A positions (layout 0) of the upper triangle
    params: np.ndarray  # flat positions of a_pp, a_qq, re a_pq, im a_pq
    diag: np.ndarray  # flat positions of a_pp, then a_qq
    zeros: np.ndarray  # flat positions set to 0.0 after each step


@lru_cache(maxsize=64)
def _layout(n: int) -> _Layout:
    layouts = []
    for pairs in round_robin_steps(n):
        ps = [p for p, _ in pairs]
        qs = [q for _, q in pairs]
        idle = sorted(set(range(n)) - set(ps) - set(qs))
        layouts.append(np.array(ps + qs + idle, dtype=np.intp))
    vrows = np.arange(n, 2 * n, dtype=np.intp)

    def gather(perm):
        return np.concatenate([perm, vrows]), perm

    steps = [
        gather(np.argsort(cur)[layouts[(k + 1) % len(layouts)]])
        for k, cur in enumerate(layouts)
    ]
    pos0 = np.argsort(layouts[0])
    iu, ju = np.triu_indices(n, 1)
    h = n // 2
    im = 2 * n * n  # offset of the imaginary plane
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


def _rotate(z, w, c, s1, s2):
    """Rotate pairs in place: ``z`` is a re/im view of the p and q lines
    of every pair and ``w`` the same view with p and q swapped.

    Each line x with partner line y becomes ``c*x + (s1 + i*s2)*y``,
    written out on the re/im planes in a fixed order:
    ``s1`` is ``sre`` for p and ``-sre`` for q, and ``s2`` is ``sim`` for
    columns and ``-sim`` for rows.
    """
    cz = c * z
    a = s1 * w
    b = s2 * w
    re = a[0] - b[1]
    im = a[1] + b[0]
    np.add(cz[0], re, out=z[0])
    np.add(cz[1], im, out=z[1])


def jacobi_cycle(are, aim, vre, vim, thr, max_sweeps):
    """Diagonalize in place; return sweep count, or -1 if not converged.

    ``are + i*aim`` is Hermitian with zero imaginary diagonal and
    ``vre + i*vim`` the identity on entry.  Sweeps stop once the
    off-diagonal Frobenius norm is at most ``thr``, or after
    ``max_sweeps`` sweeps; on return A holds the eigenvalues on its
    diagonal and V the eigenvectors as columns.
    """
    n = are.shape[0]
    thr2 = thr * thr
    lay = _layout(n)
    h = n // 2

    x = np.empty((2, 2 * n, n))
    x[0, :n] = are
    x[1, :n] = aim
    x[0, n:] = vre
    x[1, n:] = vim
    rows, cols = lay.enter
    x = x.take(rows, axis=1).take(cols, axis=2)
    sweeps = 0

    while True:
        # added one term at a time in row-major order, so the convergence
        # decision does not depend on how NumPy would reduce the sum
        flat = x.reshape(2, -1)
        ure = flat[0, lay.upper]
        uim = flat[1, lay.upper]
        off2 = 0.0
        for term in (ure * ure + uim * uim).tolist():
            off2 = off2 + term
        off2 = 2.0 * off2
        if off2 <= thr2 or sweeps == max_sweeps:
            break

        for rows, cols in lay.steps:
            xf = x.reshape(-1)
            g = xf.take(lay.params).tolist()
            cs, sres, nsres, sims, dp, dq = [], [], [], [], [], []
            for app, aqq, bre, bim in zip(g[:h], g[h : 2 * h], g[2 * h : 3 * h], g[3 * h :]):
                absb = sqrt(bre * bre + bim * bim)
                if absb == 0.0:
                    t = 0.0
                    c = 1.0
                    sre = 0.0
                    sim = 0.0
                else:
                    tau = (aqq - app) / (2.0 * absb)
                    if tau >= 0.0:
                        t = -1.0 / (tau + sqrt(1.0 + tau * tau))
                    else:
                        t = 1.0 / (sqrt(1.0 + tau * tau) - tau)
                    c = 1.0 / sqrt(1.0 + t * t)
                    sig = t * c
                    sre = sig * (bre / absb)
                    sim = -sig * (bim / absb)
                cs.append(c)
                sres.append(sre)
                nsres.append(-sre)
                sims.append(sim)
                dp.append(app + t * absb)
                dq.append(aqq - t * absb)
            c = np.array(cs)
            s1 = np.array([sres, nsres])
            sim = np.array(sims)

            # columns of A and V, then rows of A: the row update of
            # J^H (A J) is the column update of the transposed rows with s
            # conjugated
            z = x[:, :, : 2 * h].reshape(2, 2 * n, 2, h)
            _rotate(z, z[:, :, ::-1], c, s1, sim)
            z = x[:, : 2 * h].reshape(2, 2, h, n)
            _rotate(z, z[:, ::-1], c[:, None], s1[:, :, None], -sim[:, None])

            xf[lay.diag] = dp + dq
            xf[lay.zeros] = 0.0
            x = x.take(rows, axis=1).take(cols, axis=2)

        sweeps += 1

    rows, cols = lay.leave
    x = x.take(rows, axis=1).take(cols, axis=2)
    are[...] = x[0, :n]
    aim[...] = x[1, :n]
    vre[...] = x[0, n:]
    vim[...] = x[1, n:]
    return sweeps if off2 <= thr2 else -1
