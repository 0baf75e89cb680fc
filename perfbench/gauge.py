"""Host-speed gauge: a fixed load timed before, during and after every command.

The benchmark's reference host is a VM whose two cores are shared with
other tenants.  There the same code runs between 1.0x and 1.6x of its
fastest time, in phases that last from a fraction of a second to over a
minute, and process CPU time slows down with wall time (it is not steal
time).  A 30 s run can sit wholly in a slow phase, so the mean, the median
and the minimum of a run's wall times all move from run to run with the
host, not with the code.

So the benchmark reads the host's speed while it measures.  One *tick* is
a fixed sub-millisecond load: small NumPy array updates, a Python integer
loop and float formatting, the mix of sisfit's own per-cell code.  A
command is bracketed by ``BRACKET`` ticks before and after, and while it
runs a ``SIGALRM`` timer interrupts it every ``PERIOD_S`` to run one more
tick.  The ticks' own time is taken out of the command's wall time, and
the command's time is reported rescaled to one fixed tick speed:

    scaled = (wall - ticks inside) * REFERENCE_S / mean tick

A change that makes sisfit slower raises the wall time and leaves the
ticks alone, so it raises the scaled time by the same factor.  Raw wall
times and tick means are kept next to every scaled number.

On the reference host, over 30 s of sis fits of ~0.35 s each, the mean
tick of a command tracks its wall time with a log-log slope of 1.07
(correlation 0.98); scaling cut the spread of single fits from 0.22 to
0.045 (coefficient of variation).  For a ``--threads 2`` fit the ticks
compete with the workers for the interpreter lock and track it poorly
(correlation ~0.5); there scaling neither helps nor hurts much.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_N = 5000
BRACKET = 4
PERIOD_S = 0.01
# One tick's time on the reference host (x86-64, 2 vCPUs, Python 3.11,
# NumPy 2.4) in a fast phase.  Scaled times read as seconds on that host
# at that speed.
REFERENCE_S = 0.00045

_M = np.arange(64, dtype=float).reshape(8, 8) / 64.0
_sink = None  # the list that timer ticks go to, while a command runs
_installed = False


def _load(n: int) -> None:
    a = _M.copy()
    for _ in range(n // 120):
        b = a[:, 2].copy()
        a[:, 3] = a[:, 3] * 0.5 + b * 0.5
        float(np.abs(a).max())
    s = 0
    for i in range(n // 2):
        s += i * i
    ",".join(repr(i * 0.5) for i in range(n // 20))


def tick() -> float:
    """Seconds of one fixed load."""
    t0 = time.perf_counter()
    _load(TICK_N)
    return time.perf_counter() - t0


def _on_alarm(signum, frame) -> None:
    if _sink is not None:
        _sink.append(tick())


def _install() -> None:
    # The handler stays installed once set: a SIGALRM still pending after
    # the timer is stopped then finds no sink and does nothing, instead of
    # meeting the default action, which ends the process.
    global _installed
    if not _installed:
        signal.signal(signal.SIGALRM, _on_alarm)
        _installed = True


def timed(fn, inside: bool = True):
    """Run ``fn()``; return its result, its wall seconds without the ticks
    taken inside it, and the mean tick around and inside it.

    ``inside=False`` reads the speed only before and after, for work whose
    own timings a tick would disturb.
    """
    global _sink
    ticks = [tick() for _ in range(BRACKET)]
    inner = []
    if inside:
        _install()
        _sink = inner
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        if inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            _sink = None
        wall = time.perf_counter() - t0
    ticks += inner
    ticks += [tick() for _ in range(BRACKET)]
    return result, wall - sum(inner), statistics.fmean(ticks)


def scaled(wall: float, speed: float) -> float:
    """``wall`` rescaled from mean tick ``speed`` to ``REFERENCE_S``."""
    return wall * REFERENCE_S / speed
