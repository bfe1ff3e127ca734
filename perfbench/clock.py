"""Wall times rescaled to a reference machine speed.

On a shared host the speed of the same serial code drifts by up to a factor of
two within minutes, and its CPU time drifts with it (other tenants share the
cores, caches and memory), so raw wall times of identical runs spread by
20-35%. The benchmark therefore runs a fixed calibration kernel about once a
second. The kernel does the same kinds of work rcdlab does (interpreted Python
loops, HiGHS transport LPs, NumPy exp/log reductions) but uses none of
rcdlab's code. Wall time is rescaled by ``REFERENCE_S`` over the kernel's time
measured around it, so a change to rcdlab moves the rescaled times as it would
move raw times at a fixed machine speed. Raw times are reported alongside.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# the kernel's time at the reference speed; rescaled values are in seconds at that speed
REFERENCE_S = 0.2
# seconds between two runs of the kernel
INTERVAL_S = 1.0

_N = 48
_pos = np.arange(_N) / _N
_arc = np.abs(_pos[:, None] - _pos[None, :])
_COST = (np.minimum(_arc, 1.0 - _arc) ** 2).ravel()
_rng = np.random.default_rng(0)
_MARGINALS = np.concatenate([_rng.dirichlet(np.ones(_N)), _rng.dirichlet(np.ones(_N))])
_A_EQ = sparse.vstack([
    sparse.kron(sparse.eye(_N), np.ones((1, _N))),
    sparse.kron(np.ones((1, _N)), sparse.eye(_N)),
]).tocsr()
_ARRAY = _rng.normal(size=(256, 256))


def rescale(seconds, calibration):
    return seconds * REFERENCE_S / calibration


def calibrate():
    """Seconds taken by the fixed calibration kernel, now."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    for _ in range(8):
        linprog(_COST, A_eq=_A_EQ, b_eq=_MARGINALS, bounds=(0, None), method="highs")
    for _ in range(30):
        a = _ARRAY - _ARRAY.max(axis=1, keepdims=True)
        np.log(np.exp(a).sum(axis=1))
    return time.perf_counter() - start


class Clock:
    """Samples the machine's speed about once a second and rescales wall times
    to the reference speed.

    While running, a SIGALRM handler runs the calibration kernel every
    ``INTERVAL_S``. Program time is wall time minus the time spent in the
    handler. Between two consecutive samples, program time is scaled by
    ``REFERENCE_S`` over the mean of the two samples' kernel times. The
    handler runs between Python bytecodes, so it never splits a native call.
    """

    def __init__(self):
        self.samples = []  # (program time, kernel seconds)
        self._paused = 0.0
        self._busy = False
        self.sample()

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        cal = calibrate()
        self.samples.append((start - self._paused, cal))
        self._paused += time.perf_counter() - start
        self._busy = False

    def now(self):
        """Program time; the handler cannot run between the two reads."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter() - self._paused
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, a, b):
        """Reference seconds of the program-time interval [a, b], which must
        lie between the first and the last sample."""
        total = 0.0
        for (p0, c0), (p1, c1) in zip(self.samples, self.samples[1:]):
            lo, hi = max(a, p0), min(b, p1)
            if hi > lo:
                total += rescale(hi - lo, 0.5 * (c0 + c1))
        return total
