"""Host speed, sampled between the timed cells of a pass.

The hosts this benchmark runs on can drift in speed by tens of percent over
seconds to minutes, in CPU time as much as in wall time, so raw pass times of
the same code on different runs disagree by more than a regression bound. A
fixed calibration kernel, independent of natcone, runs after every timed cell
for ``SHARE`` of that cell's time. It mixes the three kinds of work the
solver does: an interpreter loop, small numpy operations and a dense LU
factorization. A pass's slowdown is the mean, over the three kinds, of the
kernel's time divided by its reference time; a pass time divided by that
slowdown is the time the pass would take on the reference host.
"""

from __future__ import annotations

import statistics
import time

import numpy
from scipy.linalg import lu_factor  # bound here, so traced passes do not see it

SHARE = 0.1
# Seconds per run of each kernel on the reference host, a fast phase of a
# 2-vCPU Intel Xeon VM with Python 3.11, numpy 2.4, scipy 1.17 and one BLAS
# thread.
REFERENCE_S = (4.1e-4, 3.8e-4, 3.0e-4)

_RNG = numpy.random.default_rng(0)
_SMALL = _RNG.standard_normal((6, 6))
_DENSE = _RNG.standard_normal((200, 200))


def _interpreter():
    total = 0
    for i in range(8000):
        total += i * i
    return total


def _small_arrays():
    x = _SMALL
    for _ in range(30):
        x = (x @ _SMALL.T + _SMALL) * 0.1
        numpy.linalg.eigh(x + x.T)
    return x


def _dense():
    return lu_factor(_DENSE)


KERNELS = (_interpreter, _small_arrays, _dense)


class HostSpeed:
    """Slowdown of the host against the reference, sampled during one pass."""

    def __init__(self):
        self._next = 0
        self.reset()

    def reset(self):
        self._owed = 0.0
        self._spent = [0.0] * len(KERNELS)
        self._runs = [0] * len(KERNELS)

    def sample(self, seconds):
        """Run kernels for SHARE of ``seconds``, carrying any shortfall forward."""
        self._owed += SHARE * seconds
        while self._owed > 0.0:
            k = self._next
            t0 = time.perf_counter()
            KERNELS[k]()
            dt = time.perf_counter() - t0
            self._spent[k] += dt
            self._runs[k] += 1
            self._owed -= dt
            self._next = (k + 1) % len(KERNELS)

    def slowdown(self):
        """Mean ratio of kernel time to reference time since the last reset."""
        return statistics.fmean(
            spent / runs / ref
            for spent, runs, ref in zip(self._spent, self._runs, REFERENCE_S)
            if runs
        )
