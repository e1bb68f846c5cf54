"""Host-speed probe: rescales CPU times to a nominal host speed.

On a shared machine the speed the host gives one process drifts by up
to 1.5x within minutes, and it reaches Python, numpy and sparse kernels
to different degrees.  A calibration run just before and after a pass
tracked the pass time poorly (correlation 0.5-0.8); samples taken
during the pass tracked it well (0.85-0.92).  So the probe runs inside
the pass: a CPU-time timer (``ITIMER_PROF``) interrupts the pass every
``EVERY_S`` CPU seconds and times three fixed kernels, one per kind of
work srlab does: interpreted Python (dicts of tuples, as in the jet and
frame code), numpy elementwise arithmetic on path-sized arrays (as in
the Monte Carlo layer) and a sparse matrix-vector product with a
grid-sized 7-point stencil (as in the PDE conjugate gradient).  A
sample is also taken when the probe starts and when it stops, so every
pass has some.

The slowdown of a stretch of time is the geometric mean over the
kernels of the kernel's median time in the stretch over its nominal
time; the stretch's CPU time is divided by it.  Each check is a
stretch, and the time the probe spends is taken out of the check it
interrupted; set-up is rescaled by ``SETUP_SAMPLES`` samples taken
right after it.  The kernels are part of the benchmark, not of srlab,
so a change to srlab moves the rescaled times as much as the raw ones.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp

EVERY_S = 0.1      # CPU seconds between samples
MIN_SAMPLES = 8    # fewer samples in a check: use the whole pass's slowdown
SETUP_SAMPLES = 10
# Typical kernel times on an Intel Xeon host with 2 vCPUs (Python 3.11,
# numpy 2.4); they set the scale of the rescaled times and nothing else.
NOMINAL_S = {"py": 7.0e-4, "np": 4.5e-4, "sp": 1.7e-3}
KERNELS = list(NOMINAL_S)
_GRID = (37, 37, 31)  # the pde-grid workload's grid
_PATHS = 16000        # about the path count of the mc-paths workload


def _stencil(shape: tuple[int, int, int]) -> sp.csr_matrix:
    """A 7-point stencil matrix on a grid of this shape (C order)."""
    n = shape[0] * shape[1] * shape[2]
    offsets = [0, 1, -1, shape[2], -shape[2], shape[1] * shape[2], -shape[1] * shape[2]]
    diagonals = [np.full(n - abs(k), -1.0 if k else 6.0) for k in offsets]
    return sp.diags(diagonals, offsets, format="csr")


class Probe:
    """Samples the three kernels on a CPU-time timer while it runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal(_PATHS)
        self._b = rng.standard_normal(_PATHS)
        self._stencil = _stencil(_GRID)
        self._x = np.ones(self._stencil.shape[0])
        self.label = None   # the check running now
        self.samples: list[tuple[str | None, dict]] = []
        self.spent = 0.0    # CPU seconds spent in the kernels of ``samples``
        self.slowdown_now(3)  # warm-up

    def _py(self):
        d, s = {}, 0.0
        for i in range(1500):
            k = (i % 97, i % 13)
            d[k] = d.get(k, 0.0) + i * 0.5
            s += d[k]
        return s

    def _np(self):
        a = self._a.copy()
        for _ in range(10):
            a = a * self._b + 0.5 * self._a
        return a

    def _sp(self):
        for _ in range(3):
            y = self._stencil @ self._x
        return y

    def _time_kernels(self) -> dict:
        times = {}
        for name, fn in (("py", self._py), ("np", self._np), ("sp", self._sp)):
            t0 = time.perf_counter()
            fn()
            times[name] = time.perf_counter() - t0
        return times

    def _sample(self, *_):
        c0 = time.process_time()
        self.samples.append((self.label, self._time_kernels()))
        self.spent += time.process_time() - c0

    def slowdown_now(self, n: int) -> float:
        """The slowdown over ``n`` samples taken now, which are not kept."""
        return slowdown([self._time_kernels() for _ in range(n)])

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()


def slowdown(samples: list[dict]) -> float:
    """Median kernel times over nominal, combined by geometric mean."""
    logs = [math.log(statistics.median(s[k] for s in samples) / NOMINAL_S[k]) for k in KERNELS]
    return math.exp(sum(logs) / len(logs))


def rescale(times: dict[str, float], samples: list[list]) -> dict[str, float]:
    """Each check's time at nominal host speed.

    ``samples`` are ``[label, {kernel: seconds}]`` pairs of one pass.  A
    check is rescaled by the samples taken while it ran, or by all the
    pass's samples when it holds fewer than ``MIN_SAMPLES``.
    """
    whole = slowdown([s for _, s in samples])
    out = {}
    for key, t in times.items():
        own = [s for label, s in samples if label == key]
        out[key] = t / (slowdown(own) if len(own) >= MIN_SAMPLES else whole)
    return out
