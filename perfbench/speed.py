"""Host speed probe: rescales a timed span to a fixed reference speed.

On a shared host the speed of one core changes by up to 2.5x within
seconds, as other tenants come and go, and a whole run can fall in a slow
or a fast stretch.  A plain wall-clock median then measures the host, not
the program.  A `Probe` measures the host alongside the span instead:

* every `interval_s` a SIGALRM runs a fixed probe kernel of about 1 ms
  in the thread that runs the span, so it sees the core the span runs on;
* the span's own time is its wall time minus the time spent in the probe;
* `seconds` is that own time times `reference_s / probe time`: the span's
  time on a host that runs the probe in `reference_s`.  The probe time is
  the mean of the middle half of the probe runs, so that a run hit by an
  interrupt does not count, while a span that straddles a change of speed
  still gets the mean speed over its length.

A change in the program moves `seconds` as much as it moves the wall time;
a change in the host's speed moves both the span and the probe, and
cancels.  Only the main thread can use a `Probe` (a Python signal
handler runs there), and spans must not nest.

`numpy_kernel` tracks the lfe hot path (small NumPy arrays under Python
control); `python_kernel` needs no NumPy and tracks `import` and
configuration parsing, which run before NumPy is loaded.
"""

from __future__ import annotations

import signal
from time import perf_counter

# Mean probe time on the host the benchmark was written on (x86-64 at
# 2.1 GHz, 2 vCPUs, Python 3.11, NumPy 2) in its fast stretches; it
# fixes the unit of `Probe.seconds`, not the comparison of two runs.
NUMPY_REFERENCE_S = 0.00062
PYTHON_REFERENCE_S = 0.00016


def python_kernel():
    """A probe of function calls, dict and string work, without NumPy."""

    def kernel() -> None:
        table = {}
        for i in range(300):
            key = "k%d" % (i % 37)
            table[key] = table.get(key, 0) + len(key.upper())
        sorted(table.items())

    return kernel


def numpy_kernel():
    """A probe of small NumPy operations driven from Python, like the lfe hot path."""
    import numpy as np

    points = np.random.default_rng(0).random((64, 3))
    state = np.zeros(6)

    def kernel() -> None:
        for i in range(25):
            v = points[i]
            r = float(np.dot(v, v)) ** 0.5
            state[:3] = v / (r + 1.0)
            state[3:] = np.cross(v, state[:3])

    return kernel


class Probe:
    """Times one span and rescales it to the reference speed of `kernel`."""

    def __init__(self, kernel, reference_s: float, interval_s: float = 0.05):
        self.kernel = kernel
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.raw_s = 0.0
        self.probe_s: list[float] = []  # duration of each kernel run
        self._in_probe_s = 0.0  # wall time the span spent in the signal handler
        self._previous = None
        self._start = 0.0
        kernel()  # first run outside any span: lazy set-up and cold caches

    def _sample(self) -> None:
        t0 = perf_counter()
        self.kernel()
        self.probe_s.append(perf_counter() - t0)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self._sample()
        self._in_probe_s += perf_counter() - t0

    def __enter__(self) -> Probe:
        self.probe_s = []
        self._in_probe_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw_s = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # so that a span shorter than the interval has a sample too
        return False

    @property
    def own_s(self) -> float:
        """The span's wall time without the probe runs inside it."""
        return self.raw_s - self._in_probe_s

    @property
    def slowdown(self) -> float:
        """Probe time over the reference: above 1 on a slow stretch."""
        runs = sorted(self.probe_s)
        middle = runs[len(runs) // 4 : len(runs) - len(runs) // 4]
        return sum(middle) / len(middle) / self.reference_s

    @property
    def seconds(self) -> float:
        """The span's own time at the reference speed."""
        return self.own_s / self.slowdown
