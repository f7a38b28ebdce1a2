"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants the same request can
take 1.6 times longer for seconds to tens of seconds at a time, so plain
wall time differs by 20% from one run to the next. While a run measures,
:class:`Sampler` times a fixed calibration kernel every few milliseconds
from a timer signal, between requests and inside long ones, and each
request's time is scaled to a reference kernel time:

    reported = time * REF_KERNEL_S / (mean kernel time over the request)

where the mean covers the samples taken during the request and the one
just before and just after it. The kernel does the kind of work the engine
does (small complex LAPACK SVDs and interpreted Python), touches no engine
state, and keeps its own reference to ``numpy.linalg.svd`` so the traced
run's wrappers never see it. The time a sample spends inside a request is
taken out of that request's time.

``REF_KERNEL_S`` is a fixed constant near the kernel's time on an
uncontended core of the machine the benchmark was written on (2 vCPUs,
x86_64, OpenBLAS 0.3.31), so reported times read roughly as wall times
there. On other hardware they are in the same fixed unit, so they stay
comparable between commits, which is what the benchmark is for.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

REF_KERNEL_S = 110e-6
SAMPLE_EVERY_S = 0.02
_REPEATS = 3

_svd = getattr(np.linalg.svd, "__wrapped__", np.linalg.svd)
_rng = np.random.default_rng(20170602)
_SMALL = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(4)]
_MEDIUM = _rng.standard_normal((10, 10)) + 1j * _rng.standard_normal((10, 10))


def _body() -> float:
    t0 = time.perf_counter()
    for a in _SMALL:
        _svd(a, compute_uv=False)
    _svd(_MEDIUM)
    counts: dict[int, int] = {}
    for k in range(100):
        counts[k & 7] = counts.get(k & 7, 0) + k
    return time.perf_counter() - t0


def kernel_s() -> float:
    """Median of a few back-to-back kernel timings (one is easily hit by an interrupt)."""
    return sorted(_body() for _ in range(_REPEATS))[_REPEATS // 2]


class Sampler:
    """Kernel samples every SAMPLE_EVERY_S of wall time while the block runs.

    Samples are taken by a SIGALRM handler, so only from the main thread;
    the previous handler and timer are restored on exit. A tick that finds
    a request younger than SAMPLE_EVERY_S running is put off until that
    request returns, so short requests are never interrupted; only long
    ones are sampled inside.
    """

    def __init__(self):
        self.at = array("d")
        self.kernel = array("d")
        self.spent = array("d")
        self._request_start = None
        self._pending = False
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        try:
            t0 = time.perf_counter()
            k = kernel_s()
            self.at.append(t0)
            self.kernel.append(k)
            self.spent.append(time.perf_counter() - t0)
        finally:
            self._sampling = False

    def _tick(self, *_signal_args) -> None:
        if self._sampling:
            # a tick inside a sample: keep the samples in time order
            return
        start = self._request_start
        if start is not None and time.perf_counter() - start < SAMPLE_EVERY_S:
            self._pending = True
        else:
            self.sample()

    def request_started(self, t0: float) -> None:
        self._request_start = t0

    def request_ended(self) -> None:
        self._request_start = None
        if self._pending:
            self._pending = False
            self.sample()

    @property
    def latest(self) -> float:
        return self.kernel[-1]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def spent_inside(self, starts, ends) -> np.ndarray:
        """Sampling time that fell inside each interval [start, end]."""
        at = np.frombuffer(self.at)
        cum = np.concatenate([[0.0], np.cumsum(np.frombuffer(self.spent))])
        lo = np.searchsorted(at, starts, side="right")
        hi = np.searchsorted(at, ends, side="left")
        return cum[hi] - cum[lo]

    def factors(self, starts, ends) -> np.ndarray:
        """REF_KERNEL_S over the mean kernel time around and inside each interval."""
        at = np.frombuffer(self.at)
        cum = np.concatenate([[0.0], np.cumsum(np.frombuffer(self.kernel))])
        lo = np.maximum(np.searchsorted(at, starts, side="right") - 1, 0)
        hi = np.minimum(np.searchsorted(at, ends, side="left"), len(at) - 1)
        return REF_KERNEL_S * (hi + 1 - lo) / (cum[hi + 1] - cum[lo])
