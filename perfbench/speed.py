"""Machine-speed calibration for the gated time metrics.

The machine the benchmark was written on (a 2-vCPU Intel Xeon VM at
2.1 GHz on a shared host) flips between a fast and a slow state, 1.5-1.8x
apart, every second or so, and the share of time in each drifts over
minutes. Raw wall times of one program version then spread by 0.1-0.35
(IQR over median) across runs. So every gated time is scaled by the speed
the machine had while that time was measured.

That speed comes from ``kernel``: a fixed mix of interpreted Python and
small numpy array operations (the micro shapes of the deep model). It
imports nothing from ``jitdp``, so a change to the program cannot change
it. While a phase of timed work runs, a timer signal interrupts it every
``PERIOD_S`` and the handler runs the kernel for ``CALIBRATION_S``; the
handler's time is taken out of the measured time. A scaled time is

    net seconds * REF_KERNEL_S / (mean kernel time during the phase)

for a main unit or the set-up, and for a single-commit call the same with
the mean kernel time of the calibrations either side of it. So a scaled
time reads as the time on a machine where the kernel takes REF_KERNEL_S,
about its mean on the machine above. Raw times are reported next to the
scaled ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

# About the mean kernel time on the machine named above.
REF_KERNEL_S = 0.75e-3

_rng = np.random.default_rng(0)
_A = _rng.random((32, 48))
_B = _rng.random((32, 48))
_IDX = _rng.integers(0, 48, size=(32, 48))


def kernel() -> float:
    table: dict = {}
    for i in range(600):
        key = i % 97
        table[key] = table.get(key, 0) + i
    acc = 0.0
    for _ in range(30):
        x = np.maximum(_A * _B - 0.25, 0.0)
        acc += float(x.sum(axis=1)[3])
        np.take_along_axis(_A, _IDX, 1)
    return acc


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Phase:
    """Kernel times and calibration pauses of one phase of timed work."""

    def __init__(self):
        self.kernel_times: list[float] = []
        self.calibrations: list[float] = []  # mean kernel time of each
        self.paused = 0.0

    def factor(self) -> float:
        """Scale from net to scaled times for the whole phase; 1 when
        nothing was calibrated."""
        if not self.kernel_times:
            return 1.0
        return REF_KERNEL_S / statistics.fmean(self.kernel_times)

    def local_factors(self, marks: list[int]) -> list[float]:
        """Scales for short calls: a call made after calibration k-1 and
        before calibration k (mark k) is scaled by the mean of the two, so
        that it follows the fast and slow spells the phase went through."""
        cal = self.calibrations
        if not cal:
            return [1.0] * len(marks)
        return [REF_KERNEL_S / ((cal[k - 1] + cal[min(k, len(cal) - 1)]) / 2) for k in marks]


class Clock:
    """Calibrates the machine speed during phases of timed work."""

    PERIOD_S = 0.25
    CALIBRATION_S = 0.01

    def __init__(self):
        self.enabled = True
        self.phases: list[Phase] = []
        self._current: Phase | None = None

    def _calibrate(self) -> None:
        phase = self._current
        start = perf_counter()
        times = []
        while perf_counter() < start + self.CALIBRATION_S:
            times.append(kernel_seconds())
        phase.kernel_times.extend(times)
        phase.calibrations.append(statistics.fmean(times))
        phase.paused += perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        if self._current is not None:
            self._calibrate()

    @contextlib.contextmanager
    def phase(self):
        """Calibrate once on entry and then every PERIOD_S until the block
        ends. The block subtracts ``phase.paused`` from what it times."""
        phase = Phase()
        self.phases.append(phase)
        if not self.enabled:
            yield phase
            return
        self._current = phase
        self._calibrate()
        phase.paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield phase
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._current = None

    def kernel_times(self) -> list[float]:
        return [t for phase in self.phases for t in phase.kernel_times]
