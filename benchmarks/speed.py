"""Machine-speed calibration, so timings from a shared host can be compared.

On a virtual machine that shares its host, the same call can take 1.0x to
1.6x its usual time for seconds at a stretch, and whole runs drift by 30%.
The benchmark therefore times a fixed calibration loop every ``INTERVAL_S``
seconds between calls and rescales each call's wall time ``t`` to the
reference speed: ``t * REFERENCE_S / c``, where ``c`` is the median loop time
of the samples taken within ``WINDOW_S`` of the call.  The loop does not call
the program, so a change to the program cannot move ``c``.  Wall times are
kept alongside in the run record.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: the calibration loop's time on the reference machine (2-core Intel Xeon
#: VM, Python 3.11.7, numpy 2.4.6) while its host is quiet; rescaled times
#: read as seconds on that machine.  Busy spells there measure about 2.8 ms.
REFERENCE_S = 1.7e-3
#: calibration samples are taken at most this often during a run
INTERVAL_S = 0.2
#: a sample is the fastest of this many back-to-back loops, which drops
#: loops hit by a scheduling blip
BURST = 3
#: a call is rescaled by the median of the samples taken while it ran or
#: within this many seconds before or after it
WINDOW_S = 0.5

_X = np.linspace(0.0, 1.0, 48)


def calibration_loop() -> float:
    """A fixed mix of small-array numpy calls and interpreted arithmetic.

    It resembles the program's hot paths (curve evaluation on tens of points,
    chord sums, Python-level loops), so host contention slows both alike.
    """
    acc = 0.0
    for k in range(60):
        y = np.sin(2.0 * math.pi * (_X + 0.01 * k))
        z = np.stack((y * np.cos(_X), y * np.sin(_X)), axis=-1)
        d = np.roll(z, -1, axis=0) - z
        acc += float(np.sum(np.sqrt(np.sum(d * d, axis=-1))))
        acc += sum(math.sqrt(i + k) for i in range(40))
    return acc


class SpeedProbe:
    """Calibration samples along a run, and rescaling of wall times by them."""

    def __init__(self):
        self.times: list[float] = []       # sample times (perf_counter)
        self.durations: list[float] = []   # fastest loop of each burst
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Take a sample, unless the last one is recent and this is not forced."""
        if not force and time.perf_counter() - self._last < INTERVAL_S:
            return
        loops = []
        for _ in range(BURST):
            start = time.perf_counter()
            calibration_loop()
            loops.append(time.perf_counter() - start)
        self._last = time.perf_counter()
        self.times.append(start)
        self.durations.append(min(loops))

    def rescale(self, start: float, elapsed: float) -> float:
        """Wall time ``elapsed`` begun at ``start``, in reference seconds."""
        t, d = np.asarray(self.times), np.asarray(self.durations)
        near = d[(t >= start - WINDOW_S) & (t <= start + elapsed + WINDOW_S)]
        local = float(np.median(near)) if near.size else float(np.interp(start, t, d))
        return elapsed * REFERENCE_S / local

    def median_factor(self) -> float:
        """REFERENCE_S over the run's median sample: a whole-run rescaling."""
        return REFERENCE_S / float(np.median(self.durations))
