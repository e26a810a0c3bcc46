"""Host-speed calibration: a fixed kernel that touches no uavcov code.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz), the reference
host of baseline.json, the speed of the same code drifts by 20-40 % over
minutes. Neighbouring machines load the shared caches and memory. Process
CPU time drifts with wall time, so it does not help; longer runs do not
average it out either. A streaming numpy kernel timed between the passes of
the same run tracks that drift. Over 15 s blocks, the spread of the median
pass fell from 0.16-0.24 to 0.04-0.08 of the median when divided by the
kernel's time. Shorter kernels, pure interpreter kernels and kernels that
allocate tracked worse.

So the worker times the Calibrator's kernel before every timed pass, outside
the timed region, and run.py scales each end-to-end time to a host on which
the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / median(kernel seconds in that run)

The raw times and the factor are kept beside the scaled values in the
report and the result file. A change to uavcov cannot move the kernel, so
a slower or faster program still shows in full.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.060  # the kernel's typical time on the reference host
KERNEL_SAMPLES_AFTER_SETUP = 3
_N = 200_000


class Calibrator:
    """Times a fixed streaming kernel on buffers allocated once.

    Nothing is allocated while the kernel runs, so its time does not depend
    on the allocator state the workload leaves behind.
    """

    def __init__(self):
        self._x = np.empty(_N)
        self._y = np.empty(_N)
        self._starts = np.arange(0, _N, 100)
        self._sums = np.empty(self._starts.size)

    def measure(self):
        """Seconds one run of the kernel takes now: 30 x (draw, sqrt, power, segment sums)."""
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        for _ in range(30):
            rng.random(out=self._x)
            np.sqrt(self._x, out=self._y)
            np.power(self._y, -1.37, out=self._y)
            np.add.reduceat(self._y, self._starts, out=self._sums)
        return time.perf_counter() - start


def speed_factor(samples):
    """Multiply a time measured alongside `samples` by this to scale it to the reference host."""
    return REFERENCE_S / statistics.median(samples)
