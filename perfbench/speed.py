"""Host speed calibration for the end-to-end times.

On a shared host the speed of the whole machine drifts: a single-threaded
CPU-bound loop timed in 10 s windows varies by 12% (quartile spread), and
in one series of runs every time, set-up included, dropped by 40% within a
minute.  Such a drift would swamp any change to the program, so each
process that times the program also times this fixed kernel between its
runs, and its times are scaled by NOMINAL_S over the median kernel time of
that process.  They read as the times the runs take at the host speed
where the kernel takes NOMINAL_S.  The median keeps the kernel's own noise
small; a per-run factor would add it to every sample.

The kernel mixes what the workloads spend their time on: interpreter work
around small numpy calls (a 2x2 complex SVD, as in the ascent and the
water-filling), and arithmetic on arrays of 24000 cells, whose temporaries
are large enough to be returned to the kernel and faulted in again, as in
the deploy raster.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: kernel time at nominal speed, about its median on the host that set the bounds
NOMINAL_S = 0.08

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((2, 2)) + 1j * _RNG.standard_normal((2, 2))
_V = _RNG.standard_normal(16)
_X = _RNG.uniform(0.0, 100.0, 24000)
_Y = _RNG.uniform(0.0, 60.0, 24000)


def kernel_s() -> float:
    """Seconds the calibration kernel takes now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        s = np.linalg.svd(_A, compute_uv=False)
        acc += float(np.log2(1.0 + s * s).sum())
        acc += float(np.abs(np.exp(1j * _V * i) @ _V))
    for i in range(30):
        d = np.maximum(np.hypot(_X - i, _Y - 30.0), 1e-3)
        gain = np.where((_X > 30.0 + i) & (_Y < 40.0), -np.inf, -20.0 * np.log10(d))
        acc += float(np.maximum(gain, -d).sum())
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def scale(times, kernels) -> list:
    """`times` at nominal speed, given the kernel times of the same process."""
    factor = NOMINAL_S / statistics.median(kernels)
    return [t * factor for t in times]
