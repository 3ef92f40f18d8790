"""Machine-speed calibration: a fixed kernel timed next to each measurement.

On the shared 2-core container this benchmark was built on, the same
CPU-bound work runs up to 2x slower for tens of seconds at a time (a
pure-Python loop's 10-second medians ranged 35–58 ms over three
minutes), and both wall and CPU time stretch with it, so a mining pass
measured at a different minute reads 36% differently (interquartile
range over median).  The kernel below — integer arithmetic, dict
updates and small matrix products, the mix the program itself runs —
is timed right before and right after each measured stretch; dividing
the stretch's time by the kernel's slowdown against ``REFERENCE_S``
cuts that spread to 16%.  Scaled times read as seconds on the machine
at its reference speed.  The kernel is the benchmark's own code, so a
change to the program cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: The kernel's median time on the reference machine at its fast speed.
REFERENCE_S = 0.018
_VECTOR = np.random.default_rng(0).normal(size=30)


def kernel() -> None:
    """Fixed work: ~18 ms on the reference machine."""
    total = 0
    for i in range(150_000):
        total += i * i
    counts: dict = {}
    for i in range(20_000):
        counts[i % 997] = counts.get(i % 997, 0) + 1
    for _ in range(2_000):
        float(np.sqrt((_VECTOR * _VECTOR).sum()))


def slowdown(repeats: int = 5) -> float:
    """How much slower than the reference the machine runs right now.

    The cyclic garbage collector is held off while the kernel runs, so a
    collection the program's garbage is due is never charged to it.
    """
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(times) / REFERENCE_S
