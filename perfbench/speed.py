"""Host speed probe, used to express times in reference seconds.

On a shared host the throughput of one core drifts by up to 2x over tens of
seconds, so raw medians of two runs made minutes apart differ by more than
any useful regression bound.  The benchmark therefore times a fixed kernel
(small SciPy DCTs and NumPy elementwise ops, plus a pure-Python loop; it
does not touch the program) right before and right after every timed
interval, and reports

    reference seconds = measured seconds * NOMINAL_S / mean(probe before, probe after).

A host running the probe in NOMINAL_S seconds reads reference seconds as
plain seconds.  The raw medians are printed next to the reference ones.
"""

from __future__ import annotations

from time import perf_counter

# Probe time on the quiet 2-core host the benchmark was written on (Python
# 3.11, NumPy 2.4, SciPy 1.17, one BLAS thread).
NOMINAL_S = 0.13

_REPEATS = 15


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    import numpy as np
    from scipy.fft import dct

    start = perf_counter()
    for _ in range(_REPEATS):
        x = np.linspace(0.0, 1.0, 384).reshape(2, 192)
        for _ in range(300):
            y = dct(x, type=2, axis=-1)
            y[..., 0] *= 0.5
            x = np.stack([y[0] * 0.999 + 0.001, y[1] * 0.5])
        acc, table = 0.0, {}
        for i in range(20000):
            table[i & 255] = acc
            acc += i * 0.5
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from measured to reference seconds for an interval between two probes."""
    return NOMINAL_S / (0.5 * (before + after))
