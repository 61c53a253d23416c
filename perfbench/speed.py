"""Machine-speed probe that takes the host's speed swings out of the timings.

On a shared virtual machine the same job can run 25% faster or slower from
one minute to the next, and that swing is larger than any bound a time
metric can carry.  A fixed probe is timed next to every measurement: the
same mix of work as the jobs (a QUADPACK integral of a Python integrand,
small numpy array updates and a float loop), about 0.6 ms.  A measured
time t is reported at the reference speed as t * REFERENCE_S / p, where p
is the median of the probes around it.  The probe is the benchmark's own
code, so a change to ``lagsol`` moves the jobs and not the probe.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
from scipy.integrate import quad

# median probe time on the 2-core Intel Xeon VM the baseline was measured on
REFERENCE_S = 6.4e-4
WINDOW = 2   # probes on each side that a measurement is normalized by


def _integrand(t):
    return math.exp(-t * t) / (1.0 + t * t) * math.sqrt(1.0 + math.log1p(t * t))


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    t0 = perf_counter()
    quad(_integrand, 0.0, 8.0, epsabs=0.0, epsrel=1e-11, limit=200)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 1.0 + np.sin(a)
    s = 0.0
    for i in range(3000):
        s += math.sin(i * 0.001)
    return perf_counter() - t0


def at_reference_speed(times, probes):
    """times[i] rescaled by the median of probes[i - WINDOW : i + WINDOW + 1]."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 1])
        out.append(t * REFERENCE_S / local)
    return out
