"""Host-speed reference for scaling measured times.

On a shared virtual machine the speed of a core drifts by tens of percent
over minutes, which moves every time the benchmark takes.  A fixed kernel
timed next to every sample measures that drift: it does the same kind of
work as the engine (complex square roots and exponentials, 2x2 products on
tuples, small allocations) but shares no code with it, so a change to the
engine does not move it.  Times are reported as measured times multiplied by
``REFERENCE_S`` over the kernel time at the moment of the sample: seconds on
a host where the kernel takes ``REFERENCE_S``, which is close to the typical
speed of the 2-core Xeon KVM guest the benchmark was written on.
"""

from __future__ import annotations

import cmath
from time import perf_counter

#: Kernel time that defines the reference host, in seconds.
REFERENCE_S = 0.1
STEPS = 27_000


def _product(m, a):
    return ((m[0][0] * a[0][0] + m[0][1] * a[1][0], m[0][0] * a[0][1] + m[0][1] * a[1][1]),
            (m[1][0] * a[0][0] + m[1][1] * a[1][0], m[1][0] * a[0][1] + m[1][1] * a[1][1]))


def kernel_s() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = perf_counter()
    m = ((1 + 0j, 0j), (0j, 1 + 0j))
    for i in range(STEPS):
        k = cmath.sqrt(complex(1.0 - i * 1e-5, 0.3))
        e = cmath.exp(k * 0.01)
        m = _product(m, ((e, 1 / e), (k * e, -k / e)))
        norm = abs(m[0][0]) or 1.0
        m = tuple(tuple(x / norm for x in row) for row in m)
    return perf_counter() - t0
