"""Host-speed probe for the ``spsa`` workload.

On the shared 2-vCPU host the benchmark was defined on, the same SPSA
command runs at one of two speeds about 40 % apart, and the host switches
between them every few seconds to few minutes, most likely as other tenants
load the same cores.  ``spsa`` is bound by per-step Python overhead on
100-row arrays, which that switch moves most: in ten 40 s runs of the same
code, trajectory-steps per second read 124 000-132 000 in six runs and
151 000-178 000 in four, while ``solve`` and ``montecarlo``, which spend
more of their time in larger arrays, spread by 0.06 and 0.04 of their
median in the same half hour and are not scaled.

The probe times a fixed loop of the same kind of NumPy calls on 100-row
arrays, about 45 ms long, before and after each measured ``spsa`` command,
outside the measured time.  The command's time is divided by the mean
slowdown of the two probes, so ``work_per_s`` on ``spsa`` is the rate at
the probe's nominal speed.  The probe calls no phasestop code, so no change
to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds on that host in its faster state: the slowdown is 1.0 there.
NOMINAL_S = 0.042


def slowdown(n: int = 1500) -> float:
    """How much slower than nominal the host runs the probe loop now."""
    rng = np.random.default_rng(0)
    a, m = rng.random((100, 3)), rng.random((3, 3))
    t0 = time.perf_counter()
    for _ in range(n):
        b = a @ m
        b /= b.sum(axis=1, keepdims=True)
        c = (rng.random(100)[:, None] > np.cumsum(b, axis=1)).sum(axis=1)
        a = np.where(c[:, None] > 0, b, a)
    return (time.perf_counter() - t0) / NOMINAL_S
