"""Host speed: a fixed reference kernel, and a clock scaled by it.

The benchmark runs on a few cores of a shared host whose speed drifts with
the other tenants' load: the same code takes up to about 1.6 times as long
for seconds to minutes at a time, and the guest cannot see it (process CPU
time rises with wall time; no steal is reported). A whole run can fall in
one state, so no statistic over the run's own latencies is steady from run
to run.

So the run times a fixed kernel between items, one that calls no sqkit
code: a pure-Python loop, elementwise numpy math on a 2,000-point cloud,
512-point transforms and a k-d tree query, the kinds of work that sqkit's
items do. `HostClock` divides every moment of the run by the host's factor
then, (median of the nearest kernel timings / REFERENCE_S) ** ELASTICITY,
so a slow stretch of the host shrinks back to reference speed while a
slower program stays slower. Taking only the nearest timings follows short
slow stretches, which set the latency tail. sqkit's items slow down more than
the kernel when the host is contended: against the kernel's slowdown,
their log time rose 1.2 to 1.35 times as fast (score items, across
seconds of a run and across runs) and 1.0 to 1.2 times (cli items), hence
ELASTICITY. REFERENCE_S is the kernel's median over a run on the reference
host in its fast state: a 2-vCPU Intel Xeon virtual machine, Python 3.11,
numpy 2.4, one BLAS thread.
"""

import bisect
import math
import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

REFERENCE_S = 1.5e-3
ELASTICITY = 1.25
PROBE_REPEATS = 3
NEAREST = 3 * PROBE_REPEATS  # three probes
STEP_S = 0.1  # the probes' spacing in run.py

_rng = np.random.default_rng(2023)
_CLOUD = np.abs(_rng.normal(size=(2000, 3))) + 0.1
_TEMPLATE = _rng.normal(size=(512, 3))
_TURN = np.linalg.qr(_rng.normal(size=(3, 3)))[0]
_TREE = cKDTree(_TEMPLATE)


def kernel():
    """The reference work; its result only keeps it from being skipped."""
    s = 0
    for k in range(5000):
        s += k * k % 7
    acc = float(s)
    for _ in range(8):
        acc += float(np.sum(np.power(_CLOUD, 0.7) ** 1.3))
    for _ in range(12):
        moved = _TEMPLATE @ _TURN.T + 0.01
        acc += float(np.max(np.linalg.norm(moved - _TEMPLATE, axis=1)))
    acc += float(_TREE.query(_TEMPLATE @ _TURN.T)[0].max())
    return acc


def probe():
    """Times the kernel PROBE_REPEATS times: a list of (start, seconds)."""
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        kernel()
        samples.append((t0, time.perf_counter() - t0))
    return samples


def factor(samples):
    """How many times slower than at reference speed sqkit runs during `samples`.

    The kernel's median slowdown raised to ELASTICITY; above 1 on a slow host.
    """
    return (statistics.median(d for _, d in samples) / REFERENCE_S) ** ELASTICITY


class HostClock:
    """Maps perf_counter intervals of one run to seconds at reference speed.

    The host's factor at time t comes from the NEAREST probe samples closest
    to t; an interval is cut into steps of at most STEP_S, each divided by
    the factor at its middle.
    """

    def __init__(self, samples):
        self.samples = sorted(samples)
        self.times = [t for t, _ in self.samples]
        self.overall = factor(self.samples)

    def factor_at(self, t):
        i = bisect.bisect_left(self.times, t)
        around = self.samples[max(0, i - NEAREST):i + NEAREST]
        return factor(sorted(around, key=lambda s: abs(s[0] - t))[:NEAREST])

    def scaled(self, t0, t1):
        """Length of [t0, t1] at reference speed."""
        steps = max(1, math.ceil((t1 - t0) / STEP_S))
        width = (t1 - t0) / steps
        return sum(width / self.factor_at(t0 + (k + 0.5) * width) for k in range(steps))
