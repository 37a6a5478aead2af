"""A fixed reference computation that gauges how fast the host runs right now.

On a shared host the speed of one core changes by up to 2x over seconds
to minutes, as other tenants load the same physical core, and the same
repetition can take 0.8 s in one minute and 1.6 s in the next.  Each
repetition therefore times this frozen mix of the kinds of work waveheat
does, in its own process right after the workload: a scalar complex loop
in the interpreter (the characteristic determinant), small NumPy vector
arithmetic (the energy bookkeeping), sparse LU solves (the Crank-Nicolson
step) and a dense symmetric eigensolve (resonance snapping).  It is part
of the benchmark, not of the package, so a change to waveheat never
changes it.

``run.py`` divides each repetition's times by the reference time measured
around it and multiplies by ``NOMINAL_S``: the times it gates are in
seconds as they would read at the nominal host speed.
"""

from __future__ import annotations

import cmath
import time

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

# median of about 100 reference times on a shared 2-core x86-64 VM
# (SkylakeX, 2.0 GHz, Python 3.11, one BLAS thread), which ranged from 17
# to 38 ms; only ratios to it matter
NOMINAL_S = 0.027
PASSES = 16


class _Reference:
    """Inputs built once per process, so a pass times only the work."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        n = 600
        lap = scipy.sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                                 [-1, 0, 1], format="csc")
        self.lu = scipy.sparse.linalg.splu(scipy.sparse.identity(n, format="csc") + 0.3 * lap)
        self.rhs = rng.standard_normal(n)
        a = rng.standard_normal((190, 190))
        self.sym = a + a.T
        self.vec = rng.standard_normal(400)
        self.points = [complex(x, y) for x, y in rng.uniform(-2.0, 2.0, (300, 2))]

    def once(self) -> float:
        acc = 0.0
        for _ in range(30):  # interpreter-bound scalar complex arithmetic
            for z in self.points:
                w = cmath.exp(-z) * cmath.cosh(0.5 * z) + z * z
                acc += abs(w) / (1.0 + abs(z))
        v = self.vec
        for _ in range(450):  # small-array NumPy calls
            v = 0.5 * (v + np.roll(v, 1))
            acc += float(v @ v) * 1e-9
        x = self.rhs
        for _ in range(300):  # sparse LU solves
            x = self.lu.solve(x)
        acc += float(x[0])
        acc += float(scipy.linalg.eigh(self.sym, eigvals_only=True)[0])
        return acc


def measure(passes: int = PASSES) -> float:
    """Median seconds of one reference pass, over ``passes`` passes after a warm-up pass."""
    ref = _Reference()
    ref.once()
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        ref.once()
        times.append(time.perf_counter() - t0)
    times.sort()
    mid = len(times) // 2
    return times[mid] if len(times) % 2 else 0.5 * (times[mid - 1] + times[mid])
