"""Fixed references that track the host's speed.

On the 2-core x86 container where this benchmark was written, the host changes
speed by tens of percent over periods of 2 to 30 s, and process CPU time moves
with wall time, so the variation comes from the host, not the scheduler. A
job's wall time divided by the time of a reference kernel, measured just
before and just after the job, cancels much of that drift.

Two references are used, each for the kind of work it matches:

- ``Reference`` times cache-resident sparse products and a Python loop, in the
  process that runs the jobs. It is the yardstick for the timed jobs and for
  the set-up's pinned inputs and plans, on every workload: adding fresh pages
  or small-file writes helped one workload and hurt another (README.md,
  Steadiness).
- ``import_reference_seconds`` times the import of dosekit's third-party
  dependencies in a fresh interpreter. It is the yardstick for importing
  dosekit, which is file reads, unmarshalling and shared-library loading that
  the in-process kernel does not follow. The list is pinned, so a change to
  dosekit's own imports moves the import time and not its reference.

The references use Python, numpy and scipy only, never dosekit, so a change to
dosekit cannot change them.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy.sparse as sp

# Seconds each reference takes at the host speed that set-up times are quoted
# in (``metrics.setup_seconds``): the medians measured on the 2-core x86
# container where the benchmark was written.
KERNEL_NOMINAL_S = 0.04
IMPORT_NOMINAL_S = 0.27
# What dosekit imports from outside the standard library at the commit that
# added the benchmark.
REFERENCE_IMPORTS = "numpy, scipy.sparse, scipy.special"


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = sp.random(600, 336, density=0.12, random_state=rng, format="csr")
        self._x = rng.random(336)
        self._y = rng.random(600)

    def seconds(self) -> float:
        """Wall time of cache-resident sparse products, as in the CP solver, and a Python loop."""
        t0 = perf_counter()
        for _ in range(300):
            r = self._a.T @ (self._a @ self._x - self._y)
        total = 0
        for i in range(80000):
            total += i * i
        seconds = perf_counter() - t0
        _check(np.isfinite(r).all() and total > 0)
        return seconds


def import_seconds(modules: str, path: str = "") -> float:
    """Time to import ``modules`` in a fresh interpreter, timed inside it.

    ``path`` is put first on the child's ``sys.path``.
    """
    code = f"from time import perf_counter as c; t = c(); import {modules}; print(c() - t)"
    if path:
        code = f"import sys; sys.path.insert(0, {path!r}); " + code
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=120)
    return float(out.stdout)


def import_reference_seconds() -> float:
    return import_seconds(REFERENCE_IMPORTS)


def _check(ok: bool) -> None:
    if not ok:
        raise ArithmeticError("reference kernel produced a wrong result")


def normalized(jobs: list[tuple[float, float]], refs: list[tuple[float, float]]) -> list[float]:
    """Each job's seconds over the mean of the reference samples that bracket it.

    ``jobs`` and ``refs`` are (start time, seconds) in time order; the first
    reference sample precedes the first job and the last follows the last job.
    """
    times = [t for t, _ in refs]
    out = []
    k = 0
    for start, seconds in jobs:
        while k + 1 < len(times) and times[k + 1] <= start:
            k += 1
        after = refs[min(k + 1, len(refs) - 1)][1]
        out.append(seconds / ((refs[k][1] + after) / 2.0))
    return out

