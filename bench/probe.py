"""The speed probes: fixed kernels whose time gives the current speed of
the CPU they run on.

A probe returns the machine's *slowness*: the kernel's time over its time
at the reference speed.  ``probe`` runs a kernel in this process and
tracks work done in a warm interpreter; ``interpreter_probe`` starts fresh
interpreters and tracks work that does, such as set-up and CLI calls.
Neither uses anything from todalab, so a change to the program never
moves them.

Importing this module sets the thread settings of ``THREAD_ENV`` before
numpy loads, so every benchmark process and every process it starts runs
one thread.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

# one thread everywhere; set before numpy loads, inherited by every child
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402

# the kernels' times at the reference speed; a machine whose probes take
# this long reports its wall times unchanged
PROBE_REF_S = 0.010
INTERPRETER_REF_S = 0.18
PROBE_BURST = 3  # a probe is the median of this many runs of the kernel
INTERPRETER_BURST = 2  # an interpreter probe is the mean of this many
_A = np.arange(9.0).reshape(3, 3) / 10.0


def _vdp(t, y):
    return [y[1], 3.0 * (1.0 - y[0] ** 2) * y[1] - y[0]]


def speed_probe() -> float:
    """Seconds for a fixed kernel of Python, small-array numpy and scipy
    work, the mix the program does."""
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += (i * i) % 7
    u = np.zeros(3)
    for _ in range(750):
        u = _A @ np.exp(np.minimum(u, 5.0)) * 1e-3 + 0.5 * u
    solve_ivp(_vdp, (0.0, 3.0), [2.0, 0.0], method="DOP853", rtol=1e-9, atol=1e-11)
    return time.perf_counter() - t0


def probe() -> float:
    """Slowness of warm in-process work: the median of a short burst of
    ``speed_probe`` over PROBE_REF_S."""
    return statistics.median(speed_probe() for _ in range(PROBE_BURST)) / PROBE_REF_S


def interpreter_probe() -> float:
    """Slowness of fresh interpreters: the mean time of a few fresh
    ``python -c "import numpy"`` over INTERPRETER_REF_S.  Imports and
    process start-up slow down differently from warm numeric work, so the
    in-process kernel does not track them."""
    times = []
    for _ in range(INTERPRETER_BURST):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.mean(times) / INTERPRETER_REF_S


def corrected(wall: float, before: float, after: float) -> float:
    """``wall`` seconds at the reference speed, given the slowness that
    probes measured just before and just after them."""
    return wall * 2.0 / (before + after)
