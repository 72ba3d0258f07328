"""Host speed probe: a fixed reference kernel, timed throughout every run.

The benchmark runs on a few vCPUs of a shared host whose speed drifts with
the load of its other tenants: the same op list runs 10-30 % slower in one
hour than in another, and by up to 25 % between runs a minute apart. That
drift is larger than the bounds the end-to-end timings are held to, so the
timings are reported at the reference host speed instead: every run times
:func:`reference_kernel` at evenly spaced points between ops, and
``speed = REF_KERNEL_S / kernel time`` scales each raw time
``t`` to ``t * speed`` (and each rate ``r`` to ``r / speed``). The raw
wall-clock values and ``speed`` are reported beside them.

The kernel touches nothing of qsysid and its inputs are fixed, so a change
to the library cannot change it; it mixes the kinds of work the workloads
do (a Python-level loop over small complex solves, one mid-size complex
eigenproblem, JSON round trips) so that it slows down with them.
"""

from __future__ import annotations

import json
import time

import numpy as np

# About the kernel's time on the reference host (2-vCPU x86_64 VM, OpenBLAS
# one thread, Python 3.11, NumPy 2.4), where it read 2.5-3.7 ms over an
# hour. It sets the scale of the reported times only: a speed of 1 means
# that the run saw the reference host at that speed.
REF_KERNEL_S = 3.0e-3
# Most kernel samples per second of run time; about 1 % of the run.
SAMPLES_PER_S = 4.0

_rng = np.random.default_rng(20130315)
_SMALL = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_RHS = _rng.standard_normal((6, 1)) + 0j
_FREQS = np.geomspace(0.01, 100.0, 60)
_MID = _rng.standard_normal((40, 40)) + 1j * _rng.standard_normal((40, 40))
_DOC = {
    "m": 1,
    "rows": [[{"re": float(x), "im": -float(x)} for x in row]
             for row in _rng.standard_normal((12, 12))],
}


def reference_kernel() -> float:
    """Seconds one pass of the fixed kernel takes."""
    t0 = time.perf_counter()
    eye = np.eye(6)
    for w in _FREQS:
        np.linalg.solve(1j * w * eye - _SMALL, _RHS)
    np.linalg.eigvals(_MID)
    json.loads(json.dumps(_DOC))
    return time.perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Host speed relative to the reference host; below 1 when slower.

    The kernel's time is the interquartile mean of its samples. The host
    switches between faster and slower states within seconds and the
    workload's time averages over them, so a mean tracks it where a median
    jumps between the states; dropping the outer quartiles keeps out
    samples slowed by something else, such as a child process exiting just
    before. Over 16-s windows of a fixed op list this cut the windows'
    coefficient of variation from 0.049 to 0.029 (identify_small), 0.049 to
    0.029 (certify_large) and 0.038 to 0.030 (cli_cold).
    """
    times = np.sort(np.asarray(samples, dtype=float))
    cut = times.size // 4
    return REF_KERNEL_S / float(times[cut:times.size - cut].mean())
