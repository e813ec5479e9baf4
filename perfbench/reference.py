"""Reference kernels: fixed work outside the package, timed between a
worker's operations to follow how fast the machine runs at that moment.

On a shared machine the same operation can run up to twice as slowly for
seconds or minutes while other tenants load the host, and the thread's CPU
time changes just as much as its wall time.  A worker therefore times a
reference kernel before its first operation, after every
``CALIBRATE_EVERY_S`` of operations (per kernel) and after its last, and
reports each operation at reference speed: its latency times the kernel's
reference time over the mean of the two kernel times that bracket it.  The
kernels never call the package, so a change to the package moves the scaled
latencies as much as the raw ones.

Each operation is scaled by the kernel whose work is most like its own
(``Op.kernel`` in ``workloads.py``).  ``linalg`` is the full SVD of a
1458 x 9 matrix, the shape of the SEP engine's affine-hull step, bound by
cache and memory bandwidth: it stands for the engine's calls, the oracle's
cross-checks, the symmetry audit and a fresh interpreter's start-up.
``interp`` is interpreter-bound Python and 3 x 3 matrix products: it stands
for classification, protocol construction and the ALS search.  The two
change speed by different amounts when the machine does: on the reference
machine the interp kernel's median over a run ranged over a factor of two,
the linalg kernel's over a factor of 1.3.  The tail percentile is scaled by
the run's slow end instead (:func:`scale_to_slow_end`).  Set-up time
(import, input generation and warm-up) is scaled by the median of a few
linalg samples taken as soon as set-up ends.

The kernels run in a process of their own on the worker's CPU, one at a
time with the worker's operations, so that their memory never counts toward
the worker's peak resident memory.

Usage (from ``worker.py``): ``python3 perfbench/reference.py``, then one
kernel name per line on standard input; each is answered with its seconds.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Callable

#: Operation time between two timings of each kernel: about as often as
#: keeps each kernel's own time near a tenth of the operations' time.  The
#: machine changes speed within a second, so the short kernel is timed often.
CALIBRATE_EVERY_S = {"linalg": 0.5, "interp": 0.05}

#: Median time of each kernel on the reference machine (a shared 2-vCPU
#: Xeon VM, 1 BLAS thread).  Scaled latencies read as if the machine ran at
#: that speed throughout.
REFERENCE_S = {"linalg": 0.060, "interp": 0.0046}

#: Quantile of a run's kernel samples that the tail percentile is scaled by.
TAIL_QUANTILE = 0.9

#: Set-up time is scaled by the median of this many samples of this kernel,
#: taken as soon as set-up ends.
SETUP_KERNEL = "linalg"
SETUP_SAMPLES = 3


def _linalg() -> Callable[[], object]:
    import numpy as np

    tall = np.random.default_rng(0).standard_normal((1458, 9))
    return lambda: np.linalg.svd(tall)


def _interp() -> Callable[[], object]:
    import numpy as np

    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(9)]

    def run() -> dict[int, int]:
        acc = np.eye(3, dtype=complex)
        for i in range(400):
            acc = mats[i % 9] @ acc
            acc /= np.abs(acc).max()
        counts: dict[int, int] = {}
        for i in range(4000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        return counts

    return run


_KERNELS = {"linalg": _linalg, "interp": _interp}


class Calibrator:
    """The reference kernels in a child process that inherits the caller's
    CPU affinity.  Calling it with a kernel name runs that kernel once and
    returns its seconds; the caller waits meanwhile."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self, kind: str) -> float:
        self.proc.stdin.write(kind + "\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is not None:
            self.proc.kill()
        self.close()


def scale(
    latencies: list[float], kernels: list[str], brackets: list[int], samples: dict[str, list[float]],
) -> list[float]:
    """Latencies at reference speed.

    Operation ``i`` ran between the samples ``brackets[i]`` and
    ``brackets[i] + 1`` of every kernel; its latency is multiplied by the
    reference time of its kernel ``kernels[i]`` over the mean of that
    kernel's two samples.
    """
    out = []
    for t, kind, k in zip(latencies, kernels, brackets):
        seen = samples[kind]
        out.append(t * REFERENCE_S[kind] / (0.5 * (seen[k] + seen[k + 1])))
    return out


def scale_to_slow_end(latencies: list[float], kernels: list[str], samples: dict[str, list[float]]) -> list[float]:
    """Latencies at reference speed for the tail percentile.

    The slowest operations of a run are the ones that ran while the machine
    was slowest, and a short stall inside one operation does not show in the
    kernel samples next to it, so scaling by those samples would inflate
    the stalled operations of a fast stretch.  Each latency is instead
    multiplied by its kernel's reference time over that kernel's
    ``TAIL_QUANTILE`` sample time over the whole run.
    """
    slow = {
        kind: sorted(seen)[min(len(seen) - 1, int(TAIL_QUANTILE * len(seen)))]
        for kind, seen in samples.items()
    }
    return [t * REFERENCE_S[kind] / slow[kind] for t, kind in zip(latencies, kernels)]


def _serve() -> None:
    kernels: dict[str, Callable[[], object]] = {}
    for line in sys.stdin:
        kind = line.strip()
        if kind not in kernels:
            kernels[kind] = _KERNELS[kind]()
            kernels[kind]()  # the first call pays for numpy's dispatch
        t0 = time.perf_counter()
        kernels[kind]()
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    _serve()
