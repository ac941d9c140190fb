"""Host speed gauge: a fixed reference kernel timed between the ops.

The benchmark's host is a few cores of a shared machine whose speed drifts by
up to 1.6x over seconds to minutes (the load of other tenants on the same
physical cores; the time is CPU time, not steal).  Such drift outlasts a run,
so raw per-run figures of the same code spread past any useful bound.

The gauge times ``kernel`` -- a fixed mix of the work the library does: a
pure-Python complex series loop like ``special_fn``'s and a numpy Horner
evaluation on a circle like ``series_ops``' -- between blocks of ops.  A
block's wall time is then scaled by ``REFERENCE_S / k``, where ``k`` is the
kernel's time measured around the block: the figure is the time the block
would have taken on a host that runs the kernel in ``REFERENCE_S``.  A change
to the library cannot change the kernel, so a slower library still reads
slower; drift of the host, which slows kernel and ops alike, cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on the baseline host (Intel Xeon, 2 vCPUs) at its
# usual speed.  A constant: it only sets the scale of the reported figures.
REFERENCE_S = 2.0e-3
BLOCK_S = 0.025  # ops between two kernel readings take at least this long

_CIRCLE = 0.9 * np.exp(2j * np.pi * np.arange(4096) / 4096)
_COEFFS = tuple(complex(1.0 / (k + 1), 0.5 / (k + 2)) for k in range(128))


def kernel() -> float:
    """Run the reference work once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    z, term, total = 0.3 + 0.4j, 1.0 + 0.0j, 0.0j
    for n in range(1, 6000):
        term = term * z / n
        total += term
    acc = np.zeros_like(_CIRCLE)
    for c in _COEFFS:
        acc = acc * _CIRCLE + c
    return time.perf_counter() - t0


class Gauge:
    """Kernel readings between blocks of ops, and the scale of each block.

    Call ``tick()`` after every op: once the open block has run ``BLOCK_S``
    it is closed and the kernel is read.  ``scales()[j]`` is ``REFERENCE_S``
    over the median of the four readings nearest block ``j`` (the two before
    it and the two after), so one reading hit by an interrupt does not move it.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.walls: list[float] = []  # wall time of each closed block
        for _ in range(5):  # warm the kernel's code paths and caches
            kernel()
        self._read()

    @property
    def block(self) -> int:
        """Index of the open block."""
        return len(self.walls)

    def _read(self) -> None:
        self.readings.append(kernel())
        self._start = time.perf_counter()

    def tick(self) -> None:
        elapsed = time.perf_counter() - self._start
        if elapsed >= BLOCK_S:
            self.walls.append(elapsed)
            self._read()

    def close(self) -> None:
        """Close the open block; call once, after the last op."""
        self.walls.append(time.perf_counter() - self._start)
        self._read()

    def scales(self) -> list[float]:
        """Scale of every closed block: block j lies between readings j and j+1."""
        r = self.readings
        last = len(r) - 1
        return [
            REFERENCE_S / statistics.median(r[max(0, j - 1) : min(last, j + 2) + 1])
            for j in range(len(self.walls))
        ]

    def scaled_wall(self) -> float:
        return sum(w * s for w, s in zip(self.walls, self.scales()))

    def median_s(self) -> float:
        return statistics.median(self.readings)


def scale_around(fn, *args) -> tuple[float, object]:
    """Call fn(*args) between kernel readings; returns the scale and the result.

    For single costly calls outside the op loop (the set-up probes): the
    scale is ``REFERENCE_S`` over the median of three readings on each side.
    """
    before = [kernel() for _ in range(3)]
    result = fn(*args)
    after = [kernel() for _ in range(3)]
    return REFERENCE_S / statistics.median(before + after), result
