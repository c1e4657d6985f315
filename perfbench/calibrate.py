"""Core-speed calibration that makes timings comparable across runs.

The speed of one core on a shared machine drifts by up to a factor of two
between, and within, back-to-back runs of the same code, while process CPU
time keeps equal to wall time: the core itself is slower, not the
scheduler.  A fixed kernel that does not touch the package under test is
therefore timed next to every measured item, and each item's time is
scaled by `reference_us(dim) / kernel time`.  The kernel mimics one Monte
Carlo replicate of the package at model dimension `dim`: a Philox
generator keyed per replicate, `dim` scaled normals, a masked projection,
small read-only vector objects, a residual norm, and some dict and set
work in the interpreter.  A slow core slows interpreter work and array
work by different factors, so each item is scaled by the kernel that
matches it: the 256-mode kernel for interpreter-bound work, the 8192-mode
kernel for array-bound work (8192-mode replicates, trajectory extraction).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")

# Kernel repetitions per calibration point; the point is their median.
REPEATS = 9
# Kernel iterations per model dimension, for about one millisecond each.
ITERATIONS = {256: 30, 8192: 8}


class _Vec:
    __slots__ = ("c",)

    def __init__(self, c):
        a = np.asarray(c, dtype=float)
        a.flags.writeable = False
        self.c = a


def _kernel(lam: np.ndarray, mask: np.ndarray, iterations: int) -> float:
    acc = 0.0
    for i in range(iterations):
        rng = np.random.Generator(np.random.Philox(key=(5 << 64) | i))
        y = _Vec(np.sqrt(lam) * rng.standard_normal(lam.size))
        p = _Vec(np.where(mask, y.c, 0.0))
        r = _Vec(y.c - p.c)
        acc += float(r.c @ r.c) / float(lam[~mask].sum())
        d = {"acc": acc, "i": i}
        acc += d["i"] * len(sorted(set(range(6)) - {3}))
    return acc


def reference_us(dim: int) -> float:
    """Kernel time, in microseconds, that normalised times are scaled to."""
    with open(_BASELINE, "r", encoding="utf-8") as fh:
        return float(json.load(fh)["calibration"]["reference_us"][str(dim)])


def point_us(dim: int) -> float:
    """One calibration point: the median kernel time in microseconds."""
    k = np.arange(1, dim + 1)
    lam = 1.0 / ((k - 0.5) ** 2 * np.pi**2)
    mask = np.isin(k, [4, 5, 6])
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        _kernel(lam, mask, ITERATIONS[dim])
        times.append(time.perf_counter_ns() - t0)
    times.sort()
    return times[REPEATS // 2] / 1e3


class Calibrator:
    """Brackets measured items with calibration points of every kernel."""

    def __init__(self):
        self.reference = {dim: reference_us(dim) for dim in ITERATIONS}
        self.points = [self._point()]

    def _point(self) -> dict:
        return {dim: point_us(dim) for dim in ITERATIONS}

    def factors(self) -> dict:
        """Per kernel dimension, the scale of the item that ran since the
        previous call: the reference over the mean of the points on either
        side of it."""
        self.points.append(self._point())
        before, after = self.points[-2], self.points[-1]
        return {dim: ref / (0.5 * (before[dim] + after[dim])) for dim, ref in self.reference.items()}

    def run_factors(self) -> dict:
        """Per kernel dimension, the reference over the median of every
        point so far: the scale for items that the points next to them
        track worse."""
        return {
            dim: ref / float(np.median([p[dim] for p in self.points]))
            for dim, ref in self.reference.items()
        }
