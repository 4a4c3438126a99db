"""Timing primitives: child processes, peak memory, a fixed-size latency
reservoir, the percentile rule, and the reference loop that scales every
time to a fixed machine speed."""

from __future__ import annotations

import random
import resource
import subprocess
import time
from dataclasses import dataclass

REFERENCE_S = 0.004
_BIG = 10**30 + 12345


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int

    def __post_init__(self):
        if not isinstance(self.a, int) or not isinstance(self.b, int):
            raise TypeError("integers only")


def reference_loop():
    """Fixed pure-Python work shaped like the package's: validated frozen
    dataclasses, 1e30-sized integer arithmetic and small dicts.  It never
    touches the package, so no change to the package can move it."""
    acc = 0
    for i in range(1500):
        p = _Pair(i * _BIG, i + 7)
        q = _Pair(p.a + 2 * i, p.b + i * p.a + i * i)
        acc += (q.a * q.a - 4 * q.b) % 1000003
        acc += len({"a": p.a, "b": q.b})
    return acc


def speed_factor():
    """REFERENCE_S over the time the reference loop takes right now.

    Multiplying a time measured just before by this factor gives the time it
    would take on a machine where the loop takes exactly REFERENCE_S.  The
    shared hosts this benchmark runs on change speed by up to 1.8x within
    minutes; both the loop and the package slow down together, so the
    scaled times stay steady where raw times do not.
    """
    start = time.perf_counter()
    reference_loop()
    return REFERENCE_S / (time.perf_counter() - start)


def spawn(argv, env, timeout=120.0):
    """Run argv to completion: (wall s, exit code, stdout bytes, stderr bytes)."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=timeout)
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def children_peak_rss_mb():
    """Largest peak resident memory of any child reaped so far, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 100])."""
    s = sorted(values)
    if not s:
        raise ValueError("no samples")
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Reservoir:
    """Uniform sample of at most `size` values from a stream (algorithm R).

    Keeps memory flat however many operations a run completes, so peak RSS
    does not grow with throughput.  Its random stream is separate from the
    workload's, so inputs do not depend on how many samples were kept.
    """

    def __init__(self, size=200_000, seed=0):
        self.size = size
        self.seen = 0
        self.values = []
        self._rng = random.Random(seed)

    def add(self, value):
        self.seen += 1
        if len(self.values) < self.size:
            self.values.append(value)
        else:
            j = self._rng.randrange(self.seen)
            if j < self.size:
                self.values[j] = value
