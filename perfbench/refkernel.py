"""Frozen reference kernel: a fixed amount of host work to measure host speed.

The benchmark takes readings of it between the commands it times, while no
child process of the benchmark is alive, and divides every time metric by
the median reading of the run. A host that runs slow (or fast) for a while
then scales the pass and the reference alike.

Frozen means: never edit the work below. It does not import ``repro``, so no
change to the program can move it. It mixes the two kinds of work a pass
spends its time on: numpy ``sort``, fancy-index gather and ``bincount`` over
arrays larger than the CPU caches (memory and vector speed), and a
pure-Python loop (interpreter speed).
"""

from __future__ import annotations

import time

import numpy as np

#: Rows in the numpy part (two 9.6 MB columns); fixed forever.
N_ROWS = 1_200_000
#: Iterations of the pure-Python loop; fixed forever.
N_LOOP = 150_000
#: Sub-measurements per reading; the reading is the fastest of them, which
#: drops the bursts where a neighbour took the CPU for part of one.
REPEATS = 3


def _inputs() -> "tuple[np.ndarray, np.ndarray]":
    rng = np.random.default_rng(20150501)
    return rng.integers(0, 1 << 24, N_ROWS), rng.random(N_ROWS)


def reference_work(keys: np.ndarray, values: np.ndarray) -> float:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    order = np.argsort(keys, kind="stable")
    gathered = values[order]
    buckets = np.bincount(keys[order] >> 8, weights=gathered)
    acc = 0
    table = {}
    for i in range(N_LOOP):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    return float(buckets.sum()) + acc + len(table)


def measure(repeats: int = REPEATS) -> float:
    """Seconds for one unit of reference work: the fastest of ``repeats``."""
    keys, values = _inputs()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_work(keys, values)
        times.append(time.perf_counter() - start)
    return min(times)
