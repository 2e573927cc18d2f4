"""Samples the speed of one CPU while the benchmark runs on it.

    python3 perfbench/speedometer.py CPU OUTFILE MAX_SECONDS

Pinned to CPU, it times a fixed loop of small-array numpy calls (about
0.3 ms, the kind of work the workloads do) every PERIOD_S seconds and
appends `start duration` lines (`time.perf_counter`, the system-wide
monotonic clock) to OUTFILE until it is terminated or MAX_SECONDS pass.
On a shared host a vCPU's speed changes by up to a factor of two from one
second to the next, so `run.py` divides each measured time by the median
sample duration over the same interval.  A pure-Python loop tracked the
workloads' slowdowns less well.  Each sample runs the loop once untimed
first, so it is timed with warm caches: otherwise how much of the cache the
benchmarked code evicts between samples would move the divisor, and part of
a change to the code's memory footprint would be divided out.  The
sampling takes about 1 % of the CPU.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

PERIOD_S = 0.05


def main() -> int:
    cpu, path, limit = int(sys.argv[1]), sys.argv[2], float(sys.argv[3])
    os.sched_setaffinity(0, {cpu})
    end = time.perf_counter() + limit
    x = np.linspace(0.1, 2.0, 8)
    with open(path, "w", encoding="utf-8") as out:
        while time.perf_counter() < end:
            acc = 0.0
            for _ in range(2):  # the first round only warms the caches
                start = time.perf_counter()
                for i in range(60):
                    acc += float(np.exp(-x * (i % 5)).sum())
            out.write(f"{start!r} {time.perf_counter() - start!r}\n")
            out.flush()
            time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
