"""Fixed reference kernel: the host-speed yardstick for end-to-end times.

Usage: python3 perfbench/reference.py

Prints the wall and CPU seconds one fixed piece of work took in this
process.  The work is an interpreted integer loop, int64 block arithmetic
like the box enumeration, and gathers/scatters on 2^20-entry tables like the
character tables; it uses no code of the package, so its time changes only
with the speed the shared host gives the process at the moment.  (An mpmath
interval loop in the mix made the yardstick track the workloads worse.)
"""

import time

import numpy as np


def kernel() -> int:
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    rng = np.random.default_rng(0)
    coords = rng.integers(0, 101, size=(1 << 15, 3))
    basis = rng.integers(0, 101, size=(3, 3))
    weights = np.array([1, 101, 101 * 101])
    signs = rng.integers(-1, 2, size=1 << 20, dtype=np.int8)
    table = rng.integers(0, 1 << 20, size=1 << 20)
    for _ in range(30):
        acc += int((((coords @ basis.T) % 101) @ weights).sum() % 1000)
    for _ in range(30):
        idx = (((coords @ basis.T) % 101) @ weights) % (1 << 20)
        acc += int(signs[idx].sum()) + int(table[idx].sum() % 7)
        table[idx] = idx
    return acc


if __name__ == "__main__":
    t0, cpu0 = time.perf_counter(), time.process_time()
    kernel()
    print(time.perf_counter() - t0, time.process_time() - cpu0)
