"""Time one workload set-up in a fresh interpreter and print the seconds.

Usage: python3 bench/probe_setup.py <workload> <seed> <workdir>

The time covers importing numpy and fraclat and building the workload
(problem, meshes, boundary conditions, config files), which is what a
user waits for before the first pass.
"""

import sys
import time

t0 = time.perf_counter()
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

w = workloads.create(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
elapsed = time.perf_counter() - t0
w.close()
print(repr(elapsed))
