"""Time one set-up in a fresh interpreter: import walklab, then warm up.

    python3 perfbench/probe.py <workload>

Prints the seconds from the start of this script to the end of the
workload's warm-up.  run.py takes the median of several probes as
setup_s.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

import repo  # noqa: E402

repo.use_source_tree()

import workloads  # noqa: E402

workloads.warm_up(sys.argv[1])
print(time.perf_counter() - _START)
