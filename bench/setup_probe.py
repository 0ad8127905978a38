"""One set-up, as a fresh process pays it: import `sublevel_lab` and build
a workload's inputs, then print the CLOCK_MONOTONIC reading (shared by all
processes of the machine) at which the first timed call could start.

Usage: python3 bench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402  (imports sublevel_lab)

if __name__ == "__main__":
    build = workloads.WORKLOADS[sys.argv[1]][0]
    build(int(sys.argv[2]), BENCH.parent)
    print(repr(time.monotonic()))
