"""One set-up sample: a fresh interpreter imports spindual and makes the
workload's inputs.  Prints the elapsed seconds; run by run.py.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import spindual.cli  # noqa: E402,F401  (imports every spindual module)
import workloads  # noqa: E402

claims = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter() - T0)
