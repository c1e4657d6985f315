"""Set-up time of a fresh interpreter: import the package and its command
line, then build one workload's inputs.  Prints one JSON line with
`import_s` and `total_s`.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import hilbert_gauss  # noqa: E402,F401
import hilbert_gauss.cli  # noqa: E402,F401

t1 = time.perf_counter()
import inputs  # noqa: E402

inputs.make_inputs(inputs.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "total_s": t2 - t0}))
