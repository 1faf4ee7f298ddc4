"""Time one sim workload's set-up in a fresh interpreter.

Started by ``sim_workloads.py``, never by hand.  Measures importing the
program and building the workload's worlds (without running them), and
prints ``{"seconds": ...}``, in host seconds, as one JSON line.
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main():
    import sim_workloads

    workload, input_seed = sys.argv[1], int(sys.argv[2])
    sim_workloads.build_worlds(workload, input_seed)
    print(json.dumps({"seconds": perf_counter() - STARTED}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
