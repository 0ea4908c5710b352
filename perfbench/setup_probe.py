"""One timed set-up of a workload: cold ``import herdsim``, models, inputs, warm-up.

run.py calls ``timed_setup`` in its own process and then runs this file as a
script in fresh interpreters for further samples.  Every sample therefore
starts cold, and work cached inside one process cannot hide in the median.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir> [--smoke]

prints one JSON object of set-up timings.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def timed_setup(workload: str, seed: int, smoke: bool, workdir: str):
    """Return (timings, workload object); the caller has put ``SRC`` on sys.path."""
    t0 = time.perf_counter()
    import herdsim  # noqa: F401  (timed: the package, numpy and scipy)

    t1 = time.perf_counter()
    import workloads

    models, build = workloads.build_models()
    wl = workloads.WORKLOADS[workload](seed, smoke, models, workdir)
    wl.warm_up()
    t2 = time.perf_counter()
    return {"setup_s": t2 - t0, "import_s": t1 - t0, **build}, wl


if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, SRC)
    timings, _ = timed_setup(name, seed, "--smoke" in sys.argv[4:], workdir)
    print(json.dumps(timings))
