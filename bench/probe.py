"""One set-up probe: a fresh process that gets ready to run a workload.

    python3 bench/probe.py WORKLOAD SEED SPAWN_TIME OUT_DIR

Imports the package, builds the inputs of one operation and runs that
operation once on the workload's small instance, then prints the
seconds since SPAWN_TIME, a ``time.monotonic()`` reading the parent took
just before starting this process (the clock is shared by all processes).
"""

import sys
import time
from pathlib import Path

import bootstrap


def main(argv):
    name, seed, spawn_time, out_dir = argv
    bootstrap.prepare()
    import workloads
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(bootstrap.rng_for(int(seed), name, "probe"),
                                  Path(out_dir), "probe", small=True)
    workload.run_op(inputs)
    print(f"{time.monotonic() - float(spawn_time):.6f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
