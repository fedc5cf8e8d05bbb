"""Set-up probe: one fresh process times what a user pays before the first
answer, then prints it as JSON.

    python3 perfbench/probe.py <workload> <seed>

Set-up is the import of numpy and ``maxdiv`` plus one warm-up operation on
the pool's first input, which fills lazy caches such as
``kernels.compositions``.  Generating that input is the benchmark's own work
and is left out.
"""

import json
import sys
from time import perf_counter

import bootstrap


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = perf_counter()
    import numpy  # noqa: F401

    bootstrap.use_source_tree()
    t1 = perf_counter()
    import workloads

    op = workloads.first_operation(workload, seed)
    t2 = perf_counter()
    op()
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t3 - t2}))


if __name__ == "__main__":
    main()
