"""One set-up of a workload in a fresh process: import the ein3 modules
the workload uses and make its warm-up calls.

    setup_probe.py WORKLOAD SEED

`run.py` times this process from spawn to exit for `setup_s`.
"""

import sys

from workloads import WORKLOADS

# the smallest input pools that still hold one warm-up input per kind
SMALL = {"verify-suites": {}, "predicate-mix": {"per_kind": 4},
         "cli-cold": {"per_command": 1}}


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = WORKLOADS[name](seed, **SMALL[name])
    workload.warm_up()
    if hasattr(workload, "close"):
        workload.close()


if __name__ == "__main__":
    main()
