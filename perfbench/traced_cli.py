"""`python -m ein3.cli` with the layer tracer installed, for the traced
cli-cold run.

    traced_cli.py STATS_PATH CLI_ARGS...

Runs the command as the plain CLI would and exits with its code; the
per-span call counts and self times go to STATS_PATH as JSON.
"""

import json
import sys

from tracer import Tracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(keep=0)
    tracer.install()
    from ein3 import cli
    code = 1
    try:
        with tracer.op("op.cli"):
            code = cli.main(argv)
    finally:
        with open(stats_path, "w") as handle:
            json.dump({"stats": tracer.stats(), "root_s": tracer.root_s,
                       "spans": tracer.total_spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
