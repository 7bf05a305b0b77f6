"""Run one fockops CLI command with the benchmark tracer installed.

    python3 perfbench/cli_child.py COUNTERS_JSON <fockops cli arguments>

Behaves like ``python -m fockops.cli <arguments>``: the same artifacts, the
same exit code, and an escaping exception still prints its traceback.
When the command ends, the tracer's counters are written to COUNTERS_JSON
for the benchmark process to add to its own.
"""

import json
import sys

from tracer import Tracer


def main():
    counters_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    from fockops import cli
    try:
        code = cli.entrypoint(argv)
    finally:
        with open(counters_path, "w") as handle:
            json.dump(dict(tracer.counts), handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
