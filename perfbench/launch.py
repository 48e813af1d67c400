"""Run one filterlab CLI command with the benchmark's span wrappers installed.

    python3 perfbench/launch.py SPANS.json <filterlab arguments...>

Used for the traced jobs of the `tables` workload, which run each command
in a fresh interpreter.  Writes the command's spans and counters to
SPANS.json (times from the system-wide monotonic clock, so the parent can
place them inside its own span of the process) and exits with the command's
exit code.  Needs `src` on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

import spans


def main():
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    import filterlab.cli
    tracer.begin_job()
    try:
        return filterlab.cli.main(argv)
    finally:
        out.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
