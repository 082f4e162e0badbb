"""Run one plmonoid CLI invocation under the tracer.

    python3 perfbench/launcher.py SUMMARY_JSON ARG...

Equivalent to ``python -m plmonoid ARG...`` (the package must be
importable, e.g. through PYTHONPATH) except that the tracer's wrappers
are installed before ``explorer.main`` runs and the trace summary is
written to SUMMARY_JSON on exit.
"""

import json
import sys

from plmonoid import explorer

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return explorer.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
