"""`cryalert watch` with span tracing, run by run.py for traced passes.

Usage: python3 perfbench/watch_traced.py SPANS watch --model ... --dir ...

Installs the wrappers from spans.py, runs cryalert.cli.main with the
remaining arguments (SIGINT stops the watcher cleanly), then writes the
spans to SPANS.  cryalert is imported from the checkout's src/ through
PYTHONPATH, which run.py sets.
"""

import sys

from spans import Tracer, instrument


def main(argv):
    tracer = Tracer()
    instrument(tracer)
    from cryalert import cli

    code = cli.main(argv[1:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
