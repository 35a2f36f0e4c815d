"""Run the groundspect CLI with tracing installed before it starts.

    python3 perfbench/launch.py TRACE_DIR <groundspect arguments...>

The wrappers are in place before ``cli.main`` runs, so the pool workers that
``pipeline --jobs N`` forks inherit them and write their own span files.
"""

import sys

from tracer import Tracer


def main() -> int:
    tracer = Tracer(sys.argv[1])
    tracer.install()
    from groundspect import cli

    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main())
