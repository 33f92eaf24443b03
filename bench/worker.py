"""The workload process, started by run.py with PYTHONPATH pointing at src.

It imports corrkit and builds the CLI parser before anything else, then
prints "ready" so that the parent can time set-up from interpreter
start. With --probe it exits there; otherwise it runs one workload (see
measure.py) and prints its result as one JSON line.
"""

import sys

if __name__ == "__main__":
    import corrkit.cli

    corrkit.cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if "--probe" in sys.argv[1:]:
        sys.exit(0)
    import measure

    sys.exit(measure.main())
