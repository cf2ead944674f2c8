"""Run one sobolex CLI request under the benchmark's tracer.

    python perfbench/traced_cli.py OUT_PREFIX REQUEST_ID -- CLI ARGS...

Wraps the traced functions, calls `sobolex.cli.main(args)`, and at exit
writes the span summary to OUT_PREFIX.json and the spans to
OUT_PREFIX.spans.  The exit code is that of the CLI.
"""

import sys

from tracer import Tracer, instrument


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    prefix, request = argv[0], argv[1]
    tracer = Tracer()
    instrument(tracer)
    import sobolex.cli

    try:
        code = sobolex.cli.main(argv[3:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        tracer.dump(prefix, request)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
