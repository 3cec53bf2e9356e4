"""Run one `rayloc` command in-process with span recording.

Usage: python3 perfbench/cli_runner.py SPANS_JSON COMMAND [ARGS...]

The traced corridor-cold run spawns this script in place of
``python3 -m rayloc.cli``; it wraps the layer functions, calls
``rayloc.cli.main`` unchanged and writes the spans when the command ends.
"""

import sys


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import rayloc.cli

    from tracing import Instrumentation, Tracer, write_spans

    tracer = Tracer()
    tracer.request = 0
    with Instrumentation(tracer):
        code = rayloc.cli.main(cli_argv)
    write_spans(spans_path, tracer.spans)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
